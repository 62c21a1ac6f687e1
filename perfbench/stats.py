"""Arithmetic of the perfbench benchmark: percentiles, failure shares,
/proc parsing and the READ latency reconciliation.

Pure functions only, so test_stats.py can pin them down without a build.
"""

import math


def percentile(values, q):
    """The q-th percentile (0..100) of `values`, linearly interpolated
    between closest ranks (the same rule as numpy's default).  Raises
    ValueError on an empty list: a percentile of nothing is not 0."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(values):
    """p50/p99/mean/max of a sample, with the sample count it came from."""
    if not values:
        return {"n": 0, "p50": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "p99": percentile(values, 99),
        "mean": sum(values) / len(values),
        "max": max(values),
    }


def median(values):
    return percentile(values, 50)


def failed_frac(attempted, failed):
    """Share of attempted transactions or cases that did not complete.
    Undrained transactions count as failed, so `failed` may include work
    still outstanding at the deadline."""
    if attempted <= 0:
        raise ValueError("failed_frac needs at least one attempt")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def proc_pid_cpu(stat_text):
    """(utime, stime) clock ticks from /proc/<pid>/stat.  The comm field
    may hold spaces and parentheses, so fields are counted after the LAST
    ')'."""
    rest = stat_text[stat_text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return int(rest[11]), int(rest[12])


def proc_pid_ctx_switches(status_text):
    """voluntary + nonvoluntary context switches from /proc/<pid>/status."""
    total = 0
    for line in status_text.splitlines():
        key, _, value = line.partition(":")
        if key in ("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"):
            total += int(value.split()[0])
    return total


def proc_stat_cpu(stat_text):
    """The aggregate 'cpu' line of /proc/stat as a dict of tick counters."""
    names = ["user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal"]
    for line in stat_text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            values = [int(v) for v in fields[1:1 + len(names)]]
            values += [0] * (len(names) - len(values))
            return dict(zip(names, values))
    raise ValueError("no aggregate cpu line in /proc/stat text")


def host_shares(before, after):
    """(steal_share, busy_share) of all host CPU time between two
    proc_stat_cpu snapshots.  Busy is everything but idle, iowait and
    steal."""
    delta = {k: after[k] - before[k] for k in before}
    total = sum(delta.values())
    if total <= 0:
        return 0.0, 0.0
    busy = total - delta["idle"] - delta["iowait"] - delta["steal"]
    return delta["steal"] / total, busy / total


def calm(steal_shares, limit):
    """Indices of the items whose host steal share is at most `limit`, or of
    all items when none is: figures measured while the hypervisor ran other
    guests are set aside only while calmer ones exist."""
    picked = [i for i, s in enumerate(steal_shares) if s <= limit]
    return picked or list(range(len(steal_shares)))


def unexplained_share(layers_us, traced_read_p50_us):
    """1 - (sum of the READ's layer times / traced READ median).  Positive:
    time the layers do not account for; negative: the layers overlap
    (e.g. parallel legs summed as if serial)."""
    if traced_read_p50_us <= 0:
        raise ValueError("traced READ median must be positive")
    return 1.0 - sum(layers_us.values()) / traced_read_p50_us


def read_layers(client_queue_p50, client_self_p50, rounds_mean,
                request_transit_p50, server_handle_p50, reply_transit_p50):
    """The serial layers of one READ: client queueing, then per round one
    request leg, one server handle and one reply leg, then the client's
    own completion work."""
    return {
        "client_queue": client_queue_p50,
        "request_transit": rounds_mean * request_transit_p50,
        "server_handle": rounds_mean * server_handle_p50,
        "reply_transit": rounds_mean * reply_transit_p50,
        "client_self": client_self_p50,
    }

