#!/usr/bin/env python3
"""snowkit benchmark: one command runs one workload.

    python3 perfbench/run.py --workload read_mostly --seed 1 --seconds 15 --trace 0

Builds snowkit from the checkout (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, runs the workload,
checks its correctness gate, prints every metric with its unit, and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is 0 when the gate passes and 1 otherwise (2 for bad
arguments).  README.md in this directory describes every metric.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import stats  # noqa: E402

TRIO = ["algo-b", "algo-c", "adaptive"]
WORKLOADS = ("read_mostly", "hot_writes", "fuzz")
PAYLOAD_CLASSES = ("read_req", "read_resp", "write", "repl")
FLEET_WINDOW_S = {"read_mostly": 5.0 / 6,  # timed seconds per fleet; check_tag_order
                  "hot_writes": 5.0 / 3}   # is O(n^2) in a fleet's history
BATTERY_SEEDS = 20000      # the fuzz battery: seeds 1..20000 per protocol
FUZZ_SLICE = 6000          # battery seeds per protocol run beside each TCP workload
# The only fuzz violations a run may find: algo-c trips tag-order P2 on these
# battery seeds although check_strict_serializability passes on their
# histories (a known defect).  Any other violation fails the gate.
KNOWN_FUZZ_VIOLATIONS = {"algo-c": {1854, 3949, 19484}}
CLIENT_TIMEOUT_S = 170
# Host steal share over a fleet's timed window above which its P.* figures
# are set aside (while the protocol has calmer fleets).  On the shared VM the
# benchmark was tuned on, steal idles near 0.5% and comes in episodes of
# 3-10% lasting 10-40 s, during which READ p99s rise 2-30x.
STEAL_LIMIT = 0.02


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# --- build ---------------------------------------------------------------------

def build(build_dir):
    """Configures and builds perfbench_client and snowkit_server; returns
    their paths.  Build output goes to stderr so stdout stays the report."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench_client", "snowkit_server"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    client = os.path.join(build_dir, "perfbench_client")
    server = os.path.join(build_dir, "snowkit", "snowkit_server")
    for path in (client, server):
        if not os.path.exists(path):
            raise RuntimeError("build did not produce " + path)
    return client, server


def run_client(client, opts, out_path):
    argv = [client]
    for key, value in opts.items():
        argv += ["--" + key, str(value)]
    argv += ["--out", out_path]
    log("[perfbench] " + " ".join(argv[1:]))
    proc = subprocess.Popen(argv, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("perfbench_client timed out")
    if code != 0:
        raise RuntimeError("perfbench_client exited %d" % code)
    with open(out_path) as f:
        return json.load(f)


# --- metric assembly -------------------------------------------------------------

def fleets_of(raw, protocol, traced=None):
    return [f for f in raw["fleets"]
            if f["protocol"] == protocol and (traced is None or f["traced"] == traced)]


def pooled(fleets, key):
    """Every latency of `key` ("read_us" or "write_us") over the fleets' slices."""
    out = []
    for f in fleets:
        for part in f[key]:
            out += part
    return out


def slices_of(fleets):
    """(seconds, read latencies, write latencies) of every window slice."""
    out = []
    for f in fleets:
        k = len(f["read_us"])
        for reads, writes in zip(f["read_us"], f["write_us"]):
            out.append((f["window_ns"] / 1e9 / k, reads, writes))
    return out


def window_steal(fleet):
    return stats.host_shares(stats.proc_stat_cpu(fleet["host_stat_w0"]),
                             stats.proc_stat_cpu(fleet["host_stat_w1"]))[0]


def end_to_end(raw):
    """The end-to-end metrics, keyed by name: (value, unit, sample note)."""
    m = {}
    for p in TRIO:
        # Each figure is taken per slice of a fleet's timed window, and the
        # metric is the median over the slices of that protocol's calm
        # fleets: one fleet with an unlucky thread placement, host noise over
        # part of a window, or a steal episode over some fleets does not
        # move it.
        fl = fleets_of(raw, p)
        steal = [window_steal(f) for f in fl]
        picked = [fl[i] for i in stats.calm(steal, STEAL_LIMIT)]
        if len(picked) < len(fl):
            log("[perfbench] %s: %d of %d fleets set aside, window steal %s" % (
                p, len(fl) - len(picked), len(fl), " ".join("%.3f" % x for x in steal)))
        sl = slices_of(picked)
        reads = [len(r) for _, r, _ in sl]
        writes = [len(w) for _, _, w in sl]
        src = "median of %d slices of %d/%d fleets" % (len(sl), len(picked), len(fl))
        read_note = "%s; %d-%d reads per slice" % (src, min(reads), max(reads))
        m[p + ".ops_per_s"] = (stats.median([(len(r) + len(w)) / t for t, r, w in sl]), "1/s",
                               "%s; %d txns" % (src, sum(reads) + sum(writes)))
        m[p + ".read_p50_us"] = (stats.median([stats.percentile(r, 50) for _, r, _ in sl]),
                                 "us", read_note)
        m[p + ".read_p99_us"] = (stats.median([stats.percentile(r, 99) for _, r, _ in sl]),
                                 "us", read_note)
        m[p + ".write_p50_us"] = (stats.median([stats.percentile(w, 50) for _, _, w in sl]), "us",
                                  "%s; %d-%d writes per slice" % (src, min(writes), max(writes)))
    cases = sum(raw["fuzz"][p]["cases"] for p in TRIO)
    cpu = sum(raw["fuzz"][p]["cpu_s"] for p in TRIO)
    m["fuzz_cases_per_s"] = (cases / cpu, "1/s", "%d cases / %.3f cpu-s" % (cases, cpu))
    setups = [f["setup_ns"] / 1e9 for f in raw["fleets"]] + \
             [t / 1e9 for t in raw["setup_probe_ns"]]
    m["setup_s"] = (stats.median(setups), "s", "median of n=%d fleet set-ups" % len(setups))
    return m


def task_ctx_switches(proc):
    return sum(stats.proc_pid_ctx_switches(t) for t in proc["task_status"])


def proc_totals(fleet):
    """(user ticks, sys ticks, ctx switches) of the whole fleet: the client
    process's delta over the fleet's life plus every daemon's lifetime."""
    extra = fleet["extra"]
    b, a = extra["proc_self_before"], extra["proc_self_after"]
    ub, sb = stats.proc_pid_cpu(b["stat"])
    ua, sa = stats.proc_pid_cpu(a["stat"])
    user, sys_ = ua - ub, sa - sb
    ctx = task_ctx_switches(a) - task_ctx_switches(b)
    for d in extra["proc_daemons"]:
        u, s = stats.proc_pid_cpu(d["stat"])
        user, sys_ = user + u, sys_ + s
        ctx += task_ctx_switches(d)
    return user, sys_, ctx


def transport_totals(fleet):
    total = dict(fleet["extra"]["client_transport"])
    for srv in fleet["extra"]["server_transport"]:
        if srv is None:
            continue
        # The daemons' --stats-json carries TransportStats::extras(), which
        # has frames/syscall (2 decimals) rather than a frames_written count.
        for key in ("send_syscalls", "recv_syscalls", "mailbox_bursts", "epoll_wakeups"):
            total[key] += srv["tcp_" + key]
        total["frames_written"] += srv["frames_per_syscall"] * srv["tcp_send_syscalls"]
    return total


def safe_div(a, b):
    return a / b if b else 0.0


def per_layer(raw):
    """Per-layer metrics, keyed by name: (value, unit).  Layers a workload
    does not exercise (no replication, say) report 0."""
    m = {}
    ticks = os.sysconf("SC_CLK_TCK")
    for p in TRIO:
        untraced, traced = fleets_of(raw, p, False), fleets_of(raw, p, True)
        txns = sum(f["history_txns"] for f in untraced)
        tr = {"user": 0, "sys": 0, "ctx": 0}
        net = {"send_syscalls": 0, "recv_syscalls": 0, "frames_written": 0,
               "epoll_wakeups": 0, "mailbox_bursts": 0, "bytes": 0}
        for f in untraced:
            u, s, c = proc_totals(f)
            tr["user"] += u
            tr["sys"] += s
            tr["ctx"] += c
            t = transport_totals(f)
            for key in ("send_syscalls", "recv_syscalls", "frames_written",
                        "epoll_wakeups", "mailbox_bursts"):
                net[key] += t[key]
            client = f["extra"]["client_transport"]
            net["bytes"] += client["bytes_sent"] + client["bytes_received"]
        legs = {}
        for f in traced:
            for key, values in f["extra"]["traced"].items():
                if isinstance(values, list):
                    legs.setdefault(key, []).extend(values)
        s = {key: stats.summarize(v) for key, v in legs.items()}
        zero = stats.summarize([])
        g = lambda key: s.get(key, zero)  # noqa: E731
        m[p + ".runtime.request_transit_us.p50"] = (g("request_transit")["p50"], "us")
        m[p + ".runtime.request_transit_us.p99"] = (g("request_transit")["p99"], "us")
        m[p + ".runtime.reply_transit_us.p50"] = (g("reply_transit")["p50"], "us")
        m[p + ".runtime.reply_transit_us.p99"] = (g("reply_transit")["p99"], "us")
        m[p + ".runtime.send_syscalls_per_txn"] = (safe_div(net["send_syscalls"], txns), "count")
        m[p + ".runtime.recv_syscalls_per_txn"] = (safe_div(net["recv_syscalls"], txns), "count")
        m[p + ".runtime.frames_per_syscall"] = (
            safe_div(net["frames_written"], net["send_syscalls"]), "count")
        m[p + ".runtime.epoll_wakeups_per_txn"] = (safe_div(net["epoll_wakeups"], txns), "count")
        m[p + ".runtime.mailbox_bursts_per_txn"] = (safe_div(net["mailbox_bursts"], txns), "count")
        m[p + ".runtime.ctx_switches_per_txn"] = (safe_div(tr["ctx"], txns), "count")
        m[p + ".runtime.cpu_us_per_txn.user"] = (safe_div(tr["user"] * 1e6 / ticks, txns), "us")
        m[p + ".runtime.cpu_us_per_txn.sys"] = (safe_div(tr["sys"] * 1e6 / ticks, txns), "us")
        for cls in ("read", "write"):
            m["%s.proto.server_handle_us.%s.p50" % (p, cls)] = (g("server_handle." + cls)["p50"], "us")
            m["%s.proto.server_handle_us.%s.p99" % (p, cls)] = (g("server_handle." + cls)["p99"], "us")
        m[p + ".proto.msgs_per_read"] = (g("msgs_per_read")["mean"], "count")
        m[p + ".proto.msgs_per_write"] = (g("msgs_per_write")["mean"], "count")
        m[p + ".proto.rounds_per_read"] = (g("rounds_per_read")["mean"], "count")
        m[p + ".proto.versions_per_read_resp.mean"] = (g("versions_per_read_resp")["mean"], "count")
        m[p + ".proto.versions_per_read_resp.max"] = (g("versions_per_read_resp")["max"], "count")
        m[p + ".replica.server_to_server_us.p50"] = (g("server_to_server")["p50"], "us")
        m[p + ".replica.server_to_server_us.p99"] = (g("server_to_server")["p99"], "us")
        m[p + ".msg.bytes_per_txn"] = (safe_div(net["bytes"], txns), "B")
        m[p + ".core.client_queue_us"] = (g("client_queue")["p50"], "us")
        m[p + ".core.client_self_us"] = (g("client_self")["p50"], "us")
        traced_reads = pooled(traced, "read_us")
        untraced_reads = pooled(untraced, "read_us")
        if traced_reads and untraced_reads:
            t50, u50 = stats.median(traced_reads), stats.median(untraced_reads)
            m[p + ".trace.overhead_pct"] = (100.0 * (t50 / u50 - 1.0), "%")
            layers = stats.read_layers(g("client_queue")["p50"], g("client_self")["p50"],
                                       g("rounds_per_read")["mean"],
                                       g("read.request_transit")["p50"],
                                       g("read.server_handle.read")["p50"],
                                       g("read.reply_transit")["p50"])
            m[p + ".trace.unexplained_share"] = (stats.unexplained_share(layers, t50), "share")
            log("[perfbench] %s READ budget (us, traced p50 %.1f): %s" % (
                p, t50, ", ".join("%s %.1f" % kv for kv in layers.items())))
        else:
            m[p + ".trace.overhead_pct"] = (0.0, "%")
            m[p + ".trace.unexplained_share"] = (0.0, "share")

    micro = raw.get("micro") or {}
    wal = stats.summarize(micro.get("wal_append_us") or [])
    m["replica.wal_append_us.p50"] = (wal["p50"], "us")
    m["replica.wal_append_us.p99"] = (wal["p99"], "us")
    codec = micro.get("codec") or {}
    for op in ("encode_ns", "decode_ns", "encoded_size_ns"):
        for cls in PAYLOAD_CLASSES:
            m["msg.%s.%s" % (op, cls)] = (codec.get(cls, {}).get(op, 0.0), "ns")
    vs = micro.get("version_store") or {}
    for key, name in (("insert_ns", "version_store.insert_ns"),
                      ("get_ns", "version_store.get_ns"),
                      ("prune_ns", "version_store.prune_ns"),
                      ("push_ns", "version_store.coor_list.push_ns"),
                      ("tag_arr_ns", "version_store.coor_list.tag_arr_ns")):
        m[name] = (stats.summarize(vs.get(key) or [])["p50"], "ns")
    ws = micro.get("wire_stats_on_send_ns") or {}
    m["metrics.wire_stats_on_send_ns.1t"] = (ws.get("1t", 0.0), "ns")
    m["metrics.wire_stats_on_send_ns.3t"] = (ws.get("3t", 0.0), "ns")
    fuzz_part = raw["fuzz"]
    run_case, oracle, decisions, tag_order = [], [], [], []
    for p in TRIO:
        run_case += fuzz_part[p]["run_case_us"]
        oracle += fuzz_part[p]["oracle_us"]
        decisions += fuzz_part[p]["decisions"]
        tag_order += fuzz_part[p]["tag_order_us_per_txn"]
        m["fuzz.unexpected_violations." + p] = (float(fuzz_part[p]["unexpected"]), "count")
    # check_tag_order per fuzz case (what fuzz_cases_per_s pays), and over
    # the TCP fleets' full histories (what bounds a fleet's length: P2 is
    # O(n^2), so this one grows with the history).
    m["checker.tag_order_us_per_txn"] = (stats.summarize(tag_order)["p50"], "us")
    check_s = sum(f["tag_order_s"] for f in raw["fleets"])
    check_txns = sum(f["history_txns"] for f in raw["fleets"])
    m["checker.fleet_tag_order_us_per_txn"] = (safe_div(check_s * 1e6, check_txns), "us")
    m["fuzz.run_case_us"] = (stats.summarize(run_case)["p50"], "us")
    m["fuzz.oracle_us"] = (stats.summarize(oracle)["p50"], "us")
    m["fuzz.shrink_ms"] = (float(fuzz_part.get("shrink_ms", 0.0)), "ms")
    m["fuzz.sim_decisions_per_case"] = (stats.summarize(decisions)["mean"], "count")
    return m


def gate(raw):
    """Correctness gate.  Returns (problems, attempted, failed)."""
    problems = []
    attempted = failed = 0
    for f in raw["fleets"]:
        name = "%s%s fleet" % (f["protocol"], " traced" if f["traced"] else "")
        attempted += f["history_txns"]
        failed += f["history_incomplete"]
        if f["history_incomplete"] or f["completed"] != f["attempted"]:
            problems.append("%s: %d of %d txns never completed" % (
                name, f["history_incomplete"], f["history_txns"]))
        if not f["daemons_clean"]:
            problems.append(name + ": a snowkit_server daemon did not exit 0")
        if not f["tag_order_ok"]:
            problems.append(name + ": check_tag_order failed: " + f["tag_order_msg"])
    if not raw["setup_probes_clean"]:
        problems.append("a set-up probe fleet did not come up or exit cleanly")
    fuzz_part = raw["fuzz"]
    for p in TRIO:
        t = fuzz_part[p]
        attempted += t["cases"]
        failed += t["guard_trips"]
        if t["guard_trips"]:
            problems.append("fuzz %s: %d liveness-guard trips" % (p, t["guard_trips"]))
        if t["nondeterministic"]:
            problems.append("fuzz %s: %d violation verdicts did not repeat" % (p, t["nondeterministic"]))
        seeds = sorted(t["unexpected_seeds"])
        unknown = [s for s in seeds if s not in KNOWN_FUZZ_VIOLATIONS.get(p, ())]
        if unknown:
            problems.append("fuzz %s: violations on seeds %s" % (p, unknown))
        elif seeds:
            log("[perfbench] fuzz %s: known violations on seeds %s" % (p, seeds))
    return problems, attempted, failed


def read_host_stat():
    with open("/proc/stat") as f:
        return stats.proc_stat_cpu(f.read())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        log("unknown workload %r; choose one of %s" % (args.workload, ", ".join(WORKLOADS)))
        return 2
    if args.seconds <= 0 or args.seed < 0:
        log("--seconds must be positive and --seed non-negative")
        return 2

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        client, server = build(build_dir)
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        log("[perfbench] build failed: %s" % e)
        return 1
    work = os.path.join(build_dir, "work")
    os.makedirs(work, exist_ok=True)

    traced = args.trace == 1
    host_before = read_host_stat()
    t0 = time.monotonic()
    # The fuzz workload is one pass of the battery, interleaved with
    # read_mostly fleets timed for half of --seconds; the TCP workloads carry
    # a small slice of the battery.  Traced runs time one fleet per protocol.
    shape = "read_mostly" if args.workload == "fuzz" else args.workload
    seconds = args.seconds / 2 if args.workload == "fuzz" else args.seconds
    if traced:
        seconds = min(seconds, 3 * FLEET_WINDOW_S[shape])
    opts = {"shape": shape, "seed": args.seed, "seconds": seconds,
            "rounds": max(1, round(seconds / (3 * FLEET_WINDOW_S[shape]))),
            "fuzz-seeds": BATTERY_SEEDS if args.workload == "fuzz" else FUZZ_SLICE,
            "trace": args.trace, "server-bin": server, "work-dir": os.path.join(work, "tcp")}
    try:
        raw = run_client(client, opts, os.path.join(work, "raw.json"))
    except (RuntimeError, OSError, ValueError) as e:
        log("[perfbench] run failed: %s" % e)
        return 1
    elapsed = time.monotonic() - t0
    steal, busy = stats.host_shares(host_before, read_host_stat())
    cores = os.cpu_count() or 0
    log("[perfbench] host: %d cores, steal %.3f, busy %.3f over %.1f s" % (cores, steal, busy, elapsed))

    problems, attempted, failed = gate(raw)
    frac = stats.failed_frac(attempted, failed)
    if traced:
        layer = per_layer(raw)
        layer["host.steal_share"] = (steal, "share")
        layer["host.busy_share"] = (busy, "share")
        layer["host.cores"] = (float(cores), "count")
        layer["failed_frac"] = (frac, "share")
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in layer.items()}
        for k, v in layer.items():
            print("%-52s %14.4f %s" % (k, v[0], v[1]))
    else:
        e2e = end_to_end(raw)
        e2e["completed_frac"] = (1.0 - frac, "share", "%d failed of %d attempted" % (failed, attempted))
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items()}
        for k, v in e2e.items():
            print("%-24s %14.4f %-6s (%s)" % (k, v[0], v[1], v[2]))
    print("host: cores=%d steal_share=%.4f busy_share=%.4f" % (cores, steal, busy))
    for problem in problems:
        print("GATE FAILED: " + problem)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
