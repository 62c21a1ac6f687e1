// perfbench_client: the load generator and layer prober behind perfbench/run.py.
//
//   perfbench_client --shape read_mostly|hot_writes --seed N --seconds S
//                    --rounds R --fuzz-seeds HI --trace 0|1
//                    --server-bin PATH --work-dir DIR --out FILE
//
// Deploys the real system R times per protocol of the strict trio (algo-b,
// algo-c, adaptive): three snowkit_server daemons plus this process as the
// client on loopback TCP, driven by two closed loops over the unified
// TxnClient API (2 READ clients, 1 WRITE client, one transaction outstanding
// per loop, zero think time).  Every fleet's full history is checked with
// check_tag_order.  Between fleets it runs chunks of the fuzz battery (seeds
// [1, HI] for the trio) on SimRuntime.
//
// This program only measures: it writes raw samples (latency lists, leg
// durations, /proc snapshots, transport counters) as one JSON object to
// --out, and run.py turns them into percentiles and the metric line.  All
// probing happens from outside the library, through public calls only:
// TxnClient::submit, Runtime::set_observer, TransportStats, the audit
// pipeline, the codec, VersionStore/CoorList, FileWal, WireStats, the fuzz
// API and check_tag_order.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/capture.hpp"
#include "audit/merge.hpp"
#include "checker/tag_order.hpp"
#include "core/system.hpp"
#include "fuzz/fuzz_case.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"
#include "metrics/wire_stats.hpp"
#include "msg/codec.hpp"
#include "proto/replica.hpp"
#include "proto/version_store.hpp"
#include "runtime/fleet.hpp"
#include "workload/workload.hpp"

namespace {

using namespace snowkit;
using namespace snowkit::fuzz;
namespace fs = std::filesystem;

const std::vector<std::string> kTrio = {"algo-b", "algo-c", "adaptive"};

TimeNs mono_ns() {
  return static_cast<TimeNs>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void sleep_until_ns(TimeNs t) {
  while (true) {
    const TimeNs now = mono_ns();
    if (now >= t) return;
    std::this_thread::sleep_for(std::chrono::nanoseconds(std::min<TimeNs>(t - now, 50'000'000)));
  }
}

// --- minimal JSON output ----------------------------------------------------

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T>
std::string jarr(const std::vector<T>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    if constexpr (std::is_same_v<T, std::string>) {
      out += v[i];
    } else {
      out += jnum(static_cast<double>(v[i]));
    }
  }
  return out + "]";
}

/// Builds one JSON object; values are pre-rendered JSON text.
class JObj {
 public:
  JObj& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + jstr(k) + ":" + v;
    return *this;
  }
  JObj& num(const std::string& k, double v) { return raw(k, jnum(v)); }
  JObj& str(const std::string& k, const std::string& v) { return raw(k, jstr(v)); }
  JObj& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string transport_json(const TransportStats& s) {
  JObj o;
  o.num("frames_sent", static_cast<double>(s.frames_sent))
      .num("frames_written", static_cast<double>(s.frames_written))
      .num("bytes_sent", static_cast<double>(s.bytes_sent))
      .num("bytes_received", static_cast<double>(s.bytes_received))
      .num("send_syscalls", static_cast<double>(s.send_syscalls))
      .num("recv_syscalls", static_cast<double>(s.recv_syscalls))
      .num("mailbox_bursts", static_cast<double>(s.mailbox_bursts))
      .num("epoll_wakeups", static_cast<double>(s.total_epoll_wakeups()));
  return o.text();
}

std::vector<std::string> slices_json(const std::vector<std::vector<double>>& slices) {
  std::vector<std::string> out;
  for (const auto& v : slices) out.push_back(jarr(v));
  return out;
}

std::string read_text(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Raw /proc/<pid>/stat text (CPU ticks of the whole process) and the
/// /proc/<pid>/task/<tid>/status text of every live thread (context
/// switches are per thread); run.py parses them.
std::string proc_json(const std::string& pid) {
  std::vector<std::string> tasks;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator("/proc/" + pid + "/task", ec)) {
    tasks.push_back(jstr(read_text((e.path() / "status").string())));
  }
  JObj o;
  o.str("stat", read_text("/proc/" + pid + "/stat")).raw("task_status", jarr(tasks));
  return o.text();
}

// --- argument parsing -------------------------------------------------------

struct Args {
  std::map<std::string, std::string> kv;

  std::string get(const std::string& k, const std::string& def = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  std::string need(const std::string& k) const {
    const auto it = kv.find(k);
    if (it == kv.end()) throw std::invalid_argument("missing --" + k);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("bad argument " + k);
    }
    a.kv[k.substr(2)] = argv[++i];
  }
  return a;
}

// --- daemons ----------------------------------------------------------------

struct Daemons {
  std::vector<pid_t> pids;

  ~Daemons() { reap(0); }

  bool any_exited() {
    for (const pid_t pid : pids) {
      if (pid <= 0) continue;
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) return true;
    }
    return false;
  }

  /// Waits up to grace_ms for every daemon, SIGKILLs stragglers; true iff
  /// every daemon exited on its own with status 0.
  bool reap(int grace_ms) {
    bool clean = true;
    const TimeNs deadline = mono_ns() + static_cast<TimeNs>(grace_ms) * 1'000'000;
    for (pid_t& pid : pids) {
      if (pid <= 0) continue;
      int status = 0;
      while (true) {
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid) {
          clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
          break;
        }
        if (r < 0) {
          clean = false;
          break;
        }
        if (mono_ns() >= deadline) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, &status, 0);
          clean = false;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      pid = -1;
    }
    return clean;
  }
};

// --- workloads --------------------------------------------------------------

struct Shape {
  std::string name;
  TrafficModel traffic;
  std::size_t replicas{1};
  /// Warm-up before the timed window; adaptive gets its own (mode flips
  /// settle over several EWMA time constants).
  TimeNs warmup_ns{0};
  TimeNs adaptive_warmup_ns{0};
};

Shape shape_for(const std::string& workload) {
  Shape s;
  s.name = workload;
  s.traffic.read_span = SpanDist{SpanKind::kGeometric, 1, 4, 0.5};
  s.traffic.write_span = SpanDist::fixed(2);
  if (workload == "read_mostly") {
    s.traffic.read_fraction = 0.95;
    s.warmup_ns = 300'000'000;
    s.adaptive_warmup_ns = 300'000'000;
  } else if (workload == "hot_writes") {
    s.traffic.read_fraction = 0.5;
    s.traffic.zipf_theta = 0.99;
    s.traffic.permute_ranks = true;
    s.replicas = 2;
    s.warmup_ns = 500'000'000;
    s.adaptive_warmup_ns = 6'000'000'000;  // 3 x the adaptive EWMA tau (2 s)
  } else {
    throw std::invalid_argument("unknown shape " + workload);
  }
  return s;
}

constexpr std::size_t kObjects = 64;
/// Equal slices of each fleet's timed window.  run.py takes every P.* figure
/// per slice and reports the median over a protocol's slices, so host noise
/// that covers only part of a fleet's window moves only some of them.
constexpr std::size_t kSlices = 2;
/// Set-up-only fleets per run, beside the timed ones, for setup_s.
constexpr std::size_t kSetupProbes = 9;

/// A fleet that did not come up: a daemon could not bind its port, or the
/// client could not reach it in time.  Nothing was submitted to it yet.
struct FleetDown : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Runs `deploy` (which writes a fleet file on freshly picked ports) and, if
/// that fleet does not come up, once more.  pick_free_ports only probes the
/// ports, so another process can take one before a daemon binds it.
template <typename Fn>
auto with_port_retry(const std::string& what, Fn&& deploy) {
  try {
    return deploy();
  } catch (const FleetDown& e) {
    std::fprintf(stderr, "[perfbench] %s: %s; retrying with fresh ports\n", what.c_str(),
                 e.what());
  }
  return deploy();
}

// --- benchmark observer (traced fleets only) ---------------------------------

/// Stamps each txn's first client send and every client delivery, counts the
/// client's messages per txn, records versions per READ response, and keeps
/// copies of messages (up to a cap per payload) for the codec timings.
class BenchObserver final : public MessageObserver {
 public:
  struct Stamp {
    TimeNs first_send{0};
    std::vector<TimeNs> replies;  ///< delivery times; some may follow the callback.
    std::uint32_t sent{0};
    std::uint32_t received{0};
  };

  BenchObserver(NodeId client_lo, NodeId client_hi) : lo_(client_lo), hi_(client_hi) {}

  void on_send(NodeId from, NodeId, const Message& m, std::size_t) override {
    if (from < lo_ || from >= hi_) return;
    const TimeNs now = mono_ns();
    std::lock_guard<std::mutex> lock(mu_);
    Stamp& s = stamps[m.txn];
    if (s.first_send == 0) s.first_send = now;
    ++s.sent;
    keep(m);
  }

  void on_deliver(NodeId, NodeId to, const Message& m) override {
    if (to < lo_ || to >= hi_) return;
    const TimeNs now = mono_ns();
    std::lock_guard<std::mutex> lock(mu_);
    Stamp& s = stamps[m.txn];
    s.replies.push_back(now);
    ++s.received;
    if (is_read_response(m.payload)) versions.push_back(version_count(m.payload));
    keep(m);
  }

  std::unordered_map<TxnId, Stamp> stamps;
  std::vector<int> versions;
  std::map<std::string, std::vector<Message>> copies;

 private:
  void keep(const Message& m) {
    auto& v = copies[payload_name(m.payload)];
    if (v.size() < 64) v.push_back(m);
  }

  NodeId lo_, hi_;
  std::mutex mu_;
};

// --- one fleet --------------------------------------------------------------

struct Sample {
  TimeNs submit{0};
  TimeNs done{0};
  TxnId txn{kInvalidTxn};
  bool is_read{false};
};

struct Loop {
  std::size_t index{0};
  TrafficShard shard;
  std::mutex mu;
  std::vector<Sample> samples;
  std::uint64_t next_value{0};

  Loop(std::size_t i, const TrafficModel& model, std::uint64_t seed)
      : index(i), shard(kObjects, model, seed, i, i + 1) {}
};

struct FleetResult {
  std::string protocol;
  bool traced{false};
  TimeNs setup_ns{0};
  TimeNs window_ns{0};
  std::string host_stat_w0, host_stat_w1;  ///< /proc/stat at the window's ends.
  /// Timed-window latencies, by the slice of the window the txn was submitted in.
  std::vector<std::vector<double>> read_us{kSlices}, write_us{kSlices};
  std::uint64_t attempted{0};  ///< txns submitted in the window.
  std::uint64_t completed{0};
  std::uint64_t history_txns{0};
  std::uint64_t history_incomplete{0};
  bool daemons_clean{false};
  bool daemon_died{false};
  History history;
  std::string json_extra;  ///< transport, /proc, traced layers.
  std::vector<Message> codec_samples;
  std::vector<std::vector<std::uint8_t>> wal_frames;
};

/// Empties `dir` and writes a fleet file there on fresh loopback ports: 64
/// objects on 3 shards, 2 readers, 1 writer.  Returns the parsed config.
FleetConfig write_fleet_file(const std::string& protocol, const Shape& shape,
                             const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<std::uint16_t> ports = net::pick_free_ports(4);
  std::ostringstream f;
  f << "protocol " << protocol << "\n"
    << "objects " << kObjects << "\n"
    << "readers 2\nwriters 1\nshards 3\n";
  if (shape.replicas > 1) f << "replicas " << shape.replicas << "\n";
  for (std::size_t i = 0; i < 3; ++i) f << "server 127.0.0.1 " << ports[i] << "\n";
  f << "client 127.0.0.1 " << ports[3] << "\n";
  std::ofstream(dir / "fleet.cfg") << f.str();
  return parse_fleet_text(f.str());
}

/// Spawns the daemons for `fleet_path`; each gets its own stats file, and
/// optionally a WAL dir and an audit dir.
void spawn(Daemons& d, const std::string& server_bin, const fs::path& dir, bool wal,
           bool audit) {
  const std::string fleet_path = (dir / "fleet.cfg").string();
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<std::string> argv_s = {server_bin,     "--config",
                                       fleet_path,     "--index",
                                       std::to_string(i), "--quiet",
                                       "--stats-json", (dir / ("stats." + std::to_string(i) + ".json")).string()};
    if (wal) {
      argv_s.push_back("--wal-dir");
      argv_s.push_back((dir / ("wal." + std::to_string(i))).string());
    }
    if (audit) {
      argv_s.push_back("--audit-dir");
      argv_s.push_back((dir / "audit").string());
    }
    std::vector<char*> argv;
    for (auto& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      std::perror("execv snowkit_server");
      ::_exit(127);
    }
    d.pids.push_back(pid);
  }
}

/// Leg name -> durations in microseconds.
using Legs = std::map<std::string, std::vector<double>>;

/// Pairs the merged audit trace into legs: transit by direction, ReplAppend
/// server-to-server transit, and server handle time by request class.
Legs legs_from_audit(const audit::MergedAudit& m, NodeId client_lo, NodeId client_hi,
                     const History& h) {
  Legs out;
  std::unordered_map<TxnId, bool> is_read;
  for (const auto& t : h.txns) is_read[t.id] = t.is_read;
  // Every leg also lands under "read." when it belongs to a READ txn: the
  // READ reconciliation sums only those.
  const auto add = [&](const std::string& leg, TxnId txn, double d) {
    out[leg].push_back(d);
    const auto it = is_read.find(txn);
    if (it != is_read.end() && it->second) out["read." + leg].push_back(d);
  };
  const auto& acts = m.trace.actions();
  const auto is_client = [&](NodeId n) { return n >= client_lo && n < client_hi; };
  std::unordered_map<std::uint64_t, std::size_t> send_of;
  for (std::size_t i = 0; i < acts.size(); ++i) {
    if (acts[i].kind == ActionKind::Send) send_of[acts[i].msg_seq] = i;
  }
  struct Pending {
    TimeNs t;
    bool read;
  };
  std::map<std::tuple<NodeId, NodeId, TxnId>, Pending> pending;  // (server, client, txn)
  for (std::size_t i = 0; i < acts.size(); ++i) {
    const Action& a = acts[i];
    if (a.kind == ActionKind::Recv) {
      const auto it = send_of.find(a.msg_seq);
      if (it != send_of.end()) {
        const Action& s = acts[it->second];
        const double d = (static_cast<double>(a.time) - static_cast<double>(s.time)) / 1e3;
        const bool from_client = is_client(s.node), to_client = is_client(a.node);
        if (from_client && !to_client) {
          add("request_transit", a.txn, d);
        } else if (!from_client && to_client) {
          add("reply_transit", a.txn, d);
        } else if (!from_client && !to_client && a.msg == "repl-append") {
          add("server_to_server", a.txn, d);
        }
      }
      if (!is_client(a.node) && is_client(a.peer)) {
        const bool read = a.msg == "get-tag-arr" || a.msg.rfind("read-", 0) == 0;
        pending[{a.node, a.peer, a.txn}] = Pending{a.time, read};
      }
    } else if (a.kind == ActionKind::Send && !is_client(a.node) && is_client(a.peer)) {
      const auto it = pending.find({a.node, a.peer, a.txn});
      if (it == pending.end()) continue;
      const double d = (static_cast<double>(a.time) - static_cast<double>(it->second.t)) / 1e3;
      add(it->second.read ? "server_handle.read" : "server_handle.write", a.txn, d);
      pending.erase(it);
    }
  }
  return out;
}

/// Frames of every WAL file under `dir` (magic stripped), as appended.
std::vector<std::vector<std::uint8_t>> wal_frames_under(const fs::path& dir) {
  std::vector<std::vector<std::uint8_t>> frames;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (!e.is_regular_file() || e.path().extension() != ".wal") continue;
    std::ifstream f(e.path(), std::ios::binary);
    const std::vector<std::uint8_t> b((std::istreambuf_iterator<char>(f)),
                                      std::istreambuf_iterator<char>());
    std::size_t off = kWalMagicLen;
    while (off + 4 <= b.size()) {
      const std::uint32_t len = static_cast<std::uint32_t>(b[off]) |
                                static_cast<std::uint32_t>(b[off + 1]) << 8 |
                                static_cast<std::uint32_t>(b[off + 2]) << 16 |
                                static_cast<std::uint32_t>(b[off + 3]) << 24;
      const std::size_t total = 4 + static_cast<std::size_t>(len) + 8;
      if (off + total > b.size()) break;
      frames.emplace_back(b.begin() + static_cast<std::ptrdiff_t>(off),
                          b.begin() + static_cast<std::ptrdiff_t>(off + total));
      off += total;
    }
  }
  return frames;
}

/// Starts the client runtime (the highest-index process: it dials every
/// daemon and listens on nothing) and waits for every link; FleetDown if the
/// fleet does not come up within 15 s.
void start_fleet(NetRuntime& rt, const std::string& protocol) {
  rt.start();
  if (!rt.wait_connected_for(15'000'000'000ull)) {
    rt.stop();
    throw FleetDown(protocol + ": fleet did not come up within 15 s");
  }
}

FleetResult run_fleet(const std::string& protocol, const Shape& shape, std::uint64_t seed,
                      TimeNs window_ns, bool traced, bool wal, const std::string& server_bin,
                      const fs::path& dir) {
  FleetResult r;
  r.protocol = protocol;
  r.traced = traced;
  const FleetConfig fleet = write_fleet_file(protocol, shape, dir);
  const NodeId client_lo = static_cast<NodeId>(fleet.system.server_count());
  const NodeId client_hi = client_lo + 3;  // 2 readers + 1 writer

  const std::string self_before = proc_json("self");
  const TimeNs t0 = mono_ns();
  Daemons daemons;
  spawn(daemons, server_bin, dir, wal, traced);

  NetRuntime rt(fleet.net_options(fleet.client_index()));
  BenchObserver bench_obs(client_lo, client_hi);
  std::unique_ptr<audit::AuditCapture> capture;
  if (traced) {
    audit::CaptureOptions copts;
    copts.dir = (dir / "audit").string();
    copts.process_index = static_cast<std::uint32_t>(fleet.client_index());
    copts.protocol = fleet.protocol;
    copts.num_servers = static_cast<std::uint32_t>(fleet.system.server_count());
    copts.fleet_text = fleet_text(fleet);
    copts.ring_capacity = 1 << 18;
    capture = std::make_unique<audit::AuditCapture>(copts, &bench_obs);
    rt.set_observer(capture.get());
  }
  HistoryRecorder rec(fleet.system.num_objects);
  auto sys = build_protocol(fleet.protocol, rt, rec, fleet.system, fleet.options);
  start_fleet(rt, protocol);
  r.setup_ns = mono_ns() - t0;

  // Two closed loops: loop i submits through unified client i, whose READs go
  // to reader i and whose WRITEs go to the one writer.
  std::vector<std::unique_ptr<Loop>> loops;
  for (std::size_t i = 0; i < 2; ++i) {
    loops.push_back(std::make_unique<Loop>(i, shape.traffic, seed * 1'000'003ull + i * 7919 + 1));
  }
  std::atomic<bool> stop{false};
  std::atomic<int> running{0};
  std::function<void(Loop&)> submit_next = [&](Loop& l) {
    if (stop.load(std::memory_order_acquire)) {
      running.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    TrafficArrival a = l.shard.next();
    TxnRequest req;
    if (a.is_read) {
      req = read_txn(std::move(a.objects));
    } else {
      std::vector<std::pair<ObjectId, Value>> w;
      for (const ObjectId o : a.objects) {
        w.emplace_back(o, static_cast<Value>((l.index + 1) * 1'000'000'000'000ull + ++l.next_value));
      }
      req = write_txn(std::move(w));
    }
    std::size_t idx;
    {
      std::lock_guard<std::mutex> lock(l.mu);
      idx = l.samples.size();
      l.samples.push_back(Sample{mono_ns(), 0, kInvalidTxn, a.is_read});
    }
    sys->client(l.index).submit(std::move(req), [&l, idx, &submit_next](const TxnResult& res) {
      const TimeNs done = mono_ns();
      {
        std::lock_guard<std::mutex> lock(l.mu);
        l.samples[idx].done = done;
        l.samples[idx].txn = res.txn;
      }
      submit_next(l);
    });
  };
  const TimeNs run_start = mono_ns();
  running.store(static_cast<int>(loops.size()));
  for (auto& l : loops) submit_next(*l);

  const TimeNs warmup = protocol == "adaptive" ? shape.adaptive_warmup_ns : shape.warmup_ns;
  sleep_until_ns(run_start + warmup);
  r.host_stat_w0 = read_text("/proc/stat");
  const TimeNs w0 = mono_ns();
  sleep_until_ns(w0 + window_ns);
  const TimeNs w1 = mono_ns();
  r.host_stat_w1 = read_text("/proc/stat");
  stop.store(true, std::memory_order_release);
  r.window_ns = w1 - w0;
  const TimeNs drain_deadline = mono_ns() + 10'000'000'000ull;
  while (running.load(std::memory_order_acquire) > 0 && mono_ns() < drain_deadline) {
    if (daemons.any_exited()) {
      r.daemon_died = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  std::vector<std::string> daemon_proc;
  for (const pid_t pid : daemons.pids) daemon_proc.push_back(proc_json(std::to_string(pid)));
  const std::string self_after = proc_json("self");
  const TransportStats client_stats = rt.transport_stats();

  rt.broadcast_shutdown();
  rt.stop();
  r.daemons_clean = daemons.reap(10'000) && !r.daemon_died;

  for (auto& l : loops) {
    std::lock_guard<std::mutex> lock(l->mu);
    for (const Sample& s : l->samples) {
      if (s.submit < w0 || s.submit >= w1) continue;
      ++r.attempted;
      if (s.done == 0) continue;
      ++r.completed;
      const double us = static_cast<double>(s.done - s.submit) / 1e3;
      const auto slice = static_cast<std::size_t>((s.submit - w0) * kSlices / r.window_ns);
      (s.is_read ? r.read_us : r.write_us)[slice].push_back(us);
    }
  }
  r.history = rec.snapshot();
  r.history_txns = r.history.txns.size();
  for (const auto& t : r.history.txns) r.history_incomplete += t.complete ? 0 : 1;

  std::vector<std::string> server_stats;
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string s = read_text((dir / ("stats." + std::to_string(i) + ".json")).string());
    server_stats.push_back(s.empty() ? "null" : s);
  }
  JObj extra;
  extra.raw("client_transport", transport_json(client_stats))
      .raw("server_transport", jarr(server_stats))
      .raw("proc_self_before", self_before)
      .raw("proc_self_after", self_after)
      .raw("proc_daemons", jarr(daemon_proc));

  if (traced) {
    capture->set_history(r.history);
    capture->close();
    std::vector<std::string> chunks;
    for (const auto& e : fs::directory_iterator(dir / "audit")) {
      if (e.path().extension() == ".auditchunk") chunks.push_back(e.path().string());
    }
    std::sort(chunks.begin(), chunks.end());
    const audit::MergedAudit merged = audit::load_inputs(chunks);
    const Legs legs = legs_from_audit(merged, client_lo, client_hi, r.history);
    JObj lo;
    for (const auto& [k, v] : legs) lo.raw(k, jarr(v));

    // Client-side spans per READ / WRITE, from the observer's stamps.
    std::vector<double> queue_us, self_us;
    std::vector<double> msgs_read, msgs_write;
    for (auto& l : loops) {
      for (const Sample& s : l->samples) {
        if (s.done == 0) continue;
        const auto it = bench_obs.stamps.find(s.txn);
        if (it == bench_obs.stamps.end() || it->second.first_send == 0) continue;
        const auto& st = it->second;
        const double msgs = st.sent + st.received;
        (s.is_read ? msgs_read : msgs_write).push_back(msgs);
        if (!s.is_read) continue;
        queue_us.push_back((static_cast<double>(st.first_send) - static_cast<double>(s.submit)) / 1e3);
        // The reply that completed the READ is the last one delivered
        // before the callback ran.
        TimeNs last = 0;
        for (const TimeNs t : st.replies) {
          if (t <= s.done) last = std::max(last, t);
        }
        if (last != 0) {
          self_us.push_back((static_cast<double>(s.done) - static_cast<double>(last)) / 1e3);
        }
      }
    }
    std::vector<double> rounds;
    for (const auto& t : r.history.txns) {
      if (t.complete && t.is_read) rounds.push_back(t.rounds);
    }
    lo.raw("client_queue", jarr(queue_us))
        .raw("client_self", jarr(self_us))
        .raw("msgs_per_read", jarr(msgs_read))
        .raw("msgs_per_write", jarr(msgs_write))
        .raw("rounds_per_read", jarr(rounds))
        .raw("versions_per_read_resp", jarr(bench_obs.versions));
    extra.raw("traced", lo.text());
    for (const auto& [name, msgs] : bench_obs.copies) {
      r.codec_samples.insert(r.codec_samples.end(), msgs.begin(), msgs.end());
    }
  }
  if (wal) r.wal_frames = wal_frames_under(dir);
  r.json_extra = extra.text();
  fs::remove_all(dir);
  return r;
}

/// Spawn -> connected -> protocol built -> shut down, nothing else.
TimeNs setup_probe(const std::string& protocol, const Shape& shape, bool wal,
                   const std::string& server_bin, const fs::path& dir, bool* clean) {
  const FleetConfig fleet = write_fleet_file(protocol, shape, dir);
  const TimeNs t0 = mono_ns();
  Daemons daemons;
  spawn(daemons, server_bin, dir, wal, false);
  NetRuntime rt(fleet.net_options(fleet.client_index()));
  HistoryRecorder rec(fleet.system.num_objects);
  auto sys = build_protocol(fleet.protocol, rt, rec, fleet.system, fleet.options);
  start_fleet(rt, protocol);
  const TimeNs dt = mono_ns() - t0;
  rt.broadcast_shutdown();
  rt.stop();
  *clean = daemons.reap(10'000);
  fs::remove_all(dir);
  return dt;
}

// --- layer micro-timings ----------------------------------------------------

std::string payload_class(const Message& m) {
  const std::string name = payload_name(m.payload);
  if (name.rfind("repl-", 0) == 0) return "repl";
  if (is_read_request(m.payload)) return "read_req";
  if (is_read_response(m.payload)) return "read_resp";
  return "write";
}

/// ns per call of encode_message_into / decode_message / encoded_size, per
/// payload class, over messages copied from the traced fleets.
std::string codec_timings(const std::vector<Message>& msgs) {
  std::map<std::string, std::vector<const Message*>> by_class;
  for (const Message& m : msgs) by_class[payload_class(m)].push_back(&m);
  JObj o;
  constexpr int kReps = 200;
  for (const auto& [cls, list] : by_class) {
    std::vector<std::vector<std::uint8_t>> encoded;
    for (const Message* m : list) encoded.push_back(encode_message(*m));
    std::vector<std::uint8_t> buf;
    std::size_t sink = 0;
    const double calls = static_cast<double>(kReps) * static_cast<double>(list.size());
    TimeNs t = mono_ns();
    for (int r = 0; r < kReps; ++r) {
      for (const Message* m : list) {
        buf.clear();
        encode_message_into(*m, buf);
        sink += buf.size();
      }
    }
    const double enc = static_cast<double>(mono_ns() - t) / calls;
    t = mono_ns();
    for (int r = 0; r < kReps; ++r) {
      for (const auto& b : encoded) sink += decode_message(b).txn;
    }
    const double dec = static_cast<double>(mono_ns() - t) / calls;
    t = mono_ns();
    for (int r = 0; r < kReps; ++r) {
      for (const Message* m : list) sink += encoded_size(*m);
    }
    const double size = static_cast<double>(mono_ns() - t) / calls;
    if (sink == 42) std::fputs("", stderr);  // keeps the loops observable
    o.raw(cls, JObj().num("encode_ns", enc).num("decode_ns", dec).num("encoded_size_ns", size).text());
  }
  return o.text();
}

/// Replays a fleet history's op stream into standalone VersionStores and a
/// CoorList the way a coordinator shard serves it, timing each call.
std::string version_store_timings(const History& h) {
  std::vector<const TxnRecord*> order;
  for (const auto& t : h.txns) order.push_back(&t);
  std::sort(order.begin(), order.end(), [](const TxnRecord* a, const TxnRecord* b) {
    return a->invoke_order < b->invoke_order;
  });
  std::map<ObjectId, VersionStore> stores;
  CoorList list(h.num_objects);
  std::vector<double> insert_ns, get_ns, prune_ns, push_ns, tag_arr_ns;
  std::map<NodeId, std::uint64_t> seq;
  const auto timed = [](std::vector<double>& out, auto&& fn) {
    const TimeNs t = mono_ns();
    fn();
    out.push_back(static_cast<double>(mono_ns() - t));
  };
  for (const TxnRecord* t : order) {
    if (!t->is_read) {
      const WriteKey key{++seq[t->client], t->client};
      std::vector<std::uint8_t> mask(h.num_objects, 0);
      for (const auto& [obj, v] : t->writes) {
        mask[obj] = 1;
        timed(insert_ns, [&] { stores[obj].insert(key, v); });
      }
      Tag pos = 0;
      timed(push_ns, [&] { pos = list.push(key, mask); });
      list.finalize(pos);
      for (const auto& [obj, v] : t->writes) {
        (void)v;
        stores[obj].finalize(key, pos);
      }
    } else {
      std::vector<WriteKey> latest;
      timed(tag_arr_ns, [&] {
        list.register_reader(t->client, t->id);
        for (const auto& [obj, v] : t->reads) {
          (void)v;
          latest.push_back(list.latest(obj));
        }
      });
      std::size_t i = 0;
      for (const auto& [obj, v] : t->reads) {
        (void)v;
        const WriteKey k = latest[i++];
        auto it = stores.find(obj);
        if (it == stores.end()) continue;
        timed(get_ns, [&] { (void)it->second.try_get(k); });
      }
      list.reader_done(t->client, t->id);
      const Tag w = list.watermark();
      for (const auto& [obj, v] : t->reads) {
        (void)v;
        auto it = stores.find(obj);
        if (it != stores.end()) timed(prune_ns, [&] { it->second.advance_watermark(w); });
      }
    }
  }
  JObj o;
  o.raw("insert_ns", jarr(insert_ns))
      .raw("get_ns", jarr(get_ns))
      .raw("prune_ns", jarr(prune_ns))
      .raw("push_ns", jarr(push_ns))
      .raw("tag_arr_ns", jarr(tag_arr_ns));
  return o.text();
}

/// FileWal::append (write + fdatasync) of the frames the daemons' WALs hold.
std::vector<double> wal_append_timings(const std::vector<std::vector<std::uint8_t>>& frames,
                                       const fs::path& dir) {
  std::vector<double> us;
  if (frames.empty()) return us;
  fs::create_directories(dir);
  const std::size_t n = std::min<std::size_t>(frames.size(), 400);
  {
    FileWal wal((dir / "probe.wal").string());
    for (std::size_t i = 0; i < n; ++i) {
      const auto& f = frames[i * frames.size() / n];
      const TimeNs t = mono_ns();
      wal.append(f);
      us.push_back(static_cast<double>(mono_ns() - t) / 1e3);
    }
  }
  fs::remove_all(dir);
  return us;
}

/// WireStats::on_send cost with 1 and with 3 concurrent sending threads.
std::string wire_stats_timings(const Message& m) {
  JObj o;
  constexpr int kCalls = 200'000;
  for (const int threads : {1, 3}) {
    WireStats ws;
    std::vector<double> per_thread(threads);
    std::vector<std::thread> pool;
    std::atomic<int> ready{0};
    for (int i = 0; i < threads; ++i) {
      pool.emplace_back([&, i] {
        ready.fetch_add(1);
        while (ready.load() < threads) {
        }
        const TimeNs t = mono_ns();
        for (int c = 0; c < kCalls; ++c) ws.on_send(0, 1, m, 64);
        per_thread[i] = static_cast<double>(mono_ns() - t) / kCalls;
      });
    }
    for (auto& th : pool) th.join();
    std::sort(per_thread.begin(), per_thread.end());
    o.num(std::to_string(threads) + "t", per_thread[per_thread.size() / 2]);
  }
  return o.text();
}

// --- fuzz -------------------------------------------------------------------

struct FuzzTally {
  std::uint64_t cases{0};
  std::uint64_t guard_trips{0};
  std::uint64_t unexpected{0};
  std::uint64_t nondeterministic{0};
  double cpu_s{0};
  std::vector<double> run_case_us, oracle_us, decisions, tag_order_us_per_txn;
  std::vector<std::uint64_t> unexpected_seeds;
};

GenParams fuzz_params(const std::string& protocol) {
  GenParams p;
  p.max_ops_per_client = 10;  // the default (non --quick) battery
  p.single_reader = !ProtocolRegistry::global().traits(protocol).mwmr;
  return p;
}

/// One case of the battery: which protocol, which seed.
struct FuzzItem {
  std::size_t protocol{0};
  std::uint64_t seed{0};
};

/// Runs cases in the given order, tallying per protocol and recording the
/// seeds of unexpected violations.  Every violating case is run a second
/// time: its verdict must repeat exactly.
void fuzz_cases(const std::vector<FuzzItem>& cases, bool traced, std::vector<FuzzTally>& tally) {
  const OracleOptions oracle;
  for (const auto& [p, seed] : cases) {
    const std::string& name = kTrio[p];
    FuzzTally& t = tally[p];
    const double c0 = process_cpu_s();
    const TimeNs w0 = mono_ns();
    const FuzzCase c = generate_case(name, fuzz_params(name), seed);
    const CaseRun run = fuzz::run_case(c);
    const TimeNs w1 = mono_ns();
    const OracleReport report = check_run(name, run, oracle);
    const TimeNs w2 = mono_ns();
    t.cpu_s += process_cpu_s() - c0;
    ++t.cases;
    if (run.stats.guard_tripped || !run.completed) ++t.guard_trips;
    if (traced) {
      t.run_case_us.push_back(static_cast<double>(w1 - w0) / 1e3);
      t.oracle_us.push_back(static_cast<double>(w2 - w1) / 1e3);
      t.decisions.push_back(static_cast<double>(run.stats.decisions));
      if (!run.history.txns.empty() && run.completed) {
        const TimeNs a = mono_ns();
        (void)check_tag_order(run.history);
        t.tag_order_us_per_txn.push_back(static_cast<double>(mono_ns() - a) / 1e3 /
                                         static_cast<double>(run.history.txns.size()));
      }
    }
    if (report.violation && !report.expected) {
      ++t.unexpected;
      t.unexpected_seeds.push_back(seed);
      std::fprintf(stderr, "[perfbench] fuzz %s seed %llu: UNEXPECTED %s: %s\n", name.c_str(),
                   static_cast<unsigned long long>(seed), report.checker.c_str(),
                   report.explanation.c_str());
    }
    if (report.violation) {
      const OracleReport again = check_run(name, fuzz::run_case(c), oracle);
      if (!again.violation || again.checker != report.checker) ++t.nondeterministic;
    }
  }
}

std::string fuzz_json(const std::vector<FuzzTally>& tally, double shrink_ms) {
  JObj o;
  for (std::size_t p = 0; p < kTrio.size(); ++p) {
    const FuzzTally& t = tally[p];
    JObj e;
    e.num("cases", static_cast<double>(t.cases))
        .num("guard_trips", static_cast<double>(t.guard_trips))
        .num("unexpected", static_cast<double>(t.unexpected))
        .num("nondeterministic", static_cast<double>(t.nondeterministic))
        .num("cpu_s", t.cpu_s)
        .raw("unexpected_seeds", jarr(t.unexpected_seeds))
        .raw("run_case_us", jarr(t.run_case_us))
        .raw("oracle_us", jarr(t.oracle_us))
        .raw("decisions", jarr(t.decisions))
        .raw("tag_order_us_per_txn", jarr(t.tag_order_us_per_txn));
    o.raw(kTrio[p], e.text());
  }
  o.num("shrink_ms", shrink_ms);
  return o.text();
}

/// Shrinks the first unexpected violation found (the fuzz tool's repro path).
double time_shrink(const std::vector<FuzzTally>& tally) {
  for (std::size_t p = 0; p < kTrio.size(); ++p) {
    if (tally[p].unexpected_seeds.empty()) continue;
    const std::string& name = kTrio[p];
    const FuzzCase c = generate_case(name, fuzz_params(name), tally[p].unexpected_seeds.front());
    const OracleReport report = check_run(name, fuzz::run_case(c));
    ShrinkOptions opts;
    opts.max_runs = 500;  // the fuzz tool's setting for the default battery
    const TimeNs t = mono_ns();
    (void)shrink_case(c, report.checker, OracleOptions{}, opts);
    return static_cast<double>(mono_ns() - t) / 1e6;
  }
  return 0;
}

/// Battery seeds [1, hi] for every protocol of the trio, in a seeded order.
std::vector<FuzzItem> battery(std::uint64_t hi, std::uint64_t seed) {
  std::vector<FuzzItem> all;
  for (std::size_t p = 0; p < kTrio.size(); ++p) {
    for (std::uint64_t s = 1; s <= hi; ++s) all.push_back(FuzzItem{p, s});
  }
  std::mt19937_64 rng(seed * 131);
  std::shuffle(all.begin(), all.end(), rng);
  return all;
}

// --- tcp mode ---------------------------------------------------------------

int run(const Args& a) {
  const Shape shape = shape_for(a.need("shape"));
  const std::uint64_t seed = std::stoull(a.need("seed"));
  const double seconds = std::stod(a.need("seconds"));
  const bool traced = a.get("trace", "0") == "1";
  const std::string server_bin = a.need("server-bin");
  const fs::path work = a.need("work-dir");
  // Replicated fleets keep their logs in memory unless the run is traced.
  // fdatasync latency on a shared VM's disk drifts 2-3x for minutes at a
  // time, which no run length averages out; the traced run turns the
  // daemons' --wal-dir on so the durable WAL path is still measured.
  const bool wal = shape.replicas > 1 && traced;
  // Fleets per protocol; the timed window is split evenly over them.
  const std::size_t rounds = std::stoul(a.get("rounds", "1"));
  const std::vector<FuzzItem> cases = battery(std::stoull(a.need("fuzz-seeds")), seed);

  const TimeNs window_ns = static_cast<TimeNs>(
      seconds * 1e9 / static_cast<double>(kTrio.size() * rounds));
  std::vector<FleetResult> fleets;
  std::vector<double> setup_probe_ns;
  bool probes_clean = true;
  // After each fleet, its share of the fuzz cases.  All fleets are down by
  // then, and spreading the CPU-bound cases over the whole run averages out
  // drift in the host's speed.
  std::vector<FuzzTally> tally(kTrio.size());
  const std::size_t chunks = rounds * kTrio.size() * (traced ? 2 : 1);
  std::size_t cases_done = 0;
  const auto fuzz_chunk = [&] {
    const std::size_t end = cases.size() * fleets.size() / chunks;
    fuzz_cases({cases.begin() + static_cast<std::ptrdiff_t>(cases_done),
                cases.begin() + static_cast<std::ptrdiff_t>(end)},
               traced, tally);
    cases_done = end;
  };
  const auto fleet = [&](const std::string& p, std::uint64_t fleet_seed, bool traced_fleet) {
    return with_port_retry(p + " fleet", [&] {
      return run_fleet(p, shape, fleet_seed, window_ns, traced_fleet, wal, server_bin,
                       work / "fleet");
    });
  };
  // Protocol order rotates each round so no protocol always runs first.
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t k = 0; k < kTrio.size(); ++k) {
      const std::string& p = kTrio[(k + round + seed) % kTrio.size()];
      const std::uint64_t fleet_seed = seed * 64 + round * 8 + k;
      if (traced) {
        // Untraced twin first: the trace overhead and the runtime counters
        // come from it, the layer spans from the traced fleet.
        fleets.push_back(fleet(p, fleet_seed, false));
        fuzz_chunk();
      }
      fleets.push_back(fleet(p, fleet_seed, traced));
      fuzz_chunk();
    }
  }
  for (std::size_t i = 0; i < kSetupProbes; ++i) {
    const std::string& p = kTrio[i % kTrio.size()];
    bool clean = false;
    setup_probe_ns.push_back(static_cast<double>(with_port_retry(p + " set-up probe", [&] {
      return setup_probe(p, shape, wal, server_bin, work / "probe", &clean);
    })));
    probes_clean = probes_clean && clean;
  }

  // Correctness gate: check_tag_order on every fleet's full history, run
  // after all timing on up to 4 threads, largest history first.
  std::vector<TagOrderResult> verdicts(fleets.size());
  std::vector<double> check_s(fleets.size());
  std::vector<std::size_t> order(fleets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return fleets[x].history_txns > fleets[y].history_txns;
  });
  std::atomic<std::size_t> next_check{0};
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < std::clamp(std::thread::hardware_concurrency(), 1u, 4u); ++w) {
    pool.emplace_back([&] {
      for (std::size_t k; (k = next_check.fetch_add(1)) < order.size();) {
        const std::size_t i = order[k];
        const TimeNs t = mono_ns();
        verdicts[i] = check_tag_order(fleets[i].history);
        check_s[i] = static_cast<double>(mono_ns() - t) / 1e9;
      }
    });
  }
  for (auto& th : pool) th.join();


  std::vector<std::string> fleet_json;
  std::vector<Message> codec_samples;
  const History* replay_history = nullptr;
  std::vector<std::vector<std::uint8_t>> wal_frames;
  for (std::size_t i = 0; i < fleets.size(); ++i) {
    const FleetResult& f = fleets[i];
    JObj o;
    o.str("protocol", f.protocol)
        .boolean("traced", f.traced)
        .num("setup_ns", static_cast<double>(f.setup_ns))
        .num("window_ns", static_cast<double>(f.window_ns))
        .str("host_stat_w0", f.host_stat_w0)
        .str("host_stat_w1", f.host_stat_w1)
        .raw("read_us", jarr(slices_json(f.read_us)))
        .raw("write_us", jarr(slices_json(f.write_us)))
        .num("attempted", static_cast<double>(f.attempted))
        .num("completed", static_cast<double>(f.completed))
        .num("history_txns", static_cast<double>(f.history_txns))
        .num("history_incomplete", static_cast<double>(f.history_incomplete))
        .boolean("daemons_clean", f.daemons_clean)
        .boolean("tag_order_ok", verdicts[i].ok)
        .str("tag_order_msg", verdicts[i].explanation)
        .num("tag_order_s", check_s[i])
        .raw("extra", f.json_extra);
    fleet_json.push_back(o.text());
    if (f.traced) {
      codec_samples.insert(codec_samples.end(), f.codec_samples.begin(), f.codec_samples.end());
      if (replay_history == nullptr || f.history_txns > replay_history->txns.size()) {
        replay_history = &f.history;
      }
      if (wal_frames.empty()) wal_frames = f.wal_frames;
    }
  }

  JObj o;
  o.str("workload", shape.name)
      .raw("fleets", jarr(fleet_json))
      .raw("setup_probe_ns", jarr(setup_probe_ns))
      .boolean("setup_probes_clean", probes_clean)
      .raw("fuzz", fuzz_json(tally, traced ? time_shrink(tally) : 0));
  if (traced) {
    JObj micro;
    micro.raw("codec", codec_timings(codec_samples))
        .raw("version_store", replay_history ? version_store_timings(*replay_history) : "null")
        .raw("wal_append_us", jarr(wal_append_timings(wal_frames, work / "walprobe")))
        .raw("wire_stats_on_send_ns",
             codec_samples.empty() ? "null" : wire_stats_timings(codec_samples.front()));
    o.raw("micro", micro.text());
  }
  std::ofstream(a.need("out")) << o.text() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_client: %s\n", e.what());
  }
  return 1;
}
