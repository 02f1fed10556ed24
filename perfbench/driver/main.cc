// perfbench_driver: one benchmark run of one workload.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --server PATH/shieldstore_server --work-dir DIR
//                    [--kill-daemon-after-ms MS]
//
// Untraced part (always): three times, spawns a fresh daemon, which
// attests the sessions and preloads every key (set-up time is the median of
// the three), then drives that daemon through a 1 s warm-up and a third of
// the S-second window, and checks every answer and the final state. With
// --trace 1 the same workload then runs against the stack rebuilt
// in-process, once plain and once with spans, followed by each layer's rung.
// --kill-daemon-after-ms is a test hook: SIGKILL the first daemon that long
// into its window.
//
// Prints one JSON object as its last line; run.py turns it into the
// benchmark's result line. Exits 1 when any operation failed or any check
// found a wrong value, 2 on bad arguments.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "driver/daemon.h"
#include "driver/json.h"
#include "driver/layers.h"
#include "driver/loadgen.h"
#include "driver/stats.h"
#include "driver/trace.h"
#include "src/obs/snapshot.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string work_dir;
  int kill_daemon_after_ms = -1;
};

constexpr int kSetups = 3;
constexpr double kWarmupSeconds = 1.0;

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const char* v = argv[++i];
    if (arg == "--workload") {
      a->workload = v;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::atof(v);
    } else if (arg == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (arg == "--server") {
      a->server = v;
    } else if (arg == "--work-dir") {
      a->work_dir = v;
    } else if (arg == "--kill-daemon-after-ms") {
      a->kill_daemon_after_ms = std::atoi(v);
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->server.empty() && !a->work_dir.empty() && a->seconds > 0;
}

double P(std::vector<double> v, double q) {
  return v.empty() ? std::nan("") : Percentile(v, q);
}

double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

// One metric table: name -> (value, unit), plus "n/a" reasons.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values;
  std::map<std::string, std::string> not_applicable;

  void Set(const std::string& name, double value, const std::string& unit) {
    values.push_back({name, {value, unit}});
  }
  void Na(const std::string& name, const std::string& unit, const std::string& reason) {
    values.push_back({name, {0.0, unit}});
    not_applicable[name] = reason;
  }
  void Write(JsonWriter& j) const {
    j.BeginObject();
    for (const auto& [name, vu] : values) {
      j.Key(name).BeginObject().Key("value").Num(vu.first).Key("unit").Str(vu.second).EndObject();
    }
    j.EndObject();
  }
};

struct Failures {
  uint64_t transport = 0;
  uint64_t status = 0;
  uint64_t value = 0;
  uint64_t outside_window = 0;
  uint64_t verification = 0;
  std::string first_error;

  void Add(const WindowResult& w) {
    transport += w.transport_failures;
    status += w.status_failures;
    value += w.value_failures;
    outside_window += w.failures_outside;
  }
  uint64_t total() const { return transport + status + value + outside_window + verification; }
};

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

const shield::obs::HistogramData* NonEmpty(const shield::obs::MetricsSnapshot& d,
                                           const char* name) {
  const shield::obs::HistogramData* h = d.Histogram(name);
  return h != nullptr && h->count > 0 ? h : nullptr;
}

// Samples per latency group: p99 of 20000 samples has 200 beyond it.
constexpr size_t kGroupSamples = 20000;

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  ResetDir(args.work_dir);
  Failures failures;
  Metrics e2e;
  Metrics layer;

  // ---------------------------------------------------------- daemon part
  // Each of the three daemon instances starts empty and then serves a
  // third of the window; the slices of all instances feed the medians below.
  std::vector<std::string> daemon_args = {"--port", "0", "--io-threads", "2"};
  const char* const kDaemonHistograms[] = {"stage.commit_wait", "wal.fsync_ns",
                                           "wal.commit_batch_ops", "net.coalesce_depth",
                                           "net.reactor_loop_lag"};
  std::map<std::string, shield::obs::HistogramData> daemon_hist;
  std::vector<double> setup_s;
  std::vector<double> instance_kops;
  WindowResult w;
  uint64_t cpu_ns = 0;
  uint64_t rss_kb = 0;
  bool stats_ok = true;
  const shield::sgx::AttestationAuthority authority(
      shield::AsBytes(DaemonDefaults::kAuthoritySeed));
  for (int i = 0; i < kSetups; ++i) {
    std::vector<std::string> flags = daemon_args;
    if (spec->durable) {
      const std::string heal = args.work_dir + "/heal-" + std::to_string(i);
      ResetDir(heal);
      flags.push_back("--heal-dir");
      flags.push_back(heal);
    }
    Daemon daemon;
    const uint64_t t0 = NowNs();
    Status st = daemon.Start(args.server, flags,
                             args.work_dir + "/daemon-" + std::to_string(i) + ".log", 60000);
    LoadGenerator gen(*spec, args.seed);
    if (st.ok()) {
      st = gen.Connect(daemon.port(), authority, daemon.measurement());
    }
    if (st.ok()) {
      st = gen.Preload();
    }
    if (!st.ok()) {
      std::fprintf(stderr, "daemon set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);

    uint64_t cpu0 = 0;
    uint64_t cpu1 = 0;
    shield::obs::MetricsSnapshot stats0;
    shield::obs::MetricsSnapshot stats1;
    std::thread killer;
    WindowHooks hooks;
    hooks.at_start = [&] {
      Result<shield::obs::MetricsSnapshot> s = gen.Stats();
      stats_ok &= s.ok();
      if (s.ok()) {
        stats0 = std::move(*s);
      }
      cpu0 = daemon.CpuNs();
      if (args.kill_daemon_after_ms >= 0 && i == 0) {
        killer = std::thread([&] {
          std::this_thread::sleep_for(std::chrono::milliseconds(args.kill_daemon_after_ms));
          daemon.Kill();
        });
      }
    };
    hooks.at_end = [&] {
      cpu1 = daemon.CpuNs();
      Result<shield::obs::MetricsSnapshot> s = gen.Stats();
      stats_ok &= s.ok();
      if (s.ok()) {
        stats1 = std::move(*s);
      }
    };
    WindowResult part = gen.Run(kWarmupSeconds, args.seconds / kSetups,
                                /*record_spans=*/false, hooks);
    if (killer.joinable()) {
      killer.join();
    }
    failures.Add(part);
    failures.verification += gen.Verify(&failures.first_error);
    rss_kb = std::max(rss_kb, daemon.PeakRssKb());
    cpu_ns += cpu1 - cpu0;
    const shield::obs::MetricsSnapshot d = shield::obs::Delta(stats0, stats1);
    for (const char* name : kDaemonHistograms) {
      if (const shield::obs::HistogramData* h = d.Histogram(name); h != nullptr) {
        daemon_hist[name].Merge(*h);
      }
    }
    instance_kops.push_back(Ratio(static_cast<double>(part.acked), part.window_s) / 1e3);
    w.slices.insert(w.slices.end(), part.slices.begin(), part.slices.end());
    w.attempted += part.attempted;
    w.acked += part.acked;
    w.window_s += part.window_s;
    w.max_thread_cpu_ratio = std::max(w.max_thread_cpu_ratio, part.max_thread_cpu_ratio);
    if (part.attempted == 0 || failures.total() > 0) {
      break;  // a failed instance fails the run; later ones would not change that
    }
  }
  if (spec->durable) {
    daemon_args.push_back("--heal-dir");
    daemon_args.push_back("<fresh empty dir>");
  }
  if (!stats_ok && failures.first_error.empty()) {
    failures.first_error = "daemon stats request failed";
  }

  // Throughput is taken per slice and each latency percentile per group of
  // consecutive slices holding at least kGroupSamples samples of the verb
  // (so p99 always has 20 samples beyond it); the reported value is the
  // median over slices or groups of all instances. A burst of outside load
  // during part of the run therefore does not move the result.
  std::vector<double> kops;
  for (const WindowSlice& slice : w.slices) {
    kops.push_back(Ratio(static_cast<double>(slice.completed), slice.seconds) / 1e3);
  }
  const VerbSamples all_gets = LoadGenerator::Pooled(w, true);
  const VerbSamples all_sets = LoadGenerator::Pooled(w, false);
  e2e.Set("throughput_kops", P(kops, 0.5), "kop/s");
  e2e.Set("get_p50_us", GroupedPercentile(w.slices, true, 0.50, kGroupSamples) / 1e3, "us");
  const double get_p99_us = GroupedPercentile(w.slices, true, 0.99, kGroupSamples) / 1e3;
  const double set_p99_us = GroupedPercentile(w.slices, false, 0.99, kGroupSamples) / 1e3;
  e2e.Set("get_p99_us", get_p99_us, "us");
  e2e.Set("set_p50_us", GroupedPercentile(w.slices, false, 0.50, kGroupSamples) / 1e3, "us");
  e2e.Set("set_p99_us", set_p99_us, "us");
  e2e.Set("error_ratio",
          Ratio(static_cast<double>(failures.total()), static_cast<double>(w.attempted)), "ratio");
  e2e.Set("setup_s", P(setup_s, 0.5), "s");
  e2e.Set("server_rss_mb", static_cast<double>(rss_kb) / 1024.0, "MB");
  e2e.Set("server_cpu_us_per_op",
          Ratio(static_cast<double>(cpu_ns) / 1e3, static_cast<double>(w.acked)), "us/op");

  // ------------------------------------------------ traced in-process part
  TraceAnalysis analysis;
  std::string trace_file;
  if (args.trace) {
    shield::obs::MetricsSnapshot d;
    for (const auto& [name, h] : daemon_hist) {
      d.SetHistogram(name, h);
    }
    layer.Set("client.cpu_ratio", w.max_thread_cpu_ratio, "ratio");
    layer.Set("client.get_p99_us", get_p99_us, "us");
    layer.Set("client.set_p99_us", set_p99_us, "us");
    const std::string volatile_reason = "volatile daemon: no WAL, no counter";
    if (spec->durable) {
      const auto* cw = NonEmpty(d, "stage.commit_wait");
      const auto* fsync = NonEmpty(d, "wal.fsync_ns");
      const auto* batch = NonEmpty(d, "wal.commit_batch_ops");
      cw != nullptr ? layer.Set("daemon.commit_wait_p50_us", cw->Quantile(0.5) / 1e3, "us")
                    : layer.Na("daemon.commit_wait_p50_us", "us", "no commit waits in the window");
      fsync != nullptr ? layer.Set("daemon.fsync_p50_us", fsync->Quantile(0.5) / 1e3, "us")
                       : layer.Na("daemon.fsync_p50_us", "us", "no fsyncs in the window");
      batch != nullptr ? layer.Set("daemon.commit_batch_ops_mean", batch->Mean(), "ops")
                       : layer.Na("daemon.commit_batch_ops_mean", "ops", "no commits in the window");
    } else {
      layer.Na("daemon.commit_wait_p50_us", "us", volatile_reason);
      layer.Na("daemon.fsync_p50_us", "us", volatile_reason);
      layer.Na("daemon.commit_batch_ops_mean", "ops", volatile_reason);
    }
    const auto* coalesce = NonEmpty(d, "net.coalesce_depth");
    coalesce != nullptr
        ? layer.Set("daemon.coalesce_depth_mean", coalesce->Mean(), "frames")
        : layer.Na("daemon.coalesce_depth_mean", "frames", "no coalesced runs in the window");
    const auto* lag = NonEmpty(d, "net.reactor_loop_lag");
    lag != nullptr ? layer.Set("daemon.reactor_loop_lag_p99_us", lag->Quantile(0.99) / 1e3, "us")
                   : layer.Na("daemon.reactor_loop_lag_p99_us", "us", "no reactor samples");

    static SpanLog spans;  // thread-local buffers point at it until exit
    const std::string dir = args.work_dir + "/inproc";
    ResetDir(dir);
    auto stack = std::make_unique<InProcessStack>(*spec, dir, spans);
    LoadGenerator local(*spec, args.seed);
    Status st = stack->Start();
    if (st.ok()) {
      st = local.Connect(stack->port(), stack->authority(), stack->measurement());
    }
    if (st.ok()) {
      st = local.Preload();
    }
    if (!st.ok()) {
      std::fprintf(stderr, "in-process set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    shield::sgx::Enclave& enclave = stack->enclave();
    struct Counts {
      shield::kv::StoreStats store;
      shield::shieldstore::WalStats wal;
      uint64_t ecalls = 0;
      uint64_t epc_faults = 0;
      uint64_t calls = 0;
      uint64_t ops = 0;
    };
    auto counts = [&] {
      Counts c;
      c.store = stack->store().stats();
      if (stack->wal() != nullptr) {
        c.wal = stack->wal()->Stats();
      }
      c.ecalls = enclave.boundary().ecall_count();
      c.epc_faults = enclave.epc().stats().faults;
      c.calls = stack->counting().calls();
      c.ops = stack->counting().ops();
      return c;
    };
    // Spans of a whole window stay in memory; 5 s keeps that to a few
    // hundred MB at cache-rd95's rate.
    const double half = std::clamp(args.seconds / 2, 1.0, 5.0);
    Counts c0;
    Counts c1;
    WindowHooks plain_hooks;
    plain_hooks.at_start = [&] { c0 = counts(); };
    plain_hooks.at_end = [&] { c1 = counts(); };
    WindowResult plain = local.Run(1.0, half, /*record_spans=*/false, plain_hooks);
    WindowHooks traced_hooks;
    traced_hooks.at_start = [&] { spans.set_enabled(true); };
    WindowResult traced = local.Run(0.2, half, /*record_spans=*/true, traced_hooks);
    spans.set_enabled(false);
    failures.Add(plain);
    failures.Add(traced);
    std::string local_error;
    failures.verification += local.Verify(&local_error);
    if (failures.first_error.empty()) {
      failures.first_error = local_error;
    }
    stack->Stop();

    const ServerSpans server = spans.Collect();
    analysis = Analyze(traced.spans, server, spec->durable);
    trace_file = args.work_dir + "/trace.json";
    if (Status s = WriteChromeTrace(trace_file, traced.spans, server, 4000); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      trace_file.clear();
    }

    const double ops = static_cast<double>(c1.ops - c0.ops);
    const double calls = static_cast<double>(c1.calls - c0.calls);
    const double gets = static_cast<double>(c1.store.gets - c0.store.gets);
    const double store_ops = gets + static_cast<double>(c1.store.sets - c0.store.sets);
    const double ops_per_call = Ratio(ops, calls);
    layer.Set("net.ops_per_store_call", ops_per_call, "ops");
    layer.Set("net.self_us_p50", analysis.net_self_us_p50, "us");
    layer.Set("net.seal_open_ns", SealOpenNs(*spec, args.seed, 0.3), "ns");
    layer.Set("store.call_us_p50", analysis.store_call_us_p50, "us");
    const size_t batch = static_cast<size_t>(std::max(1.0, std::round(ops_per_call)));
    layer.Set("store.batch_ns_per_op",
              StoreBatchNsPerOp(stack->store(), *spec, args.seed, batch, 0.3), "ns");
    layer.Set("store.single_ns_per_op",
              StoreSingleNsPerOp(stack->store(), *spec, args.seed, 0.3), "ns");
    layer.Set("store.decryptions_per_get",
              Ratio(static_cast<double>(c1.store.decryptions - c0.store.decryptions), gets), "ratio");
    layer.Set("store.mac_verifications_per_op",
              Ratio(static_cast<double>(c1.store.mac_verifications - c0.store.mac_verifications),
                    store_ops),
              "ratio");
    layer.Set("store.hit_ratio", Ratio(static_cast<double>(c1.store.hits - c0.store.hits), gets),
              "ratio");
    layer.Set("crypto.ctr_bytes_per_op",
              Ratio(static_cast<double>(c1.store.crypto_ctr_bytes - c0.store.crypto_ctr_bytes),
                    store_ops),
              "B");
    layer.Set("crypto.cmac_bytes_per_op",
              Ratio(static_cast<double>(c1.store.crypto_cmac_bytes - c0.store.crypto_cmac_bytes),
                    store_ops),
              "B");
    if (spec->durable) {
      const double records = static_cast<double>(c1.wal.records_logged - c0.wal.records_logged);
      const double commits = static_cast<double>(c1.wal.commits - c0.wal.commits);
      const double commits_per_s = Ratio(commits, plain.window_s);
      const double records_per_commit = Ratio(records, commits);
      layer.Set("wal.call_us_p50", analysis.wal_call_us_p50, "us");
      layer.Set("wal.self_us_p50", analysis.wal_self_us_p50, "us");
      layer.Set("wal.records_per_commit", records_per_commit, "records");
      layer.Set("wal.commits_per_s", commits_per_s, "1/s");
      layer.Set("wal.log_bytes_per_write",
                Ratio(static_cast<double>(c1.wal.log_bytes) - static_cast<double>(c0.wal.log_bytes),
                      records),
                "B");
      const size_t per_commit = static_cast<size_t>(std::clamp(
          std::round(records_per_commit), 1.0, static_cast<double>(DaemonDefaults::kWalGroupOps)));
      Result<WalRung> rung = MeasureWal(dir, *spec, stack->measurement(), per_commit, 40);
      Result<double> increment = MeasureCounterIncrementUs(dir, 40);
      if (!rung.ok() || !increment.ok()) {
        std::fprintf(stderr, "wal rung failed: %s\n",
                     (!rung.ok() ? rung.status() : increment.status()).ToString().c_str());
        return 1;
      }
      layer.Set("wal.append_us", rung->append_us, "us");
      layer.Set("wal.commit_prepare_us", rung->commit_prepare_us, "us");
      layer.Set("wal.fsync_us", rung->fsync_us, "us");
      layer.Set("sgx.counter_increment_us", *increment, "us");
      layer.Set("sgx.counter_busy_ratio", commits_per_s * *increment / 1e6, "ratio");
    } else {
      const std::string reason = "volatile workload: the daemon runs no WAL";
      for (const char* name : {"wal.call_us_p50", "wal.self_us_p50"}) {
        layer.Na(name, "us", reason);
      }
      layer.Na("wal.records_per_commit", "records", reason);
      layer.Na("wal.commits_per_s", "1/s", reason);
      layer.Na("wal.log_bytes_per_write", "B", reason);
      for (const char* name : {"wal.append_us", "wal.commit_prepare_us", "wal.fsync_us"}) {
        layer.Na(name, "us", reason);
      }
      layer.Na("sgx.counter_increment_us", "us", "volatile workload: no counter bumps");
      layer.Na("sgx.counter_busy_ratio", "ratio", "volatile workload: no counter bumps");
    }
    layer.Set("sgx.ecalls_per_op", Ratio(static_cast<double>(c1.ecalls - c0.ecalls), ops), "ratio");
    layer.Set("sgx.epc_faults_per_kop",
              Ratio(static_cast<double>(c1.epc_faults - c0.epc_faults), ops / 1e3), "count");
    layer.Set("trace.overhead_ratio",
              Ratio(Ratio(static_cast<double>(traced.acked), traced.window_s),
                    Ratio(static_cast<double>(plain.acked), plain.window_s)),
              "ratio");
    layer.Set("trace.unattributed_get_us", analysis.get.unattributed_us, "us");
    if (analysis.set.requests > 0) {
      layer.Set("trace.unattributed_set_us", analysis.set.unattributed_us, "us");
    } else {
      layer.Na("trace.unattributed_set_us", "us", "no sets in the traced window");
    }
    stack.reset();
  }

  // ----------------------------------------------------------- result line
  const uint64_t failed = failures.total();
  JsonWriter j;
  j.BeginObject();
  j.Key("workload").Str(spec->name).Key("seed").Int(static_cast<long long>(args.seed));
  j.Key("seconds").Num(args.seconds).Key("trace").Bool(args.trace);
  j.Key("daemon_args").BeginArray();
  for (const std::string& a : daemon_args) {
    j.Str(a);
  }
  j.EndArray();
  j.Key("correct").Bool(failed == 0 && w.attempted > 0);
  j.Key("attempted").Int(static_cast<long long>(w.attempted));
  j.Key("failed").Int(static_cast<long long>(failed));
  j.Key("failures").BeginObject();
  j.Key("transport").Int(static_cast<long long>(failures.transport));
  j.Key("status").Int(static_cast<long long>(failures.status));
  j.Key("wrong_value").Int(static_cast<long long>(failures.value));
  j.Key("outside_window").Int(static_cast<long long>(failures.outside_window));
  j.Key("verification").Int(static_cast<long long>(failures.verification));
  j.Key("first_error").Str(failures.first_error);
  j.EndObject();
  j.Key("samples").BeginObject();
  j.Key("get").Int(static_cast<long long>(all_gets.count()));
  j.Key("set").Int(static_cast<long long>(all_sets.count()));
  j.Key("slices").Int(static_cast<long long>(w.slices.size()));
  j.EndObject();
  j.Key("window_s").Num(w.window_s);
  j.Key("slice_kops").BeginArray();
  for (const double k : kops) {
    j.Num(k);
  }
  j.EndArray();

  j.Key("setup_s_each").BeginArray();
  for (const double s : setup_s) {
    j.Num(s);
  }
  j.EndArray();
  j.Key("instance_kops").BeginArray();
  for (const double k : instance_kops) {
    j.Num(k);
  }
  j.EndArray();
  j.Key("end_to_end");
  e2e.Write(j);
  if (args.trace) {
    j.Key("per_layer");
    layer.Write(j);
    j.Key("not_applicable").BeginObject();
    for (const auto& [name, reason] : layer.not_applicable) {
      j.Key(name).Str(reason);
    }
    j.EndObject();
    j.Key("attribution").BeginObject();
    const std::pair<const char*, const VerbBreakdown*> verbs[] = {{"get", &analysis.get},
                                                                 {"set", &analysis.set}};
    for (const auto& [verb, b] : verbs) {
      j.Key(verb).BeginObject();
      j.Key("requests").Int(static_cast<long long>(b->requests));
      j.Key("matched").Int(static_cast<long long>(b->matched));
      j.Key("total_us_p50").Num(b->total_us_p50);
      j.Key("net_self_us_p50").Num(b->net_self_us_p50);
      j.Key("wal_self_us_p50").Num(b->wal_self_us_p50);
      j.Key("store_us_p50").Num(b->store_us_p50);
      j.Key("unattributed_us").Num(b->unattributed_us);
      j.EndObject();
    }
    j.Key("store_calls").Int(static_cast<long long>(analysis.store_calls));
    j.Key("wal_calls").Int(static_cast<long long>(analysis.wal_calls));
    j.EndObject();
    j.Key("trace_file").Str(trace_file);
  }
  j.EndObject();
  std::printf("%s\n", j.str().c_str());
  std::fflush(stdout);
  return failed == 0 && w.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1\n"
                 "    --server PATH --work-dir DIR [--kill-daemon-after-ms MS]\n");
    return 2;
  }
  return perfbench::Run(args);
}
