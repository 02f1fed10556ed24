// WAL scaling: sharded per-partition operation logs vs a single global log,
// write-only load, driven the way the daemon drives the WAL: every ack is
// durable (fsync'd and counter-bumped), with the daemon's default group-commit
// window (200 us), group cap (64 records) and counter cost (2M cycles).
//
// SIMULATED MULTICORE (see harness.h): the T simulated writers run
// SEQUENTIALLY, each for the full window, writing only the keys its
// partition owns. Each writer submits 16-set batches without waiting (as the
// reactor does) and holds the durability requirement; its timed window ends
// once its last requirement is durable. Each op is charged the convoy of
// the writers sharing its shard (virtual_contention = T / shards, every op
// observing ~that multiple of the lock-held service time): the single-log
// baseline models T writers serializing on one log mutex; the sharded mode
// maps each writer to its own shard, so contention stays 1 regardless of T.
//
// Emits BENCH_wal.json (threads x {sharded, single}) for the acceptance
// gate: 8-partition sharded write throughput >= 3x the single-log baseline.
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "bench/harness.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"

namespace shield::bench {
namespace {

struct ModeResult {
  double kops = 0;
  uint64_t records = 0;
  uint64_t commits = 0;
  uint64_t fsyncs = 0;
  uint64_t epochs = 0;  // counter bumps
};

ModeResult Measure(size_t threads, bool sharded, double seconds, const workload::DataSet& ds,
                   size_t keys_per_partition) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("shield_wal_bench_" + std::to_string(getpid()) + "_" +
                            std::to_string(threads) + (sharded ? "s" : "m")))
                              .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // This run's own registry: WalStats (records, commits, fsyncs) count this
  // mode's WAL only.
  obs::Registry registry;
  sgx::Enclave enclave(BenchEnclave());
  const sgx::SealingService sealer(AsBytes("wal-bench"), enclave.measurement());
  sgx::MonotonicCounterService::Options counter_opts;
  counter_opts.backing_file = dir + "/counters.bin";
  sgx::MonotonicCounterService counters(counter_opts);

  shieldstore::Options options;
  options.num_buckets = 1 << 14;
  options.metrics = &registry;
  shieldstore::PartitionedStore store(enclave, options, threads);

  shieldstore::OpLogOptions log_opts;
  log_opts.path = dir + "/wal.log";
  log_opts.metrics = &registry;
  // One shard per writer's partition, or one global log. The T writers
  // spread evenly, so each convoys with the T / shards on its shard.
  const size_t shards = sharded ? threads : 1;
  log_opts.num_shards = shards;
  log_opts.virtual_contention = threads / shards;
  shieldstore::WriteAheadStore wal(store, sealer, counters, log_opts);
  if (!wal.Open().ok()) {
    std::filesystem::remove_all(dir);
    return {};
  }

  // Pre-bucket keys by owning partition so the timed loop pays only for the
  // store + log work, not key generation and route filtering.
  std::vector<std::vector<std::string>> keys(threads);
  for (uint64_t i = 0; keys_per_partition > 0; ++i) {
    const std::string key = workload::KeyAt(i, ds.key_bytes);
    std::vector<std::string>& bucket = keys[store.PartitionOf(key)];
    if (bucket.size() < keys_per_partition) {
      bucket.push_back(key);
      bool all_full = true;
      for (const auto& b : keys) {
        all_full = all_full && b.size() >= keys_per_partition;
      }
      if (all_full) {
        break;
      }
    }
  }
  const std::string value = workload::ValueFor(0, 1, ds.value_bytes);

  ModeResult r;
  uint64_t total_ops = 0;
  double window = 0;
  std::vector<kv::BatchOp> batch(16, kv::BatchOp{kv::BatchOpType::kSet, "", value});
  for (size_t t = 0; t < threads; ++t) {
    uint64_t ops = 0;
    size_t next = 0;
    // Each batch's requirement names the writer's one shard at its newest
    // sequence, so the last one covers every record the writer appended.
    kv::DurabilityRequirement requirement;
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                      std::chrono::duration<double>(seconds));
    while (std::chrono::steady_clock::now() < deadline) {
      for (kv::BatchOp& op : batch) {
        op.key = keys[t][next];
        next = (next + 1) % keys[t].size();
      }
      for (const kv::BatchOpResult& result : wal.SubmitBatch(batch, requirement)) {
        if (!result.status.ok()) {
          std::fprintf(stderr, "wal set failed: %s\n", result.status.ToString().c_str());
          std::filesystem::remove_all(dir);
          return {};
        }
      }
      ops += batch.size();
    }
    for (const auto& [shard, seq] : requirement.shards) {
      if (Status st = wal.durability_watch()->Wait(shard, seq); !st.ok()) {
        std::fprintf(stderr, "wal commit failed: %s\n", st.ToString().c_str());
        std::filesystem::remove_all(dir);
        return {};
      }
    }
    total_ops += ops;
    window = std::max(window, std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                            start)
                                  .count());
  }
  const shieldstore::WalStats ws = wal.Stats();
  r.kops = window > 0 ? static_cast<double>(total_ops) / window / 1000.0 : 0;
  r.records = ws.records_logged;
  r.commits = ws.commits;
  r.fsyncs = ws.fsyncs;
  r.epochs = registry.GetCounter("wal.epochs").Value();
  std::filesystem::remove_all(dir);
  return r;
}

int Run(double seconds, const std::string& out_path) {
  const workload::DataSet ds = workload::MediumDataSet();
  const size_t keys_per_partition = Scaled(2'000);

  Table table("WAL scaling: sharded per-partition logs vs single global log (write-only)");
  table.Header({"threads", "mode", "Kop/s", "fsyncs", "bumps", "speedup"});

  const shieldstore::OpLogOptions defaults;
  std::string json = "{\n  \"bench\": \"wal_scaling\",\n  \"group_commit_ops\": " +
                     std::to_string(defaults.group_commit_ops) +
                     ",\n  \"group_commit_window_us\": " +
                     std::to_string(defaults.group_commit_window_us) +
                     ",\n  \"durability\": \"durable acks: 16-set batches, each writer waits for "
                     "its last requirement\",\n  \"results\": [\n";
  double speedup_at_max = 0;
  size_t max_threads = 0;
  bool first = true;
  for (size_t threads : {1, 2, 4, 8}) {
    const ModeResult single = Measure(threads, /*sharded=*/false, seconds, ds,
                                      keys_per_partition);
    const ModeResult shard = Measure(threads, /*sharded=*/true, seconds, ds,
                                     keys_per_partition);
    const double speedup = single.kops > 0 ? shard.kops / single.kops : 0;
    table.Row({std::to_string(threads), "single", Fmt(single.kops),
               std::to_string(single.fsyncs), std::to_string(single.epochs), "1.0x"});
    table.Row({std::to_string(threads), "sharded", Fmt(shard.kops),
               std::to_string(shard.fsyncs), std::to_string(shard.epochs),
               Fmt(speedup, "%.2fx")});
    for (const auto& [mode, res] : {std::pair<const char*, const ModeResult&>{"single", single},
                                    {"sharded", shard}}) {
      json += std::string(first ? "" : ",\n") + "    {\"threads\": " + std::to_string(threads) +
              ", \"mode\": \"" + mode + "\", \"kops\": " + Fmt(res.kops, "%.2f") +
              ", \"records\": " + std::to_string(res.records) +
              ", \"commits\": " + std::to_string(res.commits) +
              ", \"fsyncs\": " + std::to_string(res.fsyncs) +
              ", \"epochs\": " + std::to_string(res.epochs) + "}";
      first = false;
    }
    if (threads >= max_threads) {
      max_threads = threads;
      speedup_at_max = speedup;
    }
  }
  json += "\n  ],\n  \"max_threads\": " + std::to_string(max_threads) +
          ",\n  \"speedup_at_max_threads\": " + Fmt(speedup_at_max, "%.2f") + "\n}\n";
  std::ofstream(out_path) << json;
  std::printf("# wrote %s; target: sharded >= 3x single at %zu threads (got %.2fx)\n",
              out_path.c_str(), max_threads, speedup_at_max);
  return speedup_at_max >= 3.0 ? 0 : 1;
}

}  // namespace
}  // namespace shield::bench

int main(int argc, char** argv) {
  double seconds = 0.4;
  std::string out = "BENCH_wal.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      seconds = 0.05;
    } else if (arg == "--seconds" && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_wal_scaling [--smoke] [--seconds S] [--out PATH]\n");
      return 2;
    }
  }
  return shield::bench::Run(seconds, out);
}
