// Restart-path comparison over the same data: full-log replay on a heap-only
// WAL (decrypt every log record and re-insert it through the enclave) vs
// mmap-backed persistent-arena attach (map the heap file, validate the
// superblock, load the chain table, unseal one metadata blob — per-entry
// MACs re-verify lazily on first touch). Both paths go through the real
// boot call, WriteAheadStore::RestoreFromDisk.
//
// Exit code enforces the acceptance gate: arena attach >= 10x faster than
// log replay at the largest entry count (1M entries full, 100k under
// --smoke). The speedup should GROW with the data set — replay is O(entries),
// attach is O(1) in entries (superblock + table + one sealed blob).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"

namespace shield::bench {
namespace {

constexpr size_t kPartitions = 4;

struct Stack {
  std::unique_ptr<sgx::Enclave> enclave;
  std::unique_ptr<sgx::SealingService> sealer;
  std::unique_ptr<sgx::MonotonicCounterService> counters;
  std::unique_ptr<shieldstore::PartitionedStore> store;
  std::unique_ptr<shieldstore::WriteAheadStore> wal;
};

Stack MakeStack(const std::string& dir, size_t entries, bool persist) {
  Stack s;
  s.enclave = std::make_unique<sgx::Enclave>(BenchEnclave());
  s.sealer = std::make_unique<sgx::SealingService>(AsBytes("bench-fuse"),
                                                   s.enclave->measurement());
  sgx::MonotonicCounterService::Options counter_opts;
  counter_opts.backing_file = dir + "/counters.bin";
  counter_opts.increment_cost_cycles = 0;
  s.counters = std::make_unique<sgx::MonotonicCounterService>(counter_opts);
  shieldstore::Options options;
  options.num_buckets = entries;
  options.heap_chunk_bytes = 4u << 20;
  if (persist) {
    options.persist_dir = dir + "/heap";
    // Per-partition arena capacity, sized for entries plus chain table with
    // headroom; the file is sparse so unwritten capacity costs nothing.
    options.persist_capacity_bytes =
        std::max<size_t>(size_t{64} << 20, entries * 512 / kPartitions);
  }
  s.store = std::make_unique<shieldstore::PartitionedStore>(*s.enclave, options, kPartitions);
  shieldstore::OpLogOptions log_opts;
  log_opts.path = dir + "/wal.log";
  s.wal = std::make_unique<shieldstore::WriteAheadStore>(*s.store, *s.sealer, *s.counters,
                                                         log_opts);
  return s;
}

std::string KeyOf(size_t i) { return "restart-key-" + std::to_string(i); }

// Loads entries through the WAL in batches of 1024 durable sets. The arena
// run then compacts every shard (audit, arena commit, cold copy, new log
// generation), as the daemon's maintenance thread does once a log outgrows
// --wal-compact-bytes, so its restart measures the attach alone; the
// heap-only run cannot compact and keeps every record in its logs.
bool Load(Stack& s, size_t entries, bool persist, const std::string& dir) {
  const std::string value(64, 'v');
  std::vector<kv::BatchOp> batch;
  for (size_t i = 0; i < entries; ++i) {
    batch.push_back({kv::BatchOpType::kSet, KeyOf(i), value, 0});
    if (batch.size() == 1024 || i + 1 == entries) {
      for (const kv::BatchOpResult& r : s.wal->ExecuteBatch(batch)) {
        if (!r.status.ok()) {
          return false;
        }
      }
      batch.clear();
    }
  }
  if (!persist) {
    return true;
  }
  for (size_t shard = 0; shard < s.wal->num_shards(); ++shard) {
    if (const Status st = s.wal->CompactShard(shard, dir + "/cold"); !st.ok()) {
      std::fprintf(stderr, "compaction failed: %s\n", st.ToString().c_str());
      return false;
    }
  }
  return true;
}

// Boots a fresh stack over `dir` and times RestoreFromDisk. Returns restore
// milliseconds, or a negative value on failure. Spot-checks reads afterwards
// (which on the arena path also exercises first-touch lazy verification).
double TimeRestart(const std::string& dir, size_t entries, bool persist) {
  Stack s = MakeStack(dir, entries, persist);
  if (!s.wal->Open().ok()) {
    return -1;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const Status restored = s.wal->RestoreFromDisk();
  const auto t1 = std::chrono::steady_clock::now();
  if (!restored.ok()) {
    std::fprintf(stderr, "restore failed: %s\n", restored.ToString().c_str());
    return -1;
  }
  for (size_t i = 0; i < entries; i += std::max<size_t>(entries / 16, 1)) {
    const Result<std::string> got = s.wal->Get(KeyOf(i));
    if (!got.ok() || got.value() != std::string(64, 'v')) {
      std::fprintf(stderr, "spot check failed at %zu\n", i);
      return -1;
    }
  }
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

int Run(const std::vector<size_t>& sizes) {
  const std::string root = "/tmp/shieldstore_bench_restart";
  Table table("Restart: heap-only full-log replay vs persistent-arena attach");
  table.Header({"entries", "log replay ms", "arena ms", "speedup"});
  double gate_speedup = 0;

  for (size_t entries : sizes) {
    double ms[2] = {};
    for (int persist = 0; persist < 2; ++persist) {
      const std::string dir = root + "/" + (persist ? "arena" : "heap-only");
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      {
        Stack s = MakeStack(dir, entries, persist != 0);
        if (!s.wal->Open().ok() || !s.wal->RestoreFromDisk().ok() ||
            !Load(s, entries, persist != 0, dir)) {
          return 2;
        }
      }
      ms[persist] = TimeRestart(dir, entries, persist != 0);
      std::filesystem::remove_all(dir);  // one data set on disk at a time
      if (ms[persist] < 0) {
        return 2;
      }
    }
    const double speedup = ms[1] > 0 ? ms[0] / ms[1] : 0;
    gate_speedup = speedup;  // gate applies at the LAST (largest) size
    table.Row({std::to_string(entries), Fmt(ms[0], "%.2f"), Fmt(ms[1], "%.2f"),
               Fmt(speedup, "%.1fx")});
  }
  std::filesystem::remove_all(root);
  std::printf("# gate: arena attach >= 10x full-log replay at the largest size "
              "(got %.1fx)\n",
              gate_speedup);
  return gate_speedup >= 10.0 ? 0 : 1;
}

}  // namespace
}  // namespace shield::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_restart [--smoke]\n");
      return 2;
    }
  }
  const std::vector<size_t> sizes = smoke
                                        ? std::vector<size_t>{10'000, 100'000}
                                        : std::vector<size_t>{10'000, 100'000, 1'000'000};
  return shield::bench::Run(sizes);
}
