// Sharded write-ahead log: shard routing, durable group-commit acks,
// bounded-log compaction (including its injected-crash matrix), repartition
// under the WAL, stats, and migration from the PR 2 single-log layout.
//
// Restart simulation: build a SECOND stack over the same directory (same
// counter backing file, fresh enclave-drawn route key) and RestoreFromDisk —
// exactly what the daemon does at boot. Acked-write checks always go through
// that restored copy, never the live store's memory.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"

namespace shield {
namespace {

using shieldstore::OperationLog;
using shieldstore::OpLogOptions;
using shieldstore::PartitionedStore;
using shieldstore::SelfHealer;
using shieldstore::SelfHealOptions;
using shieldstore::WalStats;
using shieldstore::WriteAheadStore;

sgx::EnclaveConfig TestEnclaveConfig(const char* seed) {
  sgx::EnclaveConfig c;
  c.name = "wal-sharding-test";
  c.epc.epc_bytes = 8u << 20;
  c.epc.crossing_cycles = 0;
  c.epc.kernel_fault_cycles = 0;
  c.epc.resident_access_cycles = 0;
  c.epc.page_crypto = false;
  c.heap_reserve_bytes = 128u << 20;
  c.rng_seed = ToBytes(seed);
  return c;
}

shieldstore::Options SmallOptions() {
  shieldstore::Options o;
  o.num_buckets = 512;
  o.heap_chunk_bytes = 1 << 20;
  return o;
}

class WalShardingTest : public ::testing::Test {
 protected:
  WalShardingTest() : enclave_(TestEnclaveConfig("wal-sharding-a")) {
    // Keyed by pid AND fixture address: ctest runs each case of this binary
    // as its own process, and two processes can land `this` on the same
    // heap address.
    dir_ = ::testing::TempDir() + "/wal_sharding_" + std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    sgx::MonotonicCounterService::Options counter_opts;
    counter_opts.backing_file = dir_ + "/counters.bin";
    counter_opts.increment_cost_cycles = 0;
    counters_ = std::make_unique<sgx::MonotonicCounterService>(counter_opts);
    sealer_ = std::make_unique<sgx::SealingService>(AsBytes("fuse"), enclave_.measurement());
  }
  ~WalShardingTest() override { std::filesystem::remove_all(dir_); }

  OpLogOptions LogOptions() const {
    OpLogOptions o;
    o.path = dir_ + "/wal.log";
    return o;
  }
  std::string SnapshotDir() const { return dir_ + "/snapshots"; }

  // Boots a fresh stack over this test's directory (a different enclave, so
  // a different route key — restore must be route-agnostic) and restores the
  // durable state, as the daemon does after a crash.
  std::map<std::string, std::string> RestartAndDump(size_t partitions,
                                                    const OpLogOptions& log_opts) {
    sgx::Enclave enclave2(TestEnclaveConfig("wal-sharding-b"));
    sgx::SealingService sealer2(AsBytes("fuse"), enclave2.measurement());
    PartitionedStore store2(enclave2, SmallOptions(), partitions);
    WriteAheadStore wal2(store2, *sealer_, *counters_, log_opts);
    EXPECT_TRUE(wal2.Open().ok());
    const Status restored = wal2.RestoreFromDisk(SnapshotDir());
    EXPECT_TRUE(restored.ok()) << restored.ToString();
    std::map<std::string, std::string> dump;
    for (size_t p = 0; p < store2.num_partitions(); ++p) {
      const Status walk = store2.partition(p).ForEachDecrypted(
          [&](std::string_view key, std::string_view value) {
            dump[std::string(key)] = std::string(value);
            return Status::Ok();
          });
      EXPECT_TRUE(walk.ok()) << walk.ToString();
    }
    return dump;
  }

  sgx::Enclave enclave_;
  std::string dir_;
  std::unique_ptr<sgx::MonotonicCounterService> counters_;
  std::unique_ptr<sgx::SealingService> sealer_;
};

TEST_F(WalShardingTest, OneShardPerPartitionRoutesWritesToOwningShardLog) {
  PartitionedStore store(enclave_, SmallOptions(), 4);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_EQ(wal.num_shards(), 4u);
  for (size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(wal.ShardOfPartition(p), p);
  }

  // Writing one key must grow exactly its partition's shard log.
  const std::string key = "routed-key";
  const size_t shard = wal.ShardOfPartition(store.PartitionOf(key));
  std::vector<uint64_t> before(4);
  for (size_t s = 0; s < 4; ++s) {
    before[s] = wal.ShardLogBytes(s);
  }
  ASSERT_TRUE(wal.Set(key, "v").ok());
  for (size_t s = 0; s < 4; ++s) {
    if (s == shard) {
      EXPECT_GT(wal.ShardLogBytes(s), before[s]);
    } else {
      EXPECT_EQ(wal.ShardLogBytes(s), before[s]);
    }
  }
  // Each shard has its own file on disk.
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(std::filesystem::exists(dir_ + "/wal.log.p" + std::to_string(s)));
  }
}

TEST_F(WalShardingTest, ShardCountClampsToPartitionsAndGroupsByModulo) {
  PartitionedStore store(enclave_, SmallOptions(), 4);
  OpLogOptions log_opts = LogOptions();
  log_opts.num_shards = 3;
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  EXPECT_EQ(wal.num_shards(), 3u);
  for (size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(wal.ShardOfPartition(p), p % 3);
  }

  OpLogOptions oversized = LogOptions();
  oversized.num_shards = 64;  // more shards than partitions is pointless
  WriteAheadStore clamped(store, *sealer_, *counters_, oversized);
  ASSERT_TRUE(clamped.Open().ok());
  EXPECT_EQ(clamped.num_shards(), 4u);
}

TEST_F(WalShardingTest, DurableWindowAcksSurviveRestart) {
  PartitionedStore store(enclave_, SmallOptions(), 4);
  OpLogOptions log_opts = LogOptions();
  log_opts.group_commit_window_us = 50;
  log_opts.group_commit_ops = 4;
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());

  // In durable-window mode an ack means fsync'd: the state on disk right
  // after the last ack must replay in full, no explicit commit required.
  std::map<std::string, std::string> acked;
  for (int i = 0; i < 40; ++i) {
    const std::string key = "durable-" + std::to_string(i);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(wal.Set(key, value).ok());
    acked[key] = value;
  }
  ASSERT_TRUE(wal.Delete("durable-0").ok());
  acked.erase("durable-0");

  const std::map<std::string, std::string> dump = RestartAndDump(4, log_opts);
  EXPECT_EQ(dump, acked);
}

TEST_F(WalShardingTest, CompactionBoundsLogGrowthWithZeroAckedLoss) {
  PartitionedStore store(enclave_, SmallOptions(), 4);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());

  constexpr size_t kThreshold = 4096;
  SelfHealOptions heal_opts;
  heal_opts.directory = SnapshotDir();
  heal_opts.scrub = false;
  heal_opts.compact_log_bytes = kThreshold;
  SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
  ASSERT_TRUE(healer.Start().ok());

  // Write >= 10x the threshold into every shard, ticking the maintenance
  // loop as a server would. Each shard's log must stay bounded: it can
  // overshoot by at most the bytes written between two of its compaction
  // turns (num_shards ticks apart), not grow with total traffic.
  std::map<std::string, std::string> acked;
  const std::string value(128, 'x');
  uint64_t written_bytes = 0;
  int i = 0;
  while (written_bytes < 10 * kThreshold * wal.num_shards()) {
    const std::string key = "compact-" + std::to_string(i % 512);
    ASSERT_TRUE(wal.Set(key, value).ok());
    acked[key] = value;
    written_bytes += key.size() + value.size();
    if (++i % 8 == 0) {
      healer.Tick();
    }
  }
  for (size_t t = 0; t < wal.num_shards(); ++t) {
    healer.Tick();  // let every shard take a final compaction turn
  }
  EXPECT_GE(healer.compactions(), wal.num_shards());
  // Bound: threshold + one inter-tick burst of records (8 per tick, times
  // the round-robin period) with framing slack.
  const uint64_t burst = 8 * wal.num_shards() * (value.size() + 64);
  for (size_t s = 0; s < wal.num_shards(); ++s) {
    EXPECT_LT(wal.ShardLogBytes(s), kThreshold + burst) << "shard " << s;
  }

  const std::map<std::string, std::string> dump = RestartAndDump(4, LogOptions());
  EXPECT_EQ(dump, acked);
}

class WalCompactionCrashTest
    : public WalShardingTest,
      public ::testing::WithParamInterface<WriteAheadStore::CompactionCrash> {};

TEST_P(WalCompactionCrashTest, CrashMidCompactionLosesNoAckedWrite) {
  PartitionedStore store(enclave_, SmallOptions(), 4);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  SelfHealOptions heal_opts;
  heal_opts.directory = SnapshotDir();
  heal_opts.scrub = false;
  SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
  ASSERT_TRUE(healer.Start().ok());

  std::map<std::string, std::string> acked;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "crash-" + std::to_string(i);
    const std::string value = "gen1-" + std::to_string(i);
    ASSERT_TRUE(wal.Set(key, value).ok());
    acked[key] = value;
  }

  // The injected crash aborts the compaction sequence at the parameterized
  // point; every shard either kept its old snapshot + full log or has the
  // new snapshot + (not yet truncated) log — both replay to `acked`.
  for (size_t s = 0; s < wal.num_shards(); ++s) {
    const Status crashed = wal.CompactShard(s, SnapshotDir(), GetParam());
    ASSERT_FALSE(crashed.ok()) << "injected crash must surface, shard " << s;
    EXPECT_GT(wal.ShardLogBytes(s), 8u) << "log must NOT be truncated after the crash";
  }

  const std::map<std::string, std::string> dump = RestartAndDump(4, LogOptions());
  EXPECT_EQ(dump, acked);

  // The surviving store compacts cleanly afterwards (the daemon that
  // restarts after the crash retries on its maintenance thread).
  for (size_t s = 0; s < wal.num_shards(); ++s) {
    const Status retried = wal.CompactShard(s, SnapshotDir());
    ASSERT_TRUE(retried.ok()) << retried.ToString();
    EXPECT_LE(wal.ShardLogBytes(s), 8u + 512u);  // header + epoch-bind commit record
  }
  EXPECT_EQ(RestartAndDump(4, LogOptions()), acked);
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashPoints, WalCompactionCrashTest,
    ::testing::Values(WriteAheadStore::CompactionCrash::kSnapshotTempWrite,
                      WriteAheadStore::CompactionCrash::kSnapshotRename,
                      WriteAheadStore::CompactionCrash::kBeforeTruncate),
    [](const auto& param_info) {
      switch (param_info.param) {
        case WriteAheadStore::CompactionCrash::kSnapshotTempWrite:
          return "AfterSnapshotTempWrite";
        case WriteAheadStore::CompactionCrash::kSnapshotRename:
          return "AfterSnapshotRename";
        default:
          return "BeforeLogTruncate";
      }
    });

TEST_F(WalShardingTest, CompactionRefusesQuarantinedPartition) {
  PartitionedStore store(enclave_, SmallOptions(), 2);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  SelfHealOptions heal_opts;
  heal_opts.directory = SnapshotDir();
  heal_opts.scrub = false;
  SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
  ASSERT_TRUE(healer.Start().ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(wal.Set("q-" + std::to_string(i), "v").ok());
  }
  // Quarantine partition 0 by feeding the facade's outcome tracker a
  // violation, as a detecting op would.
  ASSERT_FALSE(store
                   .WithPartitionLocked(
                       0, [](shieldstore::Store&) {
                         return Status(Code::kIntegrityFailure, "synthetic violation");
                       })
                   .ok());
  ASSERT_TRUE(store.IsQuarantined(0));
  const Status refused = wal.CompactShard(wal.ShardOfPartition(0), SnapshotDir());
  EXPECT_EQ(refused.code(), Code::kPartitionRecovering) << refused.ToString();
}

TEST_F(WalShardingTest, DirectRepartitionReturnsTypedErrorWhileWrapped) {
  PartitionedStore store(enclave_, SmallOptions(), 4);
  {
    WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
    ASSERT_TRUE(wal.Open().ok());
    const Status s = store.Repartition(2);
    EXPECT_EQ(s.code(), Code::kUnsupportedUnderWal) << s.ToString();
    EXPECT_EQ(store.num_partitions(), 4u);
  }
  // The pin lifts with the facade.
  EXPECT_TRUE(store.Repartition(2).ok());
  EXPECT_EQ(store.num_partitions(), 2u);
}

TEST_F(WalShardingTest, RepartitionThroughHealerResplitssLogsAndRebaselines) {
  PartitionedStore store(enclave_, SmallOptions(), 2);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  SelfHealOptions heal_opts;
  heal_opts.directory = SnapshotDir();
  heal_opts.scrub = false;
  SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
  ASSERT_TRUE(healer.Start().ok());

  std::map<std::string, std::string> acked;
  for (int i = 0; i < 48; ++i) {
    const std::string key = "repart-" + std::to_string(i);
    ASSERT_TRUE(wal.Set(key, "v" + std::to_string(i)).ok());
    acked[key] = "v" + std::to_string(i);
  }

  ASSERT_TRUE(healer.Repartition(6).ok());
  EXPECT_EQ(store.num_partitions(), 6u);
  EXPECT_EQ(wal.num_shards(), 6u);
  for (const auto& [key, value] : acked) {
    const Result<std::string> got = wal.Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(got.value(), value);
  }
  // Writes after the repartition land in the new shard layout and everything
  // — pre- and post-repartition acks — survives a restart.
  for (int i = 0; i < 12; ++i) {
    const std::string key = "post-" + std::to_string(i);
    ASSERT_TRUE(wal.Set(key, "p" + std::to_string(i)).ok());
    acked[key] = "p" + std::to_string(i);
  }
  // Legacy discipline: ack means logged, durable at the commit cadence —
  // quiesce (as a clean shutdown would) before simulating the restart.
  ASSERT_TRUE(wal.WithCommittedLog([] { return Status::Ok(); }).ok());
  EXPECT_EQ(RestartAndDump(6, LogOptions()), acked);
}

TEST_F(WalShardingTest, StandaloneRepartitionDumpsStateIntoNewShardLogs) {
  // No healer, no snapshots on disk: Repartition's fallback path dumps the
  // full state into the new shard logs, so a restart can still replay it.
  PartitionedStore store(enclave_, SmallOptions(), 4);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  std::map<std::string, std::string> acked;
  for (int i = 0; i < 32; ++i) {
    const std::string key = "dump-" + std::to_string(i);
    ASSERT_TRUE(wal.Set(key, "v" + std::to_string(i)).ok());
    acked[key] = "v" + std::to_string(i);
  }
  ASSERT_TRUE(wal.Repartition(2).ok());
  EXPECT_EQ(wal.num_shards(), 2u);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/wal.log.p2"));
  EXPECT_EQ(RestartAndDump(2, LogOptions()), acked);
}

TEST_F(WalShardingTest, StatsCountersTrackLoggingCommitsAndCompactions) {
  PartitionedStore store(enclave_, SmallOptions(), 4);
  OpLogOptions log_opts = LogOptions();
  log_opts.group_commit_ops = 8;  // make the auto-commit cadence observable
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  SelfHealOptions heal_opts;
  heal_opts.directory = SnapshotDir();
  heal_opts.scrub = false;
  SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
  ASSERT_TRUE(healer.Start().ok());

  const WalStats before = wal.Stats();
  EXPECT_EQ(before.shards, 4u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(wal.Set("stats-" + std::to_string(i), "v").ok());
  }
  WalStats after = wal.Stats();
  EXPECT_EQ(after.records_logged - before.records_logged, 100u);
  EXPECT_GT(after.commits, before.commits);  // auto-commit cadence fired
  EXPECT_GT(after.log_bytes, before.log_bytes);

  ASSERT_TRUE(wal.WithCommittedLog([] { return Status::Ok(); }).ok());
  after = wal.Stats();
  EXPECT_GE(after.fsyncs, wal.num_shards());  // every shard group-committed

  for (size_t s = 0; s < wal.num_shards(); ++s) {
    ASSERT_TRUE(wal.CompactShard(s, SnapshotDir()).ok());
  }
  EXPECT_EQ(wal.Stats().compactions - before.compactions, wal.num_shards());
  EXPECT_LT(wal.Stats().log_bytes, after.log_bytes);  // logs truncated
}

TEST_F(WalShardingTest, LegacySingleLogMigratesIntoShardedLayout) {
  // A PR 2 deployment left one global wal.log. The sharded store must
  // restore it, then retire it on the first baseline reset.
  OpLogOptions legacy = LogOptions();
  std::map<std::string, std::string> acked;
  {
    OperationLog log(*sealer_, *counters_, legacy);
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 24; ++i) {
      const std::string key = "legacy-" + std::to_string(i);
      ASSERT_TRUE(log.LogSet(key, "old-" + std::to_string(i)).ok());
      acked[key] = "old-" + std::to_string(i);
    }
    ASSERT_TRUE(log.Commit().ok());
  }

  PartitionedStore store(enclave_, SmallOptions(), 4);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.RestoreFromDisk(SnapshotDir()).ok());
  for (const auto& [key, value] : acked) {
    const Result<std::string> got = wal.Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(got.value(), value);
  }

  SelfHealOptions heal_opts;
  heal_opts.directory = SnapshotDir();
  heal_opts.scrub = false;
  SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
  ASSERT_TRUE(healer.Start().ok());  // baseline + ResetAllLogs retires the file
  EXPECT_FALSE(std::filesystem::exists(legacy.path));
  EXPECT_EQ(RestartAndDump(4, LogOptions()), acked);
}

TEST_F(WalShardingTest, ParallelReplayMatchesSequentialReplay) {
  // Populate via the sharded WAL, quiesce, then restore twice from the same
  // directory: once sequentially and once on the replay thread pool. Both
  // must reconstruct exactly the acked map — shard logs hold disjoint keys,
  // so their replay order cannot matter.
  PartitionedStore store(enclave_, SmallOptions(), 4);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  std::map<std::string, std::string> acked;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "par-" + std::to_string(i % 64);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(wal.Set(key, value).ok());
    acked[key] = value;
  }
  for (int i = 0; i < 10; ++i) {
    const std::string key = "par-" + std::to_string(i);
    ASSERT_TRUE(wal.Delete(key).ok());
    acked.erase(key);
  }
  ASSERT_TRUE(wal.WithCommittedLog([] { return Status::Ok(); }).ok());

  OpLogOptions sequential = LogOptions();
  sequential.replay_threads = 1;
  OpLogOptions parallel = LogOptions();
  parallel.replay_threads = 4;
  EXPECT_EQ(RestartAndDump(4, sequential), acked);
  EXPECT_EQ(RestartAndDump(4, parallel), acked);
}

TEST_F(WalShardingTest, ParallelReplayStillReplaysLegacyLogFirst) {
  // A legacy single-file log predates the shard split and may share keys
  // with every shard, so it must replay alone before the pool starts: shard
  // records were written after it and must win.
  OpLogOptions legacy = LogOptions();
  {
    OperationLog log(*sealer_, *counters_, legacy);
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 24; ++i) {
      ASSERT_TRUE(log.LogSet("mixed-" + std::to_string(i), "legacy").ok());
    }
    ASSERT_TRUE(log.Commit().ok());
  }
  std::map<std::string, std::string> acked;
  {
    PartitionedStore store(enclave_, SmallOptions(), 4);
    WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
    ASSERT_TRUE(wal.Open().ok());
    ASSERT_TRUE(wal.RestoreFromDisk(SnapshotDir()).ok());
    for (int i = 0; i < 24; ++i) {
      const std::string key = "mixed-" + std::to_string(i);
      acked[key] = i % 2 == 0 ? "sharded" : "legacy";
      if (i % 2 == 0) {
        ASSERT_TRUE(wal.Set(key, "sharded").ok());
      }
    }
    ASSERT_TRUE(wal.WithCommittedLog([] { return Status::Ok(); }).ok());
  }
  OpLogOptions parallel = LogOptions();
  parallel.replay_threads = 4;
  EXPECT_EQ(RestartAndDump(4, parallel), acked);
}

TEST_F(WalShardingTest, RestoreIsRouteAndGeometryAgnostic) {
  // Snapshot under 4 partitions, restore into a 2-partition store whose
  // route key differs: every key must re-route, re-encrypt, and read back.
  std::map<std::string, std::string> acked;
  {
    PartitionedStore store(enclave_, SmallOptions(), 4);
    WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
    ASSERT_TRUE(wal.Open().ok());
    SelfHealOptions heal_opts;
    heal_opts.directory = SnapshotDir();
    heal_opts.scrub = false;
    SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
    ASSERT_TRUE(healer.Start().ok());
    for (int i = 0; i < 40; ++i) {
      const std::string key = "geo-" + std::to_string(i);
      ASSERT_TRUE(wal.Set(key, "v" + std::to_string(i)).ok());
      acked[key] = "v" + std::to_string(i);
    }
    for (size_t s = 0; s < wal.num_shards(); ++s) {
      ASSERT_TRUE(wal.CompactShard(s, SnapshotDir()).ok());  // state → snapshots
    }
  }
  EXPECT_EQ(RestartAndDump(2, LogOptions()), acked);
}

TEST_F(WalShardingTest, ShardLocalMetricsRegisterPerShardSeries) {
  // Shard-local observability: each live WAL shard registers its own
  // record counter and log-size gauge in the injected registry, and fsync
  // latency lands in the shared wal.fsync_ns histogram — none of it in the
  // process-global registry.
  obs::Registry registry;
  PartitionedStore store(enclave_, SmallOptions(), 2);
  OpLogOptions log_opts = LogOptions();
  log_opts.metrics = &registry;
  log_opts.group_commit_ops = 4;  // every shard auto-commits within 64 sets
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_EQ(wal.num_shards(), 2u);

  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(wal.Set("m-" + std::to_string(i), "v").ok());
  }

  // Every append is attributed to exactly one shard's counter.
  uint64_t per_shard_total = 0;
  for (size_t s = 0; s < wal.num_shards(); ++s) {
    const std::string prefix = "wal.shard" + std::to_string(s);
    per_shard_total += registry.GetCounter(prefix + ".records").Value();
    // The gauge tracks file growth at commit cadence: past the 8-byte header.
    EXPECT_GT(registry.GetGauge(prefix + ".log_bytes").Value(), 8) << prefix;
  }
  EXPECT_EQ(per_shard_total, 64u);

  // Auto-commits fsynced each shard; the latency histogram saw every one.
  EXPECT_GE(registry.GetHistogram("wal.fsync_ns").Data().count, wal.num_shards());
}

// Adaptive group-commit window: near-empty batches (a solo synchronous
// writer) shrink the window toward the floor so singleton acks stop idling
// out the full cap; a burst that fills batches grows it back, 2x per commit,
// capped at the configured value. Deterministic: batch size alone drives the
// adaptation, never wall-clock arrival timing.
TEST_F(WalShardingTest, GroupCommitWindowAdaptsToBatchSize) {
  obs::Registry registry;
  PartitionedStore store(enclave_, SmallOptions(), 1);
  OpLogOptions log_opts = LogOptions();
  log_opts.group_commit_window_us = 3200;
  log_opts.group_commit_ops = 8;
  log_opts.metrics = &registry;
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  const uint32_t cap = 3200;
  const uint32_t floor_us = cap / 16;
  ASSERT_EQ(wal.shard_window_us(0), cap) << "window starts at the configured cap";

  // Solo writers: every commit is a batch of one, halving the window until
  // the floor. 3200 -> 1600 -> 800 -> 400 -> 200 (floor) in four commits.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(wal.Set("solo-" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ(wal.shard_window_us(0), floor_us);
  EXPECT_EQ(registry.GetGauge("wal.window_us").Value(), static_cast<int64_t>(floor_us));

  // Bursts: a batch with >= group_commit_ops mutations lands under ONE
  // commit handle, so each ExecuteBatch doubles the window back: 200 -> 400
  // -> 800 -> 1600 -> 3200, then pins at the cap.
  for (int round = 0; round < 6; ++round) {
    std::vector<kv::BatchOp> ops;
    for (int i = 0; i < 8; ++i) {
      kv::BatchOp op;
      op.type = kv::BatchOpType::kSet;
      op.key = "burst-" + std::to_string(round) + "-" + std::to_string(i);
      op.value = "v";
      ops.push_back(op);
    }
    for (const kv::BatchOpResult& r : wal.ExecuteBatch(ops)) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    }
  }
  EXPECT_EQ(wal.shard_window_us(0), cap) << "burst growth must saturate at the cap";
  EXPECT_EQ(registry.GetGauge("wal.window_us").Value(), static_cast<int64_t>(cap));
}

// Compaction under a parked writer. One writer's group is mid-commit (a
// real 2M-cycle counter bump), a second writer has appended behind it and
// is waiting for durability, and then the shard compacts. The parked writer
// must still be acked promptly: compaction once rewound the shard's sequence
// numbers to zero under it, so it waited for a sequence the shard would not
// reach again while the shard committed empty groups in a loop. Afterwards
// an idle shard must commit nothing.
TEST_F(WalShardingTest, ParkedWriterIsAckedAcrossCompactionAndIdleShardStaysQuiet) {
  sgx::MonotonicCounterService::Options counter_opts;
  counter_opts.backing_file = dir_ + "/slow-counters.bin";  // default bump cost
  sgx::MonotonicCounterService slow_counters(counter_opts);
  PartitionedStore store(enclave_, SmallOptions(), 1);
  OpLogOptions log_opts = LogOptions();
  log_opts.group_commit_window_us = 50;
  WriteAheadStore wal(store, *sealer_, slow_counters, log_opts);
  ASSERT_TRUE(wal.Open().ok());

  for (int trial = 0; trial < 20; ++trial) {
    std::atomic<int> acked{0};
    const std::string suffix = std::to_string(trial);
    std::thread first([&] {
      EXPECT_TRUE(wal.Set("first-" + suffix, "1").ok());
      acked.fetch_add(1);
    });
    std::this_thread::sleep_for(std::chrono::microseconds(300));  // its group is committing
    std::thread second([&] {
      EXPECT_TRUE(wal.Set("second-" + suffix, "2").ok());
      acked.fetch_add(1);
    });
    std::this_thread::sleep_for(std::chrono::microseconds(100));  // appended, now parked
    ASSERT_TRUE(wal.CompactShard(0, SnapshotDir()).ok());
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (acked.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (acked.load() < 2) {
      // The writers can never be joined; report and stop the binary here.
      std::fprintf(stderr, "trial %d: a writer parked across compaction was never acked\n",
                   trial);
      std::abort();
    }
    first.join();
    second.join();
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const uint64_t commits = wal.Stats().commits;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(wal.Stats().commits, commits) << "an idle shard kept committing empty groups";
  EXPECT_EQ(wal.Size(), 40u);
}

}  // namespace
}  // namespace shield
