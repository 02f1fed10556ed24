// Sharded write-ahead log: shard routing, durable group-commit acks,
// bounded-log compaction on an arena store (including its injected-crash
// matrix), the refusal of another geometry on restart, stats, and the
// refusal of a leftover pre-sharding single-log layout.
//
// Restart simulation: build a SECOND stack over the same durable state (same
// counter service, fresh enclave-drawn route key until the sealed one
// loads) and RestoreFromDisk — exactly what the daemon does at boot. An
// arena store restarts on a copy of its directory, since the live store
// still maps its heap files. Acked-write checks always go through that
// restored copy, never the live store's memory.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/faultinject/tamper.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"

namespace shield {
namespace {

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

// The daemon's durable store: per-partition arenas under `dir`/heap.
shieldstore::Options ArenaOptions(const std::string& dir) {
  shieldstore::Options o = SmallOptions();
  o.persist_dir = dir + "/heap";
  o.persist_capacity_bytes = 1 << 20;
  return o;
}

class WalShardingTest : public ::testing::Test {
 protected:
  WalShardingTest() : enclave_(TestEnclaveConfig("wal-sharding-a")) {
    // Keyed by pid AND fixture address: ctest runs each case of this binary
    // as its own process, and two processes can land `this` on the same
    // heap address.
    root_ = ::testing::TempDir() + "/wal_sharding_" + std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this));
    dir_ = root_ + "/node";
    std::filesystem::create_directories(dir_);
    sgx::MonotonicCounterService::Options counter_opts;
    counter_opts.backing_file = dir_ + "/counters.bin";
    counter_opts.increment_cost_cycles = 0;
    counters_ = std::make_unique<sgx::MonotonicCounterService>(counter_opts);
    sealer_ = std::make_unique<sgx::SealingService>(AsBytes("fuse"), enclave_.measurement());
  }
  ~WalShardingTest() override { std::filesystem::remove_all(root_); }

  OpLogOptions LogOptions() {
    OpLogOptions o;
    o.path = dir_ + "/wal.log";
    o.metrics = &registry_;
    return o;
  }
  std::string ColdDir() const { return dir_ + "/cold"; }

  // Boots a fresh stack over this test's durable state (a different enclave,
  // so a different per-process route key until Open loads the sealed one)
  // and restores it, as the daemon does after a crash. An arena store
  // restarts on a copy of the directory taken now: the live store still maps
  // its heap files, and two stores must not allocate in one file.
  std::map<std::string, std::string> RestartAndDump(size_t partitions,
                                                    const OpLogOptions& log_opts,
                                                    bool arena = false) {
    OpLogOptions opts = log_opts;
    shieldstore::Options options = SmallOptions();
    if (arena) {
      const std::string copy = root_ + "/restart" + std::to_string(restarts_++);
      std::filesystem::copy(dir_, copy, std::filesystem::copy_options::recursive);
      opts.path = copy + "/wal.log";
      options = ArenaOptions(copy);
    }
    sgx::Enclave enclave2(TestEnclaveConfig("wal-sharding-b"));
    PartitionedStore store2(enclave2, options, partitions);
    WriteAheadStore wal2(store2, *sealer_, *counters_, opts);
    const Status opened = wal2.Open();
    EXPECT_TRUE(opened.ok()) << opened.ToString();
    const Status restored = wal2.RestoreFromDisk();
    EXPECT_TRUE(restored.ok()) << restored.ToString();
    return Dump(store2);
  }

  // Every live entry of `store`, straight from its partitions.
  static std::map<std::string, std::string> Dump(PartitionedStore& store) {
    std::map<std::string, std::string> dump;
    for (size_t p = 0; p < store.num_partitions(); ++p) {
      const Status walk = store.partition(p).ForEachDecrypted(
          [&](std::string_view key, std::string_view value) {
            dump[std::string(key)] = std::string(value);
            return Status::Ok();
          });
      EXPECT_TRUE(walk.ok()) << walk.ToString();
    }
    return dump;
  }

  obs::Registry registry_;  // this test's WALs only (LogOptions)
  sgx::Enclave enclave_;
  std::string root_;  // removed at teardown
  std::string dir_;   // the durable state: WAL, heap files, cold copies
  int restarts_ = 0;
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
  oversized.path = dir_ + "/wal2.log";  // the first WAL's epoch names 3 shards
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
  PartitionedStore store(enclave_, ArenaOptions(dir_), 4);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());

  constexpr size_t kThreshold = 4096;
  SelfHealOptions heal_opts;
  heal_opts.directory = ColdDir();
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
  EXPECT_GE(wal.Stats().compactions, wal.num_shards());
  // Bound: threshold + one inter-tick burst of records (8 per tick, times
  // the round-robin period) with framing slack.
  const uint64_t burst = 8 * wal.num_shards() * (value.size() + 64);
  for (size_t s = 0; s < wal.num_shards(); ++s) {
    EXPECT_LT(wal.ShardLogBytes(s), kThreshold + burst) << "shard " << s;
  }

  const std::map<std::string, std::string> dump = RestartAndDump(4, LogOptions(), true);
  EXPECT_EQ(dump, acked);
}

// A heap-only WAL (no persistent heap) has the empty store as its baseline:
// compaction is unsupported, the healer never compacts, and every restart
// replays the whole history.
TEST_F(WalShardingTest, HeapOnlyWalKeepsItsWholeHistory) {
  PartitionedStore store(enclave_, SmallOptions(), 2);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  SelfHealOptions heal_opts;
  heal_opts.scrub = false;
  heal_opts.compact_log_bytes = 256;
  SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
  ASSERT_TRUE(healer.Start().ok());
  std::map<std::string, std::string> acked;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "whole-" + std::to_string(i % 16);
    ASSERT_TRUE(wal.Set(key, "v" + std::to_string(i)).ok());
    acked[key] = "v" + std::to_string(i);
    healer.Tick();
  }
  EXPECT_EQ(wal.CompactShard(0, ColdDir()).code(), Code::kUnsupported);
  EXPECT_EQ(wal.Stats().compactions, 0u);
  EXPECT_FALSE(std::filesystem::exists(ColdDir()));
  EXPECT_EQ(RestartAndDump(2, LogOptions()), acked);
}

class WalCompactionCrashTest
    : public WalShardingTest,
      public ::testing::WithParamInterface<WriteAheadStore::CompactionCrash> {};

TEST_P(WalCompactionCrashTest, CrashMidCompactionLosesNoAckedWrite) {
  SelfHealOptions heal_opts;
  heal_opts.directory = ColdDir();
  heal_opts.scrub = false;
  std::map<std::string, std::string> acked;
  const auto write = [&](WriteAheadStore& wal, const std::string& generation) {
    for (int i = 0; i < 64; ++i) {
      const std::string key = "crash-" + std::to_string(i);
      const std::string value = generation + "-" + std::to_string(i);
      ASSERT_TRUE(wal.Set(key, value).ok());
      acked[key] = value;
    }
  };
  const bool latches = GetParam() == WriteAheadStore::CompactionCrash::kGenerationSwitch;
  {
    PartitionedStore store(enclave_, ArenaOptions(dir_), 4);
    WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
    ASSERT_TRUE(wal.Open().ok());
    SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
    ASSERT_TRUE(healer.Start().ok());
    ASSERT_NO_FATAL_FAILURE(write(wal, "gen1"));
    // A first, clean compaction: the crash below hits shards whose
    // partitions' heal baseline is a cold copy.
    for (size_t s = 0; s < wal.num_shards(); ++s) {
      ASSERT_TRUE(wal.CompactShard(s, ColdDir()).ok());
    }
    ASSERT_NO_FATAL_FAILURE(write(wal, "gen2"));

    // The injected crash aborts the compaction sequence at the parameterized
    // point; every shard either kept its old arena generation + full log or
    // has the new one + the (not yet replaced) old log generation — both
    // replay to `acked`.
    for (size_t s = 0; s < wal.num_shards(); ++s) {
      const Status crashed = wal.CompactShard(s, ColdDir(), GetParam());
      ASSERT_FALSE(crashed.ok()) << "injected crash must surface, shard " << s;
      if (!latches) {
        EXPECT_GT(wal.ShardLogBytes(s), 8u) << "log must NOT be truncated after the crash";
      }
    }
    EXPECT_EQ(RestartAndDump(4, LogOptions(), true), acked);
  }  // the process dies here

  // The restart on the crashed directory: Start() rewrites each cold copy
  // the crash left behind its arena, so a tamper then heals from the cold
  // copy plus the untruncated log.
  PartitionedStore store(enclave_, ArenaOptions(dir_), 4);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
  ASSERT_TRUE(healer.Restore().ok());
  ASSERT_TRUE(healer.Start().ok());
  for (size_t p = 0; p < store.num_partitions(); ++p) {
    EXPECT_FALSE(store.ColdCopyBehind(p, ColdDir())) << "partition " << p;
  }
  faultinject::TamperAgent agent(0x5eed);
  ASSERT_TRUE(store
                  .WithPartitionLocked(0, [&](shieldstore::Store& p) {
                    return agent.Tamper(p, faultinject::TamperMode::kBitFlipCiphertext);
                  })
                  .ok());
  EXPECT_FALSE(store.ScrubAll().ok());
  ASSERT_TRUE(store.IsQuarantined(0));
  healer.Tick();
  ASSERT_FALSE(store.IsQuarantined(0)) << healer.last_error().ToString();
  EXPECT_EQ(Dump(store), acked);

  // The restarted store compacts cleanly (the daemon retries on its
  // maintenance thread).
  for (size_t s = 0; s < wal.num_shards(); ++s) {
    const Status retried = wal.CompactShard(s, ColdDir());
    ASSERT_TRUE(retried.ok()) << retried.ToString();
    EXPECT_LE(wal.ShardLogBytes(s), 8u + 512u);  // header + epoch-bind commit record
  }
  EXPECT_EQ(RestartAndDump(4, LogOptions(), true), acked);
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashPoints, WalCompactionCrashTest,
    ::testing::Values(WriteAheadStore::CompactionCrash::kColdCopyTempWrite,
                      WriteAheadStore::CompactionCrash::kColdCopyRename,
                      WriteAheadStore::CompactionCrash::kBeforeTruncate,
                      WriteAheadStore::CompactionCrash::kGenerationSwitch),
    [](const auto& param_info) {
      switch (param_info.param) {
        case WriteAheadStore::CompactionCrash::kColdCopyTempWrite:
          return "AfterColdCopyTempWrite";
        case WriteAheadStore::CompactionCrash::kColdCopyRename:
          return "AfterColdCopyRename";
        case WriteAheadStore::CompactionCrash::kGenerationSwitch:
          return "InsideGenerationSwitch";
        default:
          return "BeforeLogTruncate";
      }
    });

TEST_F(WalShardingTest, CompactionRefusesQuarantinedPartition) {
  PartitionedStore store(enclave_, ArenaOptions(dir_), 2);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  SelfHealOptions heal_opts;
  heal_opts.directory = ColdDir();
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
  const Status refused = wal.CompactShard(wal.ShardOfPartition(0), ColdDir());
  EXPECT_EQ(refused.code(), Code::kPartitionRecovering) << refused.ToString();
}

TEST_F(WalShardingTest, StatsCountersTrackLoggingCommitsAndCompactions) {
  PartitionedStore store(enclave_, ArenaOptions(dir_), 4);
  OpLogOptions log_opts = LogOptions();
  log_opts.group_commit_ops = 8;  // a group closes at 8 records, window or not
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  SelfHealOptions heal_opts;
  heal_opts.directory = ColdDir();
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
  EXPECT_GT(after.commits, before.commits);  // every ack waited for its group's commit
  EXPECT_GT(after.log_bytes, before.log_bytes);

  EXPECT_GE(after.fsyncs, wal.num_shards());  // every shard group-committed

  for (size_t s = 0; s < wal.num_shards(); ++s) {
    ASSERT_TRUE(wal.CompactShard(s, ColdDir()).ok());
  }
  EXPECT_EQ(wal.Stats().compactions - before.compactions, wal.num_shards());
  EXPECT_LT(wal.Stats().log_bytes, after.log_bytes);  // logs truncated
}

// Default options are the daemon's discipline: a submitted set requires its
// record, and Set returns only once the durability watch covers it.
TEST_F(WalShardingTest, DefaultOptionsAckOnlyDurableWrites) {
  PartitionedStore store(enclave_, SmallOptions(), 2);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  kv::DurabilityRequirement requirement;
  const std::vector<kv::BatchOpResult> results =
      wal.SubmitBatch({{kv::BatchOpType::kSet, "durable", "v1"}}, requirement);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  ASSERT_EQ(requirement.shards.size(), 1u);
  const auto [shard, seq] = requirement.shards[0];

  ASSERT_TRUE(wal.Set("durable", "v2").ok());  // the same shard's next record
  kv::DurabilityRequirement set_requirement;
  set_requirement.Require(shard, seq + 1);
  Status failure;
  EXPECT_EQ(wal.durability_watch()->Check(set_requirement, &failure),
            kv::DurabilityWatch::State::kDurable);
}

TEST_F(WalShardingTest, LeftoverUnshardedLogRefusesRestore) {
  // A pre-sharding deployment left one global wal.log that may hold acked
  // records no snapshot covers. Restore must refuse, naming the file, and
  // leave it in place: never boot without its records.
  // Its bytes never matter: the file being there is what stops the restore.
  const OpLogOptions unsharded = LogOptions();
  {
    std::ofstream legacy(unsharded.path, std::ios::binary);
    legacy << "a pre-sharding log holding acked records";
  }
  PartitionedStore store(enclave_, SmallOptions(), 4);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  SelfHealOptions heal_opts;
  heal_opts.scrub = false;
  SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
  const Status refused = healer.Restore();
  EXPECT_EQ(refused.code(), Code::kUnsupported) << refused.ToString();
  EXPECT_NE(refused.message().find(unsharded.path), std::string::npos) << refused.ToString();
  EXPECT_TRUE(std::filesystem::exists(unsharded.path));
  EXPECT_EQ(store.Size(), 0u);
}

TEST_F(WalShardingTest, ParallelReplayMatchesSequentialReplay) {
  // Populate via the sharded WAL, quiesce, then restore twice from the same
  // directory on the replay thread pool (one log per thread, up to the
  // hardware). Both must reconstruct exactly the acked map — shard logs hold
  // disjoint keys, so their replay order cannot matter.
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

  EXPECT_EQ(RestartAndDump(4, LogOptions()), acked);
  EXPECT_EQ(RestartAndDump(4, LogOptions()), acked);
}

// The geometry is fixed per heal directory: the route key is sealed with the
// partition count and each epoch names every shard. A restart with 2 of 4
// partitions and half the buckets (so each arena file's own geometry still
// matches) would attach p0/p1, ignore p2/p3 and route keys into chains that
// do not hold them; it is refused, naming both counts, as is another shard
// count. Restarting with the original geometry then serves every key, on an
// arena store and on a heap-only one alike.
TEST_F(WalShardingTest, RestartWithAnotherGeometryIsRefused) {
  for (const bool arena : {true, false}) {
    SCOPED_TRACE(arena ? "arena store" : "heap-only store");
    const std::string base = dir_ + (arena ? "/arena" : "/heap-only");
    std::filesystem::create_directories(base);
    OpLogOptions log_opts = LogOptions();
    log_opts.path = base + "/wal.log";
    SelfHealOptions heal_opts;
    heal_opts.directory = base + "/cold";
    heal_opts.scrub = false;
    const auto options = [&](size_t buckets) {
      shieldstore::Options o = arena ? ArenaOptions(base) : SmallOptions();
      o.num_buckets = buckets;
      return o;
    };
    std::map<std::string, std::string> acked;
    {
      PartitionedStore store(enclave_, options(512), 4);
      WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
      ASSERT_TRUE(wal.Open().ok());
      SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
      ASSERT_TRUE(healer.Restore().ok());
      ASSERT_TRUE(healer.Start().ok());
      for (int i = 0; i < 64; ++i) {
        const std::string key = "geo-" + std::to_string(i);
        ASSERT_TRUE(wal.Set(key, "v" + std::to_string(i)).ok());
        acked[key] = "v" + std::to_string(i);
      }
      if (arena) {
        ASSERT_TRUE(wal.CompactShard(0, heal_opts.directory).ok());  // some keys in the arena
      }
    }
    {
      sgx::Enclave enclave(TestEnclaveConfig("wal-sharding-b"));
      PartitionedStore halved(enclave, options(256), 2);
      WriteAheadStore wal(halved, *sealer_, *counters_, log_opts);
      const Status refused = wal.Open();
      EXPECT_EQ(refused.code(), Code::kInvalidArgument) << refused.ToString();
      EXPECT_NE(refused.message().find("4 partitions"), std::string::npos) << refused.ToString();
      EXPECT_NE(refused.message().find("has 2"), std::string::npos) << refused.ToString();
    }
    {
      sgx::Enclave enclave(TestEnclaveConfig("wal-sharding-c"));
      PartitionedStore store(enclave, options(512), 4);
      OpLogOptions two_shards = log_opts;
      two_shards.num_shards = 2;
      WriteAheadStore wal(store, *sealer_, *counters_, two_shards);
      const Status refused = wal.Open();
      EXPECT_EQ(refused.code(), Code::kInvalidArgument) << refused.ToString();
      EXPECT_NE(refused.message().find("4 shards"), std::string::npos) << refused.ToString();
      EXPECT_NE(refused.message().find("has 2"), std::string::npos) << refused.ToString();
    }
    sgx::Enclave enclave(TestEnclaveConfig("wal-sharding-d"));
    PartitionedStore store(enclave, options(512), 4);
    WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
    ASSERT_TRUE(wal.Open().ok());
    SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
    ASSERT_TRUE(healer.Restore().ok());
    EXPECT_EQ(Dump(store), acked);
  }
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
  log_opts.group_commit_ops = 4;  // a group closes at 4 records, window or not
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

  // Each ack's group commit fsynced its shard; the latency histogram saw
  // every one.
  EXPECT_GE(registry.GetHistogram("wal.fsync_ns").Data().count, wal.num_shards());
}

// Open of an existing log publishes its size: the log-bytes gauges read the
// file's bytes before the first commit, not 0 until one.
TEST_F(WalShardingTest, LogBytesGaugesAreCurrentRightAfterReopen) {
  PartitionedStore store(enclave_, SmallOptions(), 2);
  {
    WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
    ASSERT_TRUE(wal.Open().ok());
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(wal.Set("reopen-" + std::to_string(i), "v").ok());
    }
  }  // closing commits each shard's tail
  obs::Registry fresh;
  OpLogOptions log_opts = LogOptions();
  log_opts.metrics = &fresh;
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_EQ(fresh.GetCounter("wal.commits").Value(), 0u);  // nothing committed yet
  int64_t total = 0;
  for (size_t s = 0; s < wal.num_shards(); ++s) {
    const auto bytes = static_cast<int64_t>(wal.ShardLogBytes(s));
    EXPECT_GT(bytes, 8) << "shard " << s << " holds only its header";
    EXPECT_EQ(fresh.GetGauge("wal.shard" + std::to_string(s) + ".log_bytes").Value(), bytes)
        << "shard " << s;
    total += bytes;
  }
  EXPECT_EQ(fresh.GetGauge("wal.log_bytes").Value(), total);
}

// The group-commit window is the configured value, whatever the batch sizes:
// solo writes (batches of one) and full-group bursts leave it alone, and
// wal.window_us reports it in the registry.
TEST_F(WalShardingTest, GroupCommitWindowIsTheConfiguredValue) {
  obs::Registry registry;
  PartitionedStore store(enclave_, SmallOptions(), 1);
  OpLogOptions log_opts = LogOptions();
  const uint32_t window_us = 3200;
  log_opts.group_commit_window_us = window_us;
  log_opts.group_commit_ops = 8;
  log_opts.metrics = &registry;
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  const auto expect_configured = [&](const char* phase) {
    const obs::MetricsSnapshot snap = registry.Snapshot();
    EXPECT_EQ(snap.GaugeValue("wal.window_us", -1), static_cast<int64_t>(window_us)) << phase;
  };
  expect_configured("at open");

  // Solo writers: every commit is a batch of one.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(wal.Set("solo-" + std::to_string(i), "v").ok());
  }
  expect_configured("after solo writes");

  // Bursts: each batch of group_commit_ops mutations fills one group.
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
  expect_configured("after bursts");
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
  PartitionedStore store(enclave_, ArenaOptions(dir_), 1);
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
    ASSERT_TRUE(wal.CompactShard(0, ColdDir()).ok());
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
