// Counter epochs: one monotonic counter for the whole sharded WAL, bumped
// once per epoch record that binds every shard's head. Covers the rollback
// battery (a shard log, the epoch file, or a pre-compaction generation put
// back), the refusal of a heal dir from before counter epochs, the
// crash-point matrix of the commit path, a slow replication sink on one
// shard, and the epoch metrics.
//
// Restart simulation: a SECOND stack over the same directory and counter
// backing file, as the daemon boots after a crash (see wal_sharding_test).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"

namespace shield {
namespace {

using shieldstore::OpLogOptions;
using shieldstore::PartitionedStore;
using shieldstore::SelfHealer;
using shieldstore::SelfHealOptions;
using shieldstore::WriteAheadStore;

sgx::EnclaveConfig TestEnclaveConfig(const char* seed) {
  sgx::EnclaveConfig c;
  c.name = "wal-epoch-test";
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

using KeyMap = std::map<std::string, std::string>;

class WalEpochTest : public ::testing::Test {
 protected:
  WalEpochTest() : enclave_(TestEnclaveConfig("wal-epoch-a")) {
    root_ = ::testing::TempDir() + "/wal_epoch_" + std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<uintptr_t>(this));
    dir_ = root_ + "/node";
    std::filesystem::create_directories(dir_);
    sgx::MonotonicCounterService::Options counter_opts;
    counter_opts.backing_file = dir_ + "/counters.bin";
    counter_opts.increment_cost_cycles = 0;
    counters_ = std::make_unique<sgx::MonotonicCounterService>(counter_opts);
    sealer_ = std::make_unique<sgx::SealingService>(AsBytes("fuse"), enclave_.measurement());
  }
  ~WalEpochTest() override { std::filesystem::remove_all(root_); }

  // Durable acks: every Set returns only once an epoch covers it.
  OpLogOptions LogOptions() {
    OpLogOptions o;
    o.path = dir_ + "/wal.log";
    o.metrics = &registry_;
    o.group_commit_window_us = 100;
    return o;
  }
  std::string ColdDir() const { return dir_ + "/cold"; }
  std::string ShardPath(size_t shard) const {
    return dir_ + "/wal.log.p" + std::to_string(shard);
  }
  SelfHealOptions HealOptions() const {
    SelfHealOptions o;
    o.directory = ColdDir();
    o.scrub = false;
    return o;
  }

  // The i-th key (of a fixed sequence) that routes to `shard`.
  static std::string KeyOnShard(PartitionedStore& store, WriteAheadStore& wal, size_t shard,
                                int i, const std::string& prefix) {
    for (int n = 0;; ++n) {
      const std::string key = prefix + std::to_string(n);
      if (wal.ShardOfPartition(store.PartitionOf(key)) == shard && i-- == 0) {
        return key;
      }
    }
  }

  static KeyMap Dump(PartitionedStore& store) {
    KeyMap dump;
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

  // Boots a second stack over the durable state: the Open status, then the
  // RestoreFromDisk status and what it restored. An arena store restarts on
  // a copy of the directory taken now (the live store still maps its heap
  // files).
  struct Restarted {
    Status opened;
    Status restored;
    KeyMap dump;
  };
  Restarted Restart(size_t partitions, bool arena = false) {
    OpLogOptions opts = LogOptions();
    shieldstore::Options options = SmallOptions();
    if (arena) {
      const std::string copy = root_ + "/restart" + std::to_string(restarts_++);
      std::filesystem::copy(dir_, copy, std::filesystem::copy_options::recursive);
      opts.path = copy + "/wal.log";
      options = ArenaOptions(copy);
    }
    sgx::Enclave enclave2(TestEnclaveConfig("wal-epoch-b"));
    PartitionedStore store2(enclave2, options, partitions);
    obs::Registry registry;
    opts.metrics = &registry;
    WriteAheadStore wal2(store2, *sealer_, *counters_, opts);
    Restarted r;
    r.opened = wal2.Open();
    r.restored = wal2.RestoreFromDisk();
    r.dump = Dump(store2);
    return r;
  }

  static void ExpectRollback(const Restarted& r) {
    EXPECT_EQ(r.opened.code(), Code::kRollbackDetected) << r.opened.ToString();
    EXPECT_EQ(r.restored.code(), Code::kRollbackDetected) << r.restored.ToString();
  }

  // Quarantines partition `p` as a detecting op would, then lets the healer
  // try to rebuild it; returns the recovery's status.
  static Status HealPartition(PartitionedStore& store, SelfHealer& healer, size_t p) {
    EXPECT_FALSE(store
                     .WithPartitionLocked(p, [](shieldstore::Store&) {
                       return Status(Code::kIntegrityFailure, "synthetic violation");
                     })
                     .ok());
    EXPECT_TRUE(store.IsQuarantined(p));
    healer.Tick();
    return store.IsQuarantined(p) ? healer.last_error() : Status::Ok();
  }

  obs::Registry registry_;
  sgx::Enclave enclave_;
  std::unique_ptr<sgx::MonotonicCounterService> counters_;
  std::unique_ptr<sgx::SealingService> sealer_;
  std::string root_;  // removed at teardown
  std::string dir_;   // the durable state
  int restarts_ = 0;
};

// ------------------------------------------------------- rollback battery

TEST_F(WalEpochTest, ShardLogRolledBackWhileOtherShardStaysCurrentIsDetected) {
  PartitionedStore store(enclave_, ArenaOptions(dir_), 2);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  SelfHealer healer(wal, *sealer_, *counters_, HealOptions());
  ASSERT_TRUE(healer.Start().ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(wal.Set("early-" + std::to_string(i), "v").ok());
  }
  const std::string copy = dir_ + "/p0.earlier";
  std::filesystem::copy_file(ShardPath(0), copy);
  for (size_t shard = 0; shard < 2; ++shard) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(wal.Set(KeyOnShard(store, wal, shard, i, "late-"), "v").ok());
    }
  }
  // Shard 0 goes back to a copy that was committed once; shard 1 stays.
  std::filesystem::copy_file(copy, ShardPath(0),
                             std::filesystem::copy_options::overwrite_existing);

  // The live healer replays shard 0 up to the head its epoch covers.
  EXPECT_EQ(HealPartition(store, healer, 0).code(), Code::kRollbackDetected);
  ExpectRollback(Restart(2, true));
}

TEST_F(WalEpochTest, EpochFileRolledBackIsDetected) {
  PartitionedStore store(enclave_, SmallOptions(), 2);
  {
    WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
    ASSERT_TRUE(wal.Open().ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(wal.Set("early-" + std::to_string(i), "v").ok());
    }
    std::filesystem::copy_file(dir_ + "/wal.log.epoch", dir_ + "/epoch.earlier");
    for (int i = 0; i < 8; ++i) {  // one bump each: both slots move on
      ASSERT_TRUE(wal.Set("late-" + std::to_string(i), "v").ok());
    }
  }
  std::filesystem::copy_file(dir_ + "/epoch.earlier", dir_ + "/wal.log.epoch",
                             std::filesystem::copy_options::overwrite_existing);
  ExpectRollback(Restart(2));
}

TEST_F(WalEpochTest, ShardSwappedForItsPreCompactionGenerationIsDetected) {
  PartitionedStore store(enclave_, ArenaOptions(dir_), 2);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  SelfHealer healer(wal, *sealer_, *counters_, HealOptions());
  ASSERT_TRUE(healer.Start().ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(wal.Set("gen-" + std::to_string(i), "v").ok());
  }
  const std::string copy = dir_ + "/p0.pre-compaction";
  std::filesystem::copy_file(ShardPath(0), copy);
  ASSERT_TRUE(wal.CompactShard(0, ColdDir()).ok());
  // The new generation holds no record yet: only its generation tells it
  // apart from the old file.
  std::filesystem::copy_file(copy, ShardPath(0),
                             std::filesystem::copy_options::overwrite_existing);

  EXPECT_EQ(HealPartition(store, healer, 0).code(), Code::kRollbackDetected);
  ExpectRollback(Restart(2, true));
}

// A heal dir from the release before counter epochs: committed shard logs
// and no epoch file. Refused, naming the file, with the file left intact.
TEST_F(WalEpochTest, PreEpochShardLogRefusesRestore) {
  OpLogOptions legacy = LogOptions();
  legacy.path = ShardPath(0);
  {
    std::ofstream log(legacy.path, std::ios::binary);
    log << "a shard log holding records acked before counter epochs";
  }
  const auto size = std::filesystem::file_size(legacy.path);
  const Restarted r = Restart(2);
  for (const Status& st : {r.opened, r.restored}) {
    EXPECT_EQ(st.code(), Code::kUnsupported) << st.ToString();
    EXPECT_NE(st.message().find(legacy.path), std::string::npos) << st.ToString();
  }
  EXPECT_TRUE(r.dump.empty());
  EXPECT_EQ(std::filesystem::file_size(legacy.path), size);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/wal.log.epoch"));
}

// ---------------------------------------------------- crash-point matrix

enum class Crash { kBeforeShardFsync, kAfterShardFsync, kBetweenEpochFsyncAndBump, kGenerationSwitch };

class WalEpochCrashTest : public WalEpochTest, public ::testing::WithParamInterface<Crash> {};

// The process "dies" at the injected point: from there on nothing it writes
// is acked. Every write acked before must survive two restarts, which must
// agree with each other (recovery is repeatable).
TEST_P(WalEpochCrashTest, CrashLosesNoAckedWriteAndRestartIsRepeatable) {
  PartitionedStore store(enclave_, ArenaOptions(dir_), 4);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  SelfHealer healer(wal, *sealer_, *counters_, HealOptions());
  ASSERT_TRUE(healer.Start().ok());
  KeyMap acked;
  for (int i = 0; i < 32; ++i) {
    const std::string key = "before-" + std::to_string(i);
    ASSERT_TRUE(wal.Set(key, "v" + std::to_string(i)).ok());
    acked[key] = "v" + std::to_string(i);
  }
  switch (GetParam()) {
    case Crash::kBeforeShardFsync:
      wal.InjectCommitCrash(WriteAheadStore::CommitCrash::kBeforeShardFsync);
      break;
    case Crash::kAfterShardFsync:
      wal.InjectCommitCrash(WriteAheadStore::CommitCrash::kAfterShardFsync);
      break;
    case Crash::kBetweenEpochFsyncAndBump:
      wal.InjectCommitCrash(WriteAheadStore::CommitCrash::kBetweenEpochFsyncAndBump);
      break;
    case Crash::kGenerationSwitch:
      ASSERT_FALSE(
          wal.CompactShard(0, ColdDir(), WriteAheadStore::CompactionCrash::kGenerationSwitch)
              .ok());
      break;
  }
  std::string first_lost;
  for (int i = 0; i < 32; ++i) {
    const std::string key = "after-" + std::to_string(i);
    if (wal.Set(key, "w").ok()) {
      acked[key] = "w";
    } else if (first_lost.empty()) {
      first_lost = key;
    }
  }
  ASSERT_FALSE(first_lost.empty()) << "the crash point was never reached";

  const Restarted first = Restart(4, true);
  ASSERT_TRUE(first.opened.ok()) << first.opened.ToString();
  ASSERT_TRUE(first.restored.ok()) << first.restored.ToString();
  for (const auto& [key, value] : acked) {
    auto it = first.dump.find(key);
    ASSERT_NE(it, first.dump.end()) << "acked " << key << " lost";
    EXPECT_EQ(it->second, value) << key;
  }
  if (GetParam() == Crash::kBetweenEpochFsyncAndBump) {
    // Its epoch record was fsync'd before the crash: recovery completes
    // the bump, so the write nobody was told about survives.
    EXPECT_EQ(first.dump.count(first_lost), 1u) << first_lost << " was not rolled forward";
  }
  const Restarted second = Restart(4, true);
  ASSERT_TRUE(second.opened.ok()) << second.opened.ToString();
  ASSERT_TRUE(second.restored.ok()) << second.restored.ToString();
  EXPECT_EQ(second.dump, first.dump);
}

INSTANTIATE_TEST_SUITE_P(AllCrashPoints, WalEpochCrashTest,
                         ::testing::Values(Crash::kBeforeShardFsync, Crash::kAfterShardFsync,
                                           Crash::kBetweenEpochFsyncAndBump,
                                           Crash::kGenerationSwitch),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case Crash::kBeforeShardFsync:
                               return "BeforeShardFsync";
                             case Crash::kAfterShardFsync:
                               return "AfterShardFsync";
                             case Crash::kBetweenEpochFsyncAndBump:
                               return "BetweenEpochFsyncAndBump";
                             default:
                               return "InsideGenerationSwitch";
                           }
                         });

// ------------------------------------------------ slow sink, one shard

// Blocks shard 0's ShipCommitted until released; ships every other shard.
class LatchedSink : public shieldstore::ReplicationSink {
 public:
  Status ShipCommitted(size_t shard, uint64_t, std::vector<shieldstore::ReplicatedOp>) override {
    if (shard == 0) {
      std::unique_lock<std::mutex> lock(mu_);
      blocked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return Status::Ok();
  }
  void AwaitBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return blocked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool blocked_ = false;
  bool released_ = false;
};

// A shard's group is acked once it is fsync'd, shipped and covered by a
// bump: a sink stuck on shard 0 holds shard 0's acks and no other shard's.
TEST_F(WalEpochTest, SlowSinkOnOneShardDoesNotHoldOtherShardsAcks) {
  PartitionedStore store(enclave_, SmallOptions(), 2);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  LatchedSink sink;
  wal.SetReplicationSink(&sink);
  const auto set_on = [&](size_t shard) {
    return std::async(std::launch::async, [&wal, &store, shard] {
      const std::vector<kv::BatchOp> ops = {
          {kv::BatchOpType::kSet, KeyOnShard(store, wal, shard, 0, "sink-"), "v", 0}};
      return wal.ExecuteBatch(ops)[0].status;
    });
  };
  std::future<Status> stuck = set_on(0);
  sink.AwaitBlocked();
  std::future<Status> other = set_on(1);
  const bool acked = other.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  sink.Release();  // whatever happened, let both finish before asserting
  ASSERT_TRUE(acked) << "shard 1's ack waited for shard 0's sink";
  EXPECT_TRUE(other.get().ok());
  EXPECT_TRUE(stuck.get().ok());
  wal.SetReplicationSink(nullptr);
}

// ----------------------------------------------------------- observability

TEST_F(WalEpochTest, EpochMetricsCountBumpsAndTheRecordsTheyCover) {
  PartitionedStore store(enclave_, SmallOptions(), 4);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  std::vector<kv::BatchOp> ops;
  for (int i = 0; i < 64; ++i) {
    ops.push_back({kv::BatchOpType::kSet, "m-" + std::to_string(i), "v", 0});
  }
  for (int round = 0; round < 4; ++round) {
    for (const kv::BatchOpResult& r : wal.ExecuteBatch(ops)) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    }
  }
  const uint64_t epochs = registry_.GetCounter("wal.epochs").Value();
  EXPECT_GE(epochs, 1u);
  EXPECT_LE(epochs, registry_.GetCounter("wal.commits").Value());
  // Every acked record was made durable by exactly one bump.
  const obs::HistogramData per_bump = registry_.GetHistogram("wal.epoch_records").Data();
  EXPECT_EQ(per_bump.count, epochs);
  EXPECT_EQ(per_bump.sum, registry_.GetCounter("wal.records").Value());
  EXPECT_EQ(registry_.GetHistogram("wal.counter_bump_ns").Data().count, epochs);
  // Each bumped record was fsync'd first (and may have been rewritten as
  // more groups turned ready while the previous bump spun).
  EXPECT_GE(registry_.GetHistogram("wal.epoch_fsync_ns").Data().count, epochs);
}

}  // namespace
}  // namespace shield
