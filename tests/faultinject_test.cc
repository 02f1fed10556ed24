// Adversarial fault-injection matrix: every TamperAgent mode must be
// detected with its exact status code (no crash, no hang, no silent wrong
// answer), partitions quarantine independently and recover from snapshot +
// oplog, and crash-safe persistence survives every injected crash point.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>

#include "src/faultinject/tamper.h"
#include "src/shieldstore/oplog.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/persist.h"
#include "src/shieldstore/store.h"

namespace shield {
namespace {

using faultinject::TamperAgent;
using faultinject::TamperMode;
using shieldstore::Options;
using shieldstore::EpochLog;
using shieldstore::OperationLog;
using shieldstore::OpLogOptions;
using shieldstore::PartitionedStore;
using shieldstore::Snapshotter;
using shieldstore::Store;

sgx::EnclaveConfig TestEnclaveConfig() {
  sgx::EnclaveConfig c;
  c.name = "faultinject-test";
  c.epc.epc_bytes = 8u << 20;
  c.epc.crossing_cycles = 0;
  c.epc.kernel_fault_cycles = 0;
  c.epc.resident_access_cycles = 0;
  c.epc.page_crypto = false;
  c.heap_reserve_bytes = 256u << 20;
  c.rng_seed = ToBytes("faultinject-test");
  return c;
}

Options SmallOptions() {
  Options o;
  o.num_buckets = 256;
  o.heap_chunk_bytes = 1 << 20;
  return o;
}

class FaultInjectTest : public ::testing::Test {
 protected:
  FaultInjectTest() : enclave_(TestEnclaveConfig()) {
    dir_ = ::testing::TempDir() + "/faultinject_" + std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    counter_opts_.backing_file = dir_ + "/counters.bin";
    counter_opts_.increment_cost_cycles = 0;
  }
  ~FaultInjectTest() override { std::filesystem::remove_all(dir_); }

  sgx::Enclave enclave_;
  std::string dir_;
  sgx::MonotonicCounterService::Options counter_opts_;
};

// ------------------------------------------------------- in-memory attacks

class TamperMatrixTest : public FaultInjectTest,
                         public ::testing::WithParamInterface<TamperMode> {};

TEST_P(TamperMatrixTest, DetectedWithExactCodeAndRecoverable) {
  const TamperMode mode = GetParam();
  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  Store store(enclave_, SmallOptions());
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const std::string value = "v1-" + std::to_string(i);
    ASSERT_TRUE(store.Set(key, value).ok());
    expected[key] = value;
  }

  TamperAgent agent(0xC0FFEE00 + static_cast<uint64_t>(mode));
  if (mode == TamperMode::kEntryReplay) {
    // Replay needs a stale capture: stash an entry, then move every key
    // forward so the stash is out of date (same value size, so the stale
    // bytes fit the live allocation).
    ASSERT_TRUE(agent.CaptureEntry(store).ok());
    for (auto& [key, value] : expected) {
      value[1] = '2';  // "v1-..." -> "v2-..."
      ASSERT_TRUE(store.Set(key, value).ok());
    }
  }

  // Clean pre-attack snapshot: the recovery target.
  Snapshotter snap(store, sealer, counters, {dir_, /*optimized=*/false});
  ASSERT_TRUE(snap.SnapshotNow().ok());

  ASSERT_TRUE(agent.Tamper(store, mode).ok()) << TamperModeName(mode);
  const std::string target = agent.last_target_key();
  ASSERT_FALSE(target.empty());
  const Code want = faultinject::ExpectedDetection(mode);

  // Probe the attacked key. A cycle cannot corrupt a successful early-exit
  // Get, so it is probed with Set (full chain walk); everything else is
  // caught on the Get path.
  if (mode == TamperMode::kChainCycle) {
    EXPECT_EQ(store.Set(target, "probe").code(), want);
  } else {
    Result<std::string> probe = store.Get(target);
    ASSERT_FALSE(probe.ok());
    EXPECT_EQ(probe.status().code(), want) << probe.status().ToString();
  }

  // The full-table audit must pin the violation with the same code.
  const Store::ScrubReport report = store.Scrub();
  EXPECT_EQ(report.status.code(), want) << report.status.ToString();

  // Recovery: the pre-attack snapshot restores every committed key.
  Result<std::unique_ptr<Store>> recovered =
      Snapshotter::Recover(enclave_, SmallOptions(), sealer, counters, {dir_, false});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  for (const auto& [key, value] : expected) {
    Result<std::string> got = (*recovered)->Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), value);
  }
  EXPECT_TRUE((*recovered)->Scrub().status.ok());
}

INSTANTIATE_TEST_SUITE_P(AllModes, TamperMatrixTest,
                         ::testing::ValuesIn(faultinject::kAllMemoryModes),
                         [](const ::testing::TestParamInfo<TamperMode>& info) {
                           return std::string(faultinject::TamperModeName(info.param));
                         });

TEST_F(FaultInjectTest, SameSeedPicksSameTarget) {
  Store store(enclave_, SmallOptions());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Set("key-" + std::to_string(i), "v").ok());
  }
  TamperAgent a(42), b(42);
  ASSERT_TRUE(a.CaptureEntry(store).ok());
  ASSERT_TRUE(b.CaptureEntry(store).ok());
  EXPECT_EQ(a.last_target_key(), b.last_target_key());
}

TEST_F(FaultInjectTest, EmptyStoreHasNoTarget) {
  Store store(enclave_, SmallOptions());
  TamperAgent agent(1);
  EXPECT_EQ(agent.Tamper(store, TamperMode::kMacForge).code(), Code::kInvalidArgument);
}

// ------------------------------------------- partition quarantine/recovery

TEST_F(FaultInjectTest, QuarantinedPartitionRecoversWhileOthersServe) {
  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  Options total = SmallOptions();
  total.num_buckets = 1024;
  PartitionedStore ps(enclave_, total, 4);

  OpLogOptions log_opts;
  log_opts.path = dir_ + "/wal.log";
  OperationLog log(sealer, counters, log_opts);
  ASSERT_TRUE(log.Open().ok());

  std::map<std::string, std::string> expected;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const std::string value = "v1-" + std::to_string(i);
    ASSERT_TRUE(ps.Set(key, value).ok());
    ASSERT_TRUE(log.AppendSet(key, value).ok());
    expected[key] = value;
  }
  ASSERT_TRUE(log.Commit().ok());

  const std::string snapdir = dir_ + "/snap";
  ASSERT_TRUE(ps.SnapshotAll(sealer, counters, snapdir).ok());

  // Committed mutations AFTER the snapshot: only the oplog holds them.
  for (int i = 0; i < 200; i += 5) {
    const std::string key = "key-" + std::to_string(i);
    const std::string value = "v2-" + std::to_string(i);
    ASSERT_TRUE(ps.Set(key, value).ok());
    ASSERT_TRUE(log.AppendSet(key, value).ok());
    expected[key] = value;
  }
  ASSERT_TRUE(ps.Set("post-snapshot", "fresh").ok());
  ASSERT_TRUE(log.AppendSet("post-snapshot", "fresh").ok());
  expected["post-snapshot"] = "fresh";
  ASSERT_TRUE(log.Commit().ok());

  // Attack partition 0.
  TamperAgent agent(7);
  ASSERT_TRUE(agent.Tamper(ps.partition(0), TamperMode::kMacForge).ok());
  const std::string target = agent.last_target_key();
  ASSERT_EQ(ps.PartitionOf(target), 0u);

  // Detection quarantines partition 0; every other partition keeps serving.
  EXPECT_EQ(ps.Get(target).status().code(), Code::kIntegrityFailure);
  EXPECT_TRUE(ps.IsQuarantined(0));
  EXPECT_EQ(ps.QuarantinedCount(), 1u);
  for (const auto& [key, value] : expected) {
    Result<std::string> got = ps.Get(key);
    if (ps.PartitionOf(key) == 0) {
      ASSERT_FALSE(got.ok()) << key;
      // Fast fail with the typed retryable code (the detecting op above got
      // the truthful kIntegrityFailure; later callers see "healing").
      EXPECT_EQ(got.status().code(), Code::kPartitionRecovering);
    } else {
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_EQ(got.value(), value);
    }
  }
  EXPECT_EQ(ps.ScrubAll().code(), Code::kPartitionRecovering);

  // Rebuild partition 0 from snapshot + committed oplog suffix.
  ASSERT_TRUE(
      ps.RecoverPartition(0, sealer, counters, snapdir, [&](kv::KeyValueStore& into) {
          return OperationLog::Replay(sealer, counters, log_opts, into);
        }).ok());
  EXPECT_FALSE(ps.IsQuarantined(0));
  EXPECT_EQ(ps.QuarantinedCount(), 0u);
  for (const auto& [key, value] : expected) {
    Result<std::string> got = ps.Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), value);
  }
  EXPECT_TRUE(ps.ScrubAll().ok());
}

TEST_F(FaultInjectTest, RecoverPartitionRejectsGeometryMismatch) {
  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  PartitionedStore four(enclave_, SmallOptions(), 4);
  ASSERT_TRUE(four.Set("k", "v").ok());
  const std::string snapdir = dir_ + "/snap";
  ASSERT_TRUE(four.SnapshotAll(sealer, counters, snapdir).ok());

  PartitionedStore two(enclave_, SmallOptions(), 2);
  EXPECT_EQ(two.RecoverPartition(0, sealer, counters, snapdir).code(),
            Code::kInvalidArgument);
}

// ----------------------------------------------- crash-safe snapshot files

class CrashSafetyTest : public FaultInjectTest {
 protected:
  CrashSafetyTest()
      : sealer_(AsBytes("fuse"), enclave_.measurement()),
        counters_(counter_opts_),
        store_(enclave_, SmallOptions()) {}

  Result<std::unique_ptr<Store>> Recover() {
    return Snapshotter::Recover(enclave_, SmallOptions(), sealer_, counters_,
                                {dir_, /*optimized=*/false});
  }

  sgx::SealingService sealer_;
  sgx::MonotonicCounterService counters_;
  Store store_;
};

TEST_F(CrashSafetyTest, CrashBeforeCommitKeepsCurrentGeneration) {
  ASSERT_TRUE(store_.Set("stable", "one").ok());
  Snapshotter snap(store_, sealer_, counters_, {dir_, false});
  ASSERT_TRUE(snap.SnapshotNow().ok());

  ASSERT_TRUE(store_.Set("late", "two").ok());
  snap.InjectCrash(Snapshotter::CrashPoint::kAfterTempWrite);
  const Status crashed = snap.SnapshotNow();
  EXPECT_EQ(crashed.code(), Code::kIoError);
  // The crash leaves the durable temp pair behind, exactly like power loss.
  EXPECT_TRUE(std::filesystem::exists(snap.DataPath() + ".tmp"));

  // Recovery sees only the committed generation.
  Result<std::unique_ptr<Store>> recovered = Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->Get("stable").value(), "one");
  EXPECT_EQ((*recovered)->Get("late").status().code(), Code::kNotFound);

  // A restarting snapshotter clears the stale temp artifacts.
  Snapshotter restarted(store_, sealer_, counters_, {dir_, false});
  EXPECT_FALSE(std::filesystem::exists(snap.DataPath() + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(snap.MetaPath() + ".tmp"));
}

TEST_F(CrashSafetyTest, CrashBeforeCounterIncrementRollsForward) {
  ASSERT_TRUE(store_.Set("stable", "one").ok());
  Snapshotter snap(store_, sealer_, counters_, {dir_, false});
  ASSERT_TRUE(snap.SnapshotNow().ok());

  ASSERT_TRUE(store_.Set("late", "two").ok());
  snap.InjectCrash(Snapshotter::CrashPoint::kAfterRename);
  EXPECT_EQ(snap.SnapshotNow().code(), Code::kIoError);

  // The new generation is fully durable; only the counter bump was lost.
  // Recovery completes the commit instead of discarding good data.
  Result<std::unique_ptr<Store>> recovered = Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->Get("late").value(), "two");

  // The roll-forward incremented the counter: recovery stays repeatable.
  Result<std::unique_ptr<Store>> again = Recover();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->Get("late").value(), "two");
}

TEST_F(CrashSafetyTest, InterruptedCommitFallsBackToPreviousGeneration) {
  ASSERT_TRUE(store_.Set("k", "one").ok());
  Snapshotter snap(store_, sealer_, counters_, {dir_, false});
  ASSERT_TRUE(snap.SnapshotNow().ok());
  ASSERT_TRUE(store_.Set("k", "two").ok());
  ASSERT_TRUE(snap.SnapshotNow().ok());

  // Simulate a crash inside a third snapshot's rename sequence, after the
  // current pair was demoted to .prev but before the new pair landed.
  std::filesystem::rename(snap.MetaPath(), snap.MetaPath() + ".prev");
  std::filesystem::rename(snap.DataPath(), snap.DataPath() + ".prev");

  Result<std::unique_ptr<Store>> recovered = Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->Get("k").value(), "two");
}

TEST_F(CrashSafetyTest, TornDataFileIsTypedIoError) {
  ASSERT_TRUE(store_.Set("k", "v").ok());
  Snapshotter snap(store_, sealer_, counters_, {dir_, false});
  ASSERT_TRUE(snap.SnapshotNow().ok());
  ASSERT_TRUE(TamperAgent::TruncateTail(snap.DataPath(), 10).ok());

  Result<std::unique_ptr<Store>> recovered = Recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), Code::kIoError);
}

TEST_F(CrashSafetyTest, TornCommittedCurrentNeverLoadsCorrupt) {
  // Two committed generations, then the current data file is torn. Serving
  // the previous generation would be indistinguishable from a rollback
  // attack (its sealed counter value is stale), so recovery must fail with
  // a typed error rather than load anything.
  ASSERT_TRUE(store_.Set("k", "one").ok());
  Snapshotter snap(store_, sealer_, counters_, {dir_, false});
  ASSERT_TRUE(snap.SnapshotNow().ok());
  ASSERT_TRUE(store_.Set("k", "two").ok());
  ASSERT_TRUE(snap.SnapshotNow().ok());
  ASSERT_TRUE(TamperAgent::TruncateTail(snap.DataPath(), 10).ok());

  Result<std::unique_ptr<Store>> recovered = Recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), Code::kIoError);
}

TEST_F(CrashSafetyTest, FlippedDataByteIsIntegrityFailure) {
  ASSERT_TRUE(store_.Set("k", "v").ok());
  Snapshotter snap(store_, sealer_, counters_, {dir_, false});
  ASSERT_TRUE(snap.SnapshotNow().ok());
  const auto size = std::filesystem::file_size(snap.DataPath());
  ASSERT_TRUE(TamperAgent::FlipFileByte(snap.DataPath(), size / 2).ok());

  Result<std::unique_ptr<Store>> recovered = Recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), Code::kIntegrityFailure);
}

TEST_F(CrashSafetyTest, SnapshotRollbackDetected) {
  ASSERT_TRUE(store_.Set("k", "one").ok());
  Snapshotter snap(store_, sealer_, counters_, {dir_, false});
  ASSERT_TRUE(snap.SnapshotNow().ok());

  TamperAgent agent(9);
  ASSERT_TRUE(agent.CaptureSnapshotFiles(dir_).ok());
  ASSERT_TRUE(store_.Set("k", "two").ok());
  ASSERT_TRUE(snap.SnapshotNow().ok());
  ASSERT_TRUE(agent.RollbackSnapshotFiles(dir_).ok());

  Result<std::unique_ptr<Store>> recovered = Recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), Code::kRollbackDetected);
}

// ---------------------------------------------------------- oplog attacks

TEST_F(FaultInjectTest, OplogTruncatedCommitDetectedAsRollback) {
  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  OpLogOptions log_opts;
  log_opts.path = dir_ + "/wal.log";
  {
    OperationLog log(sealer, counters, log_opts);
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(log.AppendSet("k" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE(log.Commit().ok());
  }
  // Drop the tail: the last committed record is destroyed, but the epoch
  // naming it was bumped — a classic truncation-rollback.
  ASSERT_TRUE(TamperAgent::TruncateTail(EpochLog::ShardPath(log_opts.path, 0), 5).ok());

  Store target(enclave_, SmallOptions());
  EXPECT_EQ(OperationLog::Replay(sealer, counters, log_opts, target).code(),
            Code::kRollbackDetected);
}

TEST_F(FaultInjectTest, OplogMidFlipDetectedAsIntegrityFailure) {
  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  OpLogOptions log_opts;
  log_opts.path = dir_ + "/wal.log";
  {
    OperationLog log(sealer, counters, log_opts);
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(log.AppendSet("key-" + std::to_string(i), "some-value").ok());
    }
    ASSERT_TRUE(log.Commit().ok());
  }
  const std::string log_file = EpochLog::ShardPath(log_opts.path, 0);
  const auto size = std::filesystem::file_size(log_file);
  ASSERT_TRUE(TamperAgent::FlipFileByte(log_file, size / 2).ok());

  Store target(enclave_, SmallOptions());
  EXPECT_EQ(OperationLog::Replay(sealer, counters, log_opts, target).code(),
            Code::kIntegrityFailure);
}

}  // namespace
}  // namespace shield
