// mmap-backed persistent untrusted heap, end to end: O(1) restart attach +
// WAL-tail-only replay, crash-matrix durability (fully-old-or-fully-new, no
// acked-write loss), incremental msync checkpoints, lazy MAC verification
// catching arena-file tamper (live and across a restart), and file-shipped
// replica bootstrap.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "src/alloc/persistent_arena.h"
#include "src/faultinject/tamper.h"
#include "src/obs/metrics.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"
#include "src/shieldstore/store.h"

namespace shield::shieldstore {

// White-box access (same friend hook the engine tests use): the arena ref of
// a key's entry IS its byte offset in the partition's heap file, which is
// what a host-side file attack needs to aim at.
class StoreTestPeer {
 public:
  static uint64_t EntryRef(Store& s, std::string_view key) {
    const size_t bucket = s.BucketIndex(kv::BucketHash(*s.keys_, key));
    for (uint64_t ref = s.buckets_[bucket].head_ref; ref != 0;) {
      kv::EntryHeader* e = s.Deref(ref);
      if (kv::EntryKeyEquals(*s.cipher_, *e, key)) {
        return ref;
      }
      ref = e->next_ref;
    }
    return 0;
  }

  static size_t EntryKeySize(Store& s, uint64_t ref) {
    return s.Deref(ref)->key_size;
  }
};

}  // namespace shield::shieldstore

namespace shield {
namespace {

using faultinject::TamperAgent;
using shieldstore::PartitionedStore;
using shieldstore::SelfHealer;
using shieldstore::SelfHealOptions;
using shieldstore::StoreTestPeer;
using shieldstore::WriteAheadStore;

sgx::EnclaveConfig FastEnclave() {
  sgx::EnclaveConfig c;
  c.name = "persist-heap-test";
  c.epc.epc_bytes = 16u << 20;
  c.epc.crossing_cycles = 0;
  c.epc.kernel_fault_cycles = 0;
  c.epc.resident_access_cycles = 0;
  c.epc.page_crypto = false;
  c.heap_reserve_bytes = 64u << 20;
  c.rng_seed = ToBytes("persist-heap-test");
  return c;
}

// One full durable stack over a directory. Rebuilding a Stack on the same
// directory IS the restart: a fresh enclave with the same measurement maps
// the same heap files and unseals the same metadata.
struct Stack {
  std::unique_ptr<obs::Registry> metrics;
  std::unique_ptr<sgx::Enclave> enclave;
  std::unique_ptr<sgx::SealingService> sealer;
  std::unique_ptr<sgx::MonotonicCounterService> counters;
  std::unique_ptr<PartitionedStore> store;
  std::unique_ptr<WriteAheadStore> wal;
  std::unique_ptr<SelfHealer> healer;

  Status Boot() {
    if (Status st = wal->Open(); !st.ok()) {
      return st;
    }
    if (Status st = healer->Restore(); !st.ok()) {
      return st;
    }
    return healer->Start();
  }
};

class PersistHeapTest : public ::testing::Test {
 protected:
  static constexpr size_t kPartitions = 2;

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/persist_heap_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  Stack MakeStack(const std::string& dir) {
    Stack s;
    s.metrics = std::make_unique<obs::Registry>();
    s.enclave = std::make_unique<sgx::Enclave>(FastEnclave());
    shieldstore::Options options;
    options.num_buckets = 256;
    options.heap_chunk_bytes = 1u << 20;
    options.metrics = s.metrics.get();
    options.persist_dir = dir + "/heap";
    options.persist_capacity_bytes = 16u << 20;
    s.store = std::make_unique<PartitionedStore>(*s.enclave, options, kPartitions);
    s.sealer = std::make_unique<sgx::SealingService>(AsBytes("fuse"), s.enclave->measurement());
    sgx::MonotonicCounterService::Options counter_opts;
    counter_opts.backing_file = dir + "/counters.bin";
    counter_opts.increment_cost_cycles = 0;
    s.counters = std::make_unique<sgx::MonotonicCounterService>(counter_opts);
    shieldstore::OpLogOptions log_opts;
    log_opts.path = dir + "/wal.log";
    log_opts.metrics = s.metrics.get();
    s.wal = std::make_unique<WriteAheadStore>(*s.store, *s.sealer, *s.counters, log_opts);
    SelfHealOptions heal_opts;
    heal_opts.directory = dir + "/snapshots";
    s.healer = std::make_unique<SelfHealer>(*s.wal, *s.sealer, *s.counters, heal_opts);
    return s;
  }

  // Heap-file offset of one byte inside `key`'s VALUE ciphertext, plus the
  // partition that serves the key.
  void LocateValueByte(Stack& s, const std::string& key, size_t* partition,
                       std::string* heap_file, uint64_t* offset) {
    *partition = s.store->PartitionOf(key);
    *heap_file = s.store->persist_dir() + "/p" + std::to_string(*partition) + ".heap";
    const Status st = s.store->WithPartitionLocked(*partition, [&](shieldstore::Store& p) {
      const uint64_t ref = StoreTestPeer::EntryRef(p, key);
      if (ref == 0) {
        return Status(Code::kNotFound, "no entry for " + key);
      }
      *offset = ref + sizeof(kv::EntryHeader) + StoreTestPeer::EntryKeySize(p, ref);
      return Status::Ok();
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  std::string dir_;
};

TEST_F(PersistHeapTest, RestartRoundTripWithOverwritesAndDeletes) {
  std::map<std::string, std::string> expected;
  {
    Stack s = MakeStack(dir_);
    ASSERT_TRUE(s.Boot().ok());
    for (int i = 0; i < 400; ++i) {
      const std::string k = "key-" + std::to_string(i);
      const std::string v = "value-" + std::to_string(i * 7);
      ASSERT_TRUE(s.wal->Set(k, v).ok());
      expected[k] = v;
    }
    // Fold the first wave into the arena, then keep mutating so the restart
    // exercises BOTH the attached generation and the WAL tail on top of it.
    ASSERT_TRUE(s.store->CheckpointAll(*s.sealer, *s.counters).ok());
    for (int i = 0; i < 120; ++i) {
      const std::string k = "key-" + std::to_string(i);
      const std::string v = "rewritten-" + std::to_string(i) + std::string(64, 'x');
      ASSERT_TRUE(s.wal->Set(k, v).ok());
      expected[k] = v;
    }
    for (int i = 300; i < 400; ++i) {
      const std::string k = "key-" + std::to_string(i);
      ASSERT_TRUE(s.wal->Delete(k).ok());
      expected.erase(k);
    }
  }

  Stack s = MakeStack(dir_);
  ASSERT_TRUE(s.Boot().ok());
  EXPECT_EQ(s.store->Size(), expected.size());
  for (const auto& [k, v] : expected) {
    const Result<std::string> got = s.wal->Get(k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
    EXPECT_EQ(*got, v);
  }
  for (int i = 300; i < 400; ++i) {
    EXPECT_EQ(s.wal->Get("key-" + std::to_string(i)).status().code(), Code::kNotFound);
  }
  // The reads above were each bucket set's deferred restart-time check.
  EXPECT_GT(s.metrics->GetCounter("heap.lazy_verified").Value(), 0u);
  // And a full scrub pays down every set that was never touched.
  EXPECT_TRUE(s.store->ScrubAll().ok());
  EXPECT_EQ(s.store->QuarantinedCount(), 0u);
  EXPECT_GT(s.metrics->GetGauge("heap.restart_ns").Value(), 0);
}

// kill -9 at every arena commit point: acked writes survive because the heap
// file recovers to the previous committed generation and the WAL tail —
// which still holds everything acked since — replays on top.
TEST_F(PersistHeapTest, CrashMatrixLosesNoAckedWrite) {
  using CP = alloc::PersistentArena::CrashPoint;
  int round = 0;
  for (const CP point : {CP::kPlanWritten, CP::kMidApply, CP::kPreCommit, CP::kPreSuperSync}) {
    const std::string dir = dir_ + "/round" + std::to_string(round++);
    std::filesystem::create_directories(dir);
    std::map<std::string, std::string> acked;
    {
      Stack s = MakeStack(dir);
      ASSERT_TRUE(s.Boot().ok());
      for (int i = 0; i < 200; ++i) {
        const std::string k = "crash-key-" + std::to_string(i);
        const std::string v = "v" + std::to_string(i) + std::to_string(round);
        ASSERT_TRUE(s.wal->Set(k, v).ok());
        acked[k] = v;
      }
      // The checkpoint dies mid-protocol on every partition's arena.
      for (size_t p = 0; p < kPartitions; ++p) {
        ASSERT_NE(s.store->partition_arena(p), nullptr);
        s.store->partition_arena(p)->InjectCrash(point);
      }
      const Status st = s.store->CheckpointAll(*s.sealer, *s.counters);
      ASSERT_EQ(st.code(), Code::kIoError) << "injection should have fired: " << st.ToString();
    }  // teardown unmaps without msync — the in-memory mirror dies with it

    Stack s = MakeStack(dir);
    ASSERT_TRUE(s.Boot().ok()) << "crash point " << round;
    ASSERT_EQ(s.store->Size(), acked.size());
    for (const auto& [k, v] : acked) {
      const Result<std::string> got = s.wal->Get(k);
      ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
      EXPECT_EQ(*got, v);
    }
    EXPECT_TRUE(s.store->ScrubAll().ok());
  }
}

TEST_F(PersistHeapTest, IncrementalCheckpointSyncsOnlyDirtyState) {
  Stack s = MakeStack(dir_);
  ASSERT_TRUE(s.Boot().ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(s.wal->Set("bulk-" + std::to_string(i), std::string(100, 'a' + i % 26)).ok());
  }
  ASSERT_TRUE(s.store->CheckpointAll(*s.sealer, *s.counters).ok());
  uint64_t full = 0;
  for (size_t p = 0; p < kPartitions; ++p) {
    full += s.store->partition_arena(p)->last_commit_msync_bytes();
  }
  const int64_t before = s.metrics->GetCounter("heap.msync_bytes").Value();
  // Touch a handful of keys; the next checkpoint must pay for them alone.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(s.wal->Set("bulk-" + std::to_string(i * 97), "touched").ok());
  }
  ASSERT_TRUE(s.store->CheckpointAll(*s.sealer, *s.counters).ok());
  uint64_t incremental = 0;
  for (size_t p = 0; p < kPartitions; ++p) {
    incremental += s.store->partition_arena(p)->last_commit_msync_bytes();
  }
  EXPECT_LT(incremental, full / 8)
      << "incremental checkpoint synced " << incremental << " of a " << full
      << "-byte full one";
  // heap.msync_bytes observed the same incremental cost.
  EXPECT_EQ(s.metrics->GetCounter("heap.msync_bytes").Value() - before,
            static_cast<int64_t>(incremental));
}

TEST_F(PersistHeapTest, LiveArenaFileTamperDetectedBeforeServing) {
  Stack s = MakeStack(dir_);
  ASSERT_TRUE(s.Boot().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(s.wal->Set("live-" + std::to_string(i), "payload-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(s.store->CheckpointAll(*s.sealer, *s.counters).ok());
  const std::string victim = "live-42";
  size_t partition = 0;
  std::string heap_file;
  uint64_t offset = 0;
  ASSERT_NO_FATAL_FAILURE(LocateValueByte(s, victim, &partition, &heap_file, &offset));
  // Host-side attack straight at the backing file; MAP_SHARED makes the
  // write visible to the live mapping.
  ASSERT_TRUE(TamperAgent::FlipFileByte(heap_file, offset).ok());
  EXPECT_EQ(s.wal->Get(victim).status().code(), Code::kIntegrityFailure);
  EXPECT_TRUE(s.store->IsQuarantined(partition));
}

TEST_F(PersistHeapTest, OfflineTamperCaughtByLazyVerificationAfterRestart) {
  std::string heap_file;
  uint64_t offset = 0;
  size_t partition = 0;
  std::string victim;
  {
    Stack s = MakeStack(dir_);
    ASSERT_TRUE(s.Boot().ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(s.wal->Set("off-" + std::to_string(i), "payload-" + std::to_string(i)).ok());
    }
    victim = "off-7";
    ASSERT_TRUE(s.store->CheckpointAll(*s.sealer, *s.counters).ok());
    // Truncate the WAL tail: the victim must exist ONLY in the arena, else
    // the restart's replay would legitimately reseal it over the tamper.
    ASSERT_TRUE(s.wal->ResetAllLogs().ok());
    ASSERT_NO_FATAL_FAILURE(LocateValueByte(s, victim, &partition, &heap_file, &offset));
  }
  // Tamper while the store is down: exactly what the deferred verification
  // exists for — attach stays O(1), the flip surfaces on first touch.
  ASSERT_TRUE(TamperAgent::FlipFileByte(heap_file, offset).ok());

  Stack s = MakeStack(dir_);
  ASSERT_TRUE(s.Boot().ok()) << "attach must NOT eagerly verify every entry";
  EXPECT_EQ(s.wal->Get(victim).status().code(), Code::kIntegrityFailure)
      << "tampered entry must never be served";
  EXPECT_TRUE(s.store->IsQuarantined(partition));
  // The scrub-based persist recovery cannot clean a genuinely tampered
  // partition: it stays quarantined (restore it from a replica's files).
  for (int i = 0; i < 10; ++i) {
    s.healer->Tick();
  }
  EXPECT_TRUE(s.store->IsQuarantined(partition));
  EXPECT_GT(s.healer->failed_recoveries(), 0u);
}

TEST_F(PersistHeapTest, ReplicaBootstrapFromExportedFiles) {
  const std::string replica_dir = dir_ + "/replica";
  std::filesystem::create_directories(replica_dir);
  std::map<std::string, std::string> expected;
  {
    Stack s = MakeStack(dir_);
    ASSERT_TRUE(s.Boot().ok());
    for (int i = 0; i < 300; ++i) {
      const std::string k = "rep-" + std::to_string(i);
      const std::string v = "value-" + std::to_string(i);
      ASSERT_TRUE(s.wal->Set(k, v).ok());
      expected[k] = v;
    }
    ASSERT_TRUE(s.wal->ExportHeapFiles(replica_dir + "/heap").ok());
    // The sealed metadata is rollback-bound to the monotonic counters; a
    // bootstrap ships the counter file alongside the heap files.
    std::filesystem::copy_file(dir_ + "/counters.bin", replica_dir + "/counters.bin",
                               std::filesystem::copy_options::overwrite_existing);
  }

  Stack replica = MakeStack(replica_dir);
  ASSERT_TRUE(replica.Boot().ok());
  EXPECT_EQ(replica.store->Size(), expected.size());
  for (const auto& [k, v] : expected) {
    const Result<std::string> got = replica.wal->Get(k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(replica.store->ScrubAll().ok());

  // A tampered copy must NOT bootstrap silently: flip one ciphertext byte in
  // the shipped file and the replica detects it on first touch.
  const std::string tampered_dir = dir_ + "/tampered-replica";
  std::filesystem::create_directories(tampered_dir + "/heap");
  for (const auto& entry : std::filesystem::directory_iterator(replica_dir + "/heap")) {
    std::filesystem::copy_file(entry.path(),
                               tampered_dir + "/heap/" + entry.path().filename().string());
  }
  std::filesystem::copy_file(replica_dir + "/counters.bin", tampered_dir + "/counters.bin");
  std::string heap_file;
  uint64_t offset = 0;
  size_t partition = 0;
  ASSERT_NO_FATAL_FAILURE(LocateValueByte(replica, "rep-11", &partition, &heap_file, &offset));
  const std::string tampered_file =
      tampered_dir + "/heap/p" + std::to_string(partition) + ".heap";
  ASSERT_TRUE(TamperAgent::FlipFileByte(tampered_file, offset).ok());

  Stack tampered = MakeStack(tampered_dir);
  ASSERT_TRUE(tampered.Boot().ok());
  EXPECT_EQ(tampered.wal->Get("rep-11").status().code(), Code::kIntegrityFailure);
  EXPECT_TRUE(tampered.store->IsQuarantined(partition));
}

// The sealed route key is what makes the heap files' chain placement valid
// across boots; three restarts in a row must keep resolving every key.
TEST_F(PersistHeapTest, RouteKeyStableAcrossRestarts) {
  {
    Stack s = MakeStack(dir_);
    ASSERT_TRUE(s.Boot().ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(s.wal->Set("stable-" + std::to_string(i), std::to_string(i)).ok());
    }
  }
  for (int boot = 0; boot < 3; ++boot) {
    Stack s = MakeStack(dir_);
    ASSERT_TRUE(s.Boot().ok()) << "boot " << boot;
    for (int i = 0; i < 50; ++i) {
      const Result<std::string> got = s.wal->Get("stable-" + std::to_string(i));
      ASSERT_TRUE(got.ok()) << "boot " << boot << " key " << i;
      EXPECT_EQ(*got, std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace shield
