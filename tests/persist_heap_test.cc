// mmap-backed persistent untrusted heap, end to end: O(1) restart attach +
// replay of the log since the last compaction, crash-matrix durability
// (fully-old-or-fully-new, no acked-write loss), incremental msync
// checkpoints, lazy MAC verification catching arena-file tamper (live and
// across a restart), online heal of a tampered arena from its cold copy (or,
// before its shard compacts, the empty store) plus the WAL suffix, a restart
// that writes no baseline, and a deleted heap file refused as a rollback.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

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
using shieldstore::EpochLog;
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
  std::string cold_dir;  // the healer's cold copies

  // Compacts every shard: the audited arena checkpoint with its cold copy,
  // then a new log generation. Returns the first failure.
  Status Compact() {
    Status first;
    for (size_t shard = 0; shard < wal->num_shards(); ++shard) {
      if (Status st = wal->CompactShard(shard, cold_dir); !st.ok() && first.ok()) {
        first = st;
      }
    }
    return first;
  }

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
    s.cold_dir = dir + "/cold";
    SelfHealOptions heal_opts;
    heal_opts.directory = s.cold_dir;
    s.healer = std::make_unique<SelfHealer>(*s.wal, *s.sealer, *s.counters, heal_opts);
    return s;
  }

  // Heap-file offset of one byte inside `key`'s VALUE ciphertext, plus the
  // partition that serves the key.
  void LocateValueByte(Stack& s, const std::string& key, size_t* partition,
                       std::string* heap_file, uint64_t* offset) {
    *partition = s.store->PartitionOf(key);
    *heap_file = s.store->partition_arena(*partition)->path();
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

  // What a restart must leave alone: the WAL counter's epoch and each
  // shard's log generation, every arena's counter value, and the cold copies.
  struct Baseline {
    uint64_t epoch = 0;
    std::vector<uint64_t> generations;
    std::vector<uint64_t> arena_counters;
    std::map<std::string, std::string> cold_files;
    bool operator==(const Baseline&) const = default;
  };
  Baseline ReadBaseline() {
    Stack s = MakeStack(dir_);  // built, not booted: maps the files, writes nothing
    Baseline b;
    const Result<shieldstore::Epoch> epoch =
        EpochLog::Recover(*s.sealer, *s.counters, dir_ + "/wal.log");
    EXPECT_TRUE(epoch.ok()) << epoch.status().ToString();
    if (epoch.ok()) {
      b.epoch = epoch->value;
      for (const shieldstore::LogHead& head : epoch->heads) {
        b.generations.push_back(head.generation);
      }
    }
    for (size_t p = 0; p < kPartitions; ++p) {
      const uint32_t id = s.store->partition_arena(p)->counter_id();
      b.arena_counters.push_back(id == 0 ? 0 : s.counters->Read(id).value());
    }
    for (const auto& entry : std::filesystem::directory_iterator(s.cold_dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      b.cold_files[entry.path().filename().string()] =
          std::string(std::istreambuf_iterator<char>(in), {});
    }
    return b;
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
    ASSERT_TRUE(s.Compact().ok());
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

// kill -9 at every arena commit point of a first compaction: acked writes
// survive because the heap file recovers to its previous state (none yet)
// and the shard log — which the crash left untruncated — replays whole.
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
      // The compaction's checkpoint dies mid-protocol on every partition's
      // arena.
      for (size_t p = 0; p < kPartitions; ++p) {
        ASSERT_NE(s.store->partition_arena(p), nullptr);
        s.store->partition_arena(p)->InjectCrash(point);
      }
      const Status st = s.Compact();
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
  ASSERT_TRUE(s.Compact().ok());
  uint64_t full = 0;
  for (size_t p = 0; p < kPartitions; ++p) {
    full += s.store->partition_arena(p)->last_commit_msync_bytes();
  }
  const int64_t before = s.metrics->GetCounter("heap.msync_bytes").Value();
  // Touch a handful of keys; the next checkpoint must pay for them alone.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(s.wal->Set("bulk-" + std::to_string(i * 97), "touched").ok());
  }
  ASSERT_TRUE(s.Compact().ok());
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
  ASSERT_TRUE(s.Compact().ok());
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

// A tamper of a heap file while the daemon is down: attach stays O(1) and
// writes nothing, so the flip surfaces on first touch, and the partition
// heals from the compaction's clean cold copy plus the log suffix.
TEST_F(PersistHeapTest, OfflineTamperCaughtByLazyVerificationAfterRestart) {
  std::string heap_file;
  uint64_t offset = 0;
  size_t partition = 0;
  const std::string victim = "off-7";
  std::map<std::string, std::string> acked;
  {
    Stack s = MakeStack(dir_);
    ASSERT_TRUE(s.Boot().ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(s.wal->Set("off-" + std::to_string(i), "payload-" + std::to_string(i)).ok());
      acked["off-" + std::to_string(i)] = "payload-" + std::to_string(i);
    }
    // The compaction truncates the log: the victim now exists ONLY in the
    // arena, else the restart's replay would legitimately reseal it over the
    // tamper.
    ASSERT_TRUE(s.Compact().ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(s.wal->Set("suffix-" + std::to_string(i), "s").ok());
      acked["suffix-" + std::to_string(i)] = "s";
    }
    ASSERT_NO_FATAL_FAILURE(LocateValueByte(s, victim, &partition, &heap_file, &offset));
  }
  ASSERT_TRUE(TamperAgent::FlipFileByte(heap_file, offset).ok());

  Stack s = MakeStack(dir_);
  ASSERT_TRUE(s.Boot().ok()) << "attach must NOT eagerly verify every entry";
  EXPECT_EQ(s.wal->Get(victim).status().code(), Code::kIntegrityFailure)
      << "tampered entry must never be served";
  EXPECT_TRUE(s.store->IsQuarantined(partition));
  s.healer->Tick();  // recovery comes first in a tick
  ASSERT_FALSE(s.store->IsQuarantined(partition)) << s.healer->last_error().ToString();
  EXPECT_EQ(s.healer->recoveries(), 1u);
  for (const auto& [k, v] : acked) {
    const Result<std::string> got = s.wal->Get(k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
    EXPECT_EQ(*got, v) << k;
  }
  EXPECT_TRUE(s.store->ScrubAll().ok());
}

// A tamper of the live arena while serving: the maintenance tick lays the
// cold copy over the heap file, attaches it, replays the shard's WAL suffix
// and re-admits the partition — no operator step, no acked write lost.
TEST_F(PersistHeapTest, TamperedLiveArenaHealsFromColdCopyPlusWalSuffix) {
  std::map<std::string, std::string> acked;
  {
    Stack s = MakeStack(dir_);
    ASSERT_TRUE(s.Boot().ok());
    for (int i = 0; i < 100; ++i) {
      const std::string k = "heal-" + std::to_string(i);
      ASSERT_TRUE(s.wal->Set(k, "arena-" + std::to_string(i)).ok());
      acked[k] = "arena-" + std::to_string(i);
    }
    // Fold the first wave into the arenas and their cold copies, as a
    // compaction does.
    for (size_t shard = 0; shard < s.wal->num_shards(); ++shard) {
      ASSERT_TRUE(s.wal->CompactShard(shard, s.cold_dir).ok());
    }
    // The WAL suffix: rewrites, deletes and fresh keys after the cold copy.
    for (int i = 0; i < 100; i += 3) {
      const std::string k = "heal-" + std::to_string(i);
      ASSERT_TRUE(s.wal->Set(k, "suffix-" + std::to_string(i)).ok());
      acked[k] = "suffix-" + std::to_string(i);
    }
    for (int i = 1; i < 100; i += 10) {
      ASSERT_TRUE(s.wal->Delete("heal-" + std::to_string(i)).ok());
      acked.erase("heal-" + std::to_string(i));
    }
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(s.wal->Set("fresh-" + std::to_string(i), "f").ok());
      acked["fresh-" + std::to_string(i)] = "f";
    }
    const std::string victim = "heal-50";  // in the arena only: not rewritten since
    size_t partition = 0;
    std::string heap_file;
    uint64_t offset = 0;
    ASSERT_NO_FATAL_FAILURE(LocateValueByte(s, victim, &partition, &heap_file, &offset));
    ASSERT_TRUE(TamperAgent::FlipFileByte(heap_file, offset).ok());
    EXPECT_EQ(s.wal->Get(victim).status().code(), Code::kIntegrityFailure);
    ASSERT_TRUE(s.store->IsQuarantined(partition));

    s.healer->Tick();  // recovery comes first in a tick
    ASSERT_FALSE(s.store->IsQuarantined(partition)) << s.healer->last_error().ToString();
    EXPECT_EQ(s.healer->recoveries(), 1u);
    for (const auto& [k, v] : acked) {
      const Result<std::string> got = s.wal->Get(k);
      ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
      EXPECT_EQ(*got, v) << k;
    }
    EXPECT_EQ(s.wal->Get("heal-1").status().code(), Code::kNotFound);
    EXPECT_EQ(s.store->Size(), acked.size());
    EXPECT_TRUE(s.store->ScrubAll().ok());
    // The healed partition keeps serving writes and survives a restart.
    ASSERT_TRUE(s.wal->Set(victim, "after-heal").ok());
    acked[victim] = "after-heal";
  }
  Stack restarted = MakeStack(dir_);
  ASSERT_TRUE(restarted.Boot().ok());
  for (const auto& [k, v] : acked) {
    const Result<std::string> got = restarted.wal->Get(k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
    EXPECT_EQ(*got, v) << k;
  }
}

// Heal refuses a baseline it cannot trust, typed, and leaves the partition
// fenced: a missing cold copy is kNotFound, one put back from before the
// last compaction is kRollbackDetected.
TEST_F(PersistHeapTest, HealRefusesMissingOrStaleColdCopy) {
  Stack s = MakeStack(dir_);
  ASSERT_TRUE(s.Boot().ok());
  const size_t victim = s.store->PartitionOf("cold-7");
  const size_t shard = s.wal->ShardOfPartition(victim);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(s.wal->Set("cold-" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(s.wal->CompactShard(shard, s.cold_dir).ok());
  const std::string cold = s.cold_dir + "/p" + std::to_string(victim) + ".heap";
  const std::string older = dir_ + "/older.heap";
  std::filesystem::copy_file(cold, older);  // the first compaction's copy
  for (int i = 25; i < 50; ++i) {
    ASSERT_TRUE(s.wal->Set("cold-" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(s.wal->CompactShard(shard, s.cold_dir).ok());
  const auto heal = [&] {
    EXPECT_FALSE(s.store
                     ->WithPartitionLocked(victim, [](shieldstore::Store&) {
                       return Status(Code::kIntegrityFailure, "synthetic violation");
                     })
                     .ok());
    s.healer->Tick();
    EXPECT_TRUE(s.store->IsQuarantined(victim));
    return s.healer->last_error().code();
  };

  std::filesystem::rename(cold, dir_ + "/moved.heap");
  EXPECT_EQ(heal(), Code::kNotFound) << s.healer->last_error().ToString();
  std::filesystem::copy_file(older, cold);
  EXPECT_EQ(heal(), Code::kRollbackDetected) << s.healer->last_error().ToString();
  EXPECT_EQ(s.healer->failed_recoveries(), 2u);

  // The current cold copy back in place: the next tick heals.
  std::filesystem::rename(dir_ + "/moved.heap", cold);
  s.healer->Tick();
  ASSERT_FALSE(s.store->IsQuarantined(victim)) << s.healer->last_error().ToString();
  for (int i = 0; i < 50; ++i) {
    const Result<std::string> got = s.wal->Get("cold-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
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

// A restart attaches and replays; it commits no arena, writes no cold copy,
// bumps no counter and starts no log generation — the compaction, which
// audits first, is the only writer of a baseline.
TEST_F(PersistHeapTest, CleanRestartWritesNoBaseline) {
  {
    Stack s = MakeStack(dir_);
    ASSERT_TRUE(s.Boot().ok());
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(s.wal->Set("quiet-" + std::to_string(i), std::to_string(i)).ok());
    }
    ASSERT_TRUE(s.Compact().ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(s.wal->Set("quiet-" + std::to_string(i), "suffix").ok());
    }
  }
  const Baseline before = ReadBaseline();
  ASSERT_EQ(before.generations, std::vector<uint64_t>(kPartitions, 2));
  ASSERT_EQ(before.cold_files.size(), kPartitions);
  for (int boot = 0; boot < 2; ++boot) {
    {
      Stack s = MakeStack(dir_);
      ASSERT_TRUE(s.Boot().ok()) << "boot " << boot;
      const Result<std::string> got = s.wal->Get("quiet-3");
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, "suffix");
    }
    EXPECT_TRUE(ReadBaseline() == before) << "boot " << boot << " wrote a baseline";
  }
}

// A compacted shard's log holds only what followed its partitions' arena
// commits: a heap file deleted or emptied while the daemon is down is a
// rollback of that baseline, refused at boot naming the file — never a
// first boot that silently serves without the keys it held.
TEST_F(PersistHeapTest, MissingHeapFileOfCompactedShardIsRollback) {
  for (const bool emptied : {false, true}) {
    const std::string dir = dir_ + (emptied ? "/emptied" : "/deleted");
    {
      Stack s = MakeStack(dir);
      ASSERT_TRUE(s.Boot().ok());
      for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(s.wal->Set("gone-" + std::to_string(i), "v").ok());
      }
      ASSERT_TRUE(s.Compact().ok());
    }
    const std::string heap_file = dir + "/heap/p0.heap";
    if (emptied) {
      std::filesystem::resize_file(heap_file, 0);
    } else {
      ASSERT_TRUE(std::filesystem::remove(heap_file));
    }
    Stack s = MakeStack(dir);
    const Status booted = s.Boot();
    EXPECT_EQ(booted.code(), Code::kRollbackDetected) << booted.ToString();
    EXPECT_NE(booted.message().find(heap_file), std::string::npos) << booted.ToString();
  }
}

// Before its shard compacts, a partition's baseline is the empty store and
// its suffix the whole shard log, however many restarts ago it began: a
// tamper after two restarts heals from exactly that, with no cold copy.
TEST_F(PersistHeapTest, NeverCompactedPartitionHealsFromEmptyStorePlusWholeLog) {
  std::map<std::string, std::string> acked;
  for (int boot = 0; boot < 2; ++boot) {
    Stack s = MakeStack(dir_);
    ASSERT_TRUE(s.Boot().ok());
    for (int i = 0; i < 60; ++i) {
      const std::string k = "whole-" + std::to_string(i + boot * 30);
      const std::string v = "boot" + std::to_string(boot) + "-" + std::to_string(i);
      ASSERT_TRUE(s.wal->Set(k, v).ok());
      acked[k] = v;
    }
    ASSERT_TRUE(s.wal->Delete("whole-" + std::to_string(boot)).ok());
    acked.erase("whole-" + std::to_string(boot));
  }
  Stack s = MakeStack(dir_);
  ASSERT_TRUE(s.Boot().ok());
  EXPECT_FALSE(std::filesystem::exists(s.cold_dir)) << "nothing compacted, nothing copied";
  const std::string victim = "whole-50";
  size_t partition = 0;
  std::string heap_file;
  uint64_t offset = 0;
  ASSERT_NO_FATAL_FAILURE(LocateValueByte(s, victim, &partition, &heap_file, &offset));
  ASSERT_TRUE(TamperAgent::FlipFileByte(heap_file, offset).ok());
  EXPECT_EQ(s.wal->Get(victim).status().code(), Code::kIntegrityFailure);
  ASSERT_TRUE(s.store->IsQuarantined(partition));
  s.healer->Tick();
  ASSERT_FALSE(s.store->IsQuarantined(partition)) << s.healer->last_error().ToString();
  EXPECT_EQ(s.store->Size(), acked.size());
  for (const auto& [k, v] : acked) {
    const Result<std::string> got = s.wal->Get(k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
    EXPECT_EQ(*got, v) << k;
  }
  EXPECT_TRUE(s.store->ScrubAll().ok());
  EXPECT_FALSE(std::filesystem::exists(s.cold_dir));
}

}  // namespace
}  // namespace shield
