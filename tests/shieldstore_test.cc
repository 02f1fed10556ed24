// ShieldStore engine tests: operations, the §5 optimizations, integrity
// (tamper, replay, unlink, hint attacks), snapshot persistence + rollback
// protection, snapshot epochs, and the partitioned store.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/persist.h"
#include "src/shieldstore/store.h"

namespace shield::shieldstore {

// Friend peer for white-box tampering with untrusted memory.
class StoreTestPeer {
 public:
  static kv::StoreKeys& Keys(Store& s) { return *s.keys_; }

  static size_t BucketIndexFor(Store& s, std::string_view key) {
    return s.BucketIndex(kv::BucketHash(*s.keys_, key));
  }

  // Chains link by ref (offset or as-if pointer), not raw pointer; the peer
  // exposes both the head ref slot and the translation helpers so attacks
  // can forge either form.
  static uint64_t& BucketHead(Store& s, size_t bucket) {
    return s.buckets_[bucket].head_ref;
  }

  static kv::EntryHeader* Deref(Store& s, uint64_t ref) { return s.Deref(ref); }
  static uint64_t Ref(Store& s, kv::EntryHeader* e) { return s.Ref(e); }

  static kv::EntryHeader* RawEntry(Store& s, std::string_view key) {
    const size_t bucket = BucketIndexFor(s, key);
    for (uint64_t ref = s.buckets_[bucket].head_ref; ref != 0;) {
      kv::EntryHeader* e = s.Deref(ref);
      if (kv::EntryKeyEquals(*s.cipher_, *e, key)) {
        return e;
      }
      ref = e->next_ref;
    }
    return nullptr;
  }

  static uint8_t* MacBucketSlot(Store& s, size_t bucket, size_t position) {
    Store::MacBucket* node = s.buckets_[bucket].macs;
    size_t hop = position / Store::MacBucket::kCapacity;
    while (hop-- > 0) {
      node = node->next;
    }
    return node->macs[position % Store::MacBucket::kCapacity];
  }

  static size_t MacBucketChainLength(Store& s, size_t bucket) {
    size_t n = 0;
    for (Store::MacBucket* node = s.buckets_[bucket].macs; node != nullptr; node = node->next) {
      ++n;
    }
    return n;
  }
};

namespace {

sgx::EnclaveConfig TestEnclaveConfig() {
  sgx::EnclaveConfig c;
  c.epc.epc_bytes = 8u << 20;
  c.epc.crossing_cycles = 0;
  c.epc.kernel_fault_cycles = 0;
  c.epc.resident_access_cycles = 0;
  c.epc.page_crypto = false;
  c.heap_reserve_bytes = 256u << 20;
  c.rng_seed = ToBytes("shieldstore-test");
  return c;
}

Options SmallOptions() {
  Options o;
  o.num_buckets = 256;
  o.heap_chunk_bytes = 1 << 20;
  return o;
}

class ShieldStoreTest : public ::testing::Test {
 protected:
  ShieldStoreTest() : enclave_(TestEnclaveConfig()) {}
  sgx::Enclave enclave_;
};

TEST_F(ShieldStoreTest, SetGetDelete) {
  Store store(enclave_, SmallOptions());
  EXPECT_TRUE(store.Set("alpha", "1").ok());
  EXPECT_TRUE(store.Set("beta", "2").ok());
  EXPECT_EQ(store.Get("alpha").value(), "1");
  EXPECT_EQ(store.Get("beta").value(), "2");
  EXPECT_EQ(store.Size(), 2u);
  EXPECT_TRUE(store.Delete("alpha").ok());
  EXPECT_EQ(store.Get("alpha").status().code(), Code::kNotFound);
  EXPECT_EQ(store.Size(), 1u);
  EXPECT_EQ(store.Delete("alpha").code(), Code::kNotFound);
}

TEST_F(ShieldStoreTest, OverwriteInPlaceAndGrow) {
  Store store(enclave_, SmallOptions());
  ASSERT_TRUE(store.Set("key", "short").ok());
  ASSERT_TRUE(store.Set("key", "tiny").ok());  // shrink: in place
  EXPECT_EQ(store.Get("key").value(), "tiny");
  const std::string big(5000, 'x');  // forces the grow path
  ASSERT_TRUE(store.Set("key", big).ok());
  EXPECT_EQ(store.Get("key").value(), big);
  EXPECT_EQ(store.Size(), 1u);
  ASSERT_TRUE(store.VerifyFullIntegrity().ok());
}

TEST_F(ShieldStoreTest, EmptyValuesAndBinaryData) {
  Store store(enclave_, SmallOptions());
  ASSERT_TRUE(store.Set("empty", "").ok());
  EXPECT_EQ(store.Get("empty").value(), "");
  std::string binary("\x00\x01\xff\xfe\x00", 5);
  ASSERT_TRUE(store.Set(binary, binary).ok());
  EXPECT_EQ(store.Get(binary).value(), binary);
}

TEST_F(ShieldStoreTest, ManyKeysAllRecoverable) {
  Store store(enclave_, SmallOptions());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store.Set("key-" + std::to_string(i), "value-" + std::to_string(i * i)).ok());
  }
  EXPECT_EQ(store.Size(), 2000u);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(store.Get("key-" + std::to_string(i)).value(), "value-" + std::to_string(i * i));
  }
  ASSERT_TRUE(store.VerifyFullIntegrity().ok());
}

TEST_F(ShieldStoreTest, AppendAndIncrement) {
  Store store(enclave_, SmallOptions());
  ASSERT_TRUE(store.Set("log", "a").ok());
  ASSERT_TRUE(store.Append("log", "b").ok());
  ASSERT_TRUE(store.Append("log", "c").ok());
  EXPECT_EQ(store.Get("log").value(), "abc");
  EXPECT_EQ(store.Append("missing", "x").code(), Code::kNotFound);

  ASSERT_TRUE(store.Set("counter", "10").ok());
  EXPECT_EQ(store.Increment("counter", 5).value(), 15);
  EXPECT_EQ(store.Increment("counter", -20).value(), -5);
  EXPECT_EQ(store.Get("counter").value(), "-5");
  ASSERT_TRUE(store.Set("text", "abc").ok());
  EXPECT_EQ(store.Increment("text", 1).status().code(), Code::kInvalidArgument);
}

TEST_F(ShieldStoreTest, ChainsAndMacBucketChaining) {
  Options options = SmallOptions();
  options.num_buckets = 1;  // everything collides
  Store store(enclave_, options);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Set("k" + std::to_string(i), std::to_string(i)).ok());
  }
  // 100 entries at 30 MACs per bucket node => 4 chained nodes.
  EXPECT_EQ(StoreTestPeer::MacBucketChainLength(store, 0), 4u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(store.Get("k" + std::to_string(i)).value(), std::to_string(i));
  }
  for (int i = 0; i < 100; i += 2) {
    ASSERT_TRUE(store.Delete("k" + std::to_string(i)).ok());
  }
  EXPECT_EQ(StoreTestPeer::MacBucketChainLength(store, 0), 2u);
  for (int i = 1; i < 100; i += 2) {
    ASSERT_EQ(store.Get("k" + std::to_string(i)).value(), std::to_string(i));
  }
  ASSERT_TRUE(store.VerifyFullIntegrity().ok());
}

// ------------------------------------------------------------- option grid

struct OptionCase {
  bool key_hint;
  bool mac_bucketing;
  bool extra_heap;
  size_t mac_hashes;
};

class ShieldStoreOptionsTest : public ::testing::TestWithParam<OptionCase> {
 protected:
  ShieldStoreOptionsTest() : enclave_(TestEnclaveConfig()) {}
  sgx::Enclave enclave_;
};

TEST_P(ShieldStoreOptionsTest, FullWorkloadCorrectUnderAnyConfig) {
  const OptionCase& param = GetParam();
  Options options = SmallOptions();
  options.key_hint = param.key_hint;
  options.mac_bucketing = param.mac_bucketing;
  options.extra_heap = param.extra_heap;
  options.num_mac_hashes = param.mac_hashes;
  Store store(enclave_, options);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(store.Set("key" + std::to_string(i), std::string(1 + i % 64, 'v')).ok());
  }
  for (int i = 0; i < 500; i += 3) {
    ASSERT_TRUE(store.Set("key" + std::to_string(i), "updated").ok());
  }
  for (int i = 0; i < 500; i += 7) {
    ASSERT_TRUE(store.Delete("key" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 500; ++i) {
    auto result = store.Get("key" + std::to_string(i));
    if (i % 7 == 0) {
      EXPECT_EQ(result.status().code(), Code::kNotFound) << i;
    } else if (i % 3 == 0) {
      EXPECT_EQ(result.value(), "updated") << i;
    } else {
      EXPECT_EQ(result.value(), std::string(1 + i % 64, 'v')) << i;
    }
  }
  ASSERT_TRUE(store.VerifyFullIntegrity().ok());
}

INSTANTIATE_TEST_SUITE_P(
    OptionGrid, ShieldStoreOptionsTest,
    ::testing::Values(OptionCase{false, false, false, 0}, OptionCase{true, false, false, 0},
                      OptionCase{true, true, false, 0}, OptionCase{true, true, true, 0},
                      OptionCase{false, true, true, 0}, OptionCase{true, true, true, 16},
                      OptionCase{true, false, true, 7}, OptionCase{false, false, true, 1}),
    [](const auto& info) {
      const OptionCase& c = info.param;
      return std::string("hint") + (c.key_hint ? "1" : "0") + "mb" +
             (c.mac_bucketing ? "1" : "0") + "heap" + (c.extra_heap ? "1" : "0") + "sets" +
             std::to_string(c.mac_hashes);
    });

// ---------------------------------------------------------------- security

TEST_F(ShieldStoreTest, DetectsCiphertextTamper) {
  Store store(enclave_, SmallOptions());
  ASSERT_TRUE(store.Set("victim", "sensitive-data").ok());
  kv::EntryHeader* entry = StoreTestPeer::RawEntry(store, "victim");
  ASSERT_NE(entry, nullptr);
  entry->Ciphertext()[entry->key_size] ^= 0x01;  // flip one value byte
  EXPECT_EQ(store.Get("victim").status().code(), Code::kIntegrityFailure);
}

TEST_F(ShieldStoreTest, DetectsMacTamper) {
  Store store(enclave_, SmallOptions());
  ASSERT_TRUE(store.Set("victim", "data").ok());
  kv::EntryHeader* entry = StoreTestPeer::RawEntry(store, "victim");
  entry->mac[3] ^= 0x80;
  // The forged MAC breaks the bucket-set hash immediately.
  EXPECT_EQ(store.Get("victim").status().code(), Code::kIntegrityFailure);
}

TEST_F(ShieldStoreTest, DetectsEntryUnlinking) {
  Options options = SmallOptions();
  options.num_buckets = 1;
  Store store(enclave_, options);
  ASSERT_TRUE(store.Set("first", "1").ok());
  ASSERT_TRUE(store.Set("second", "2").ok());
  // Unlink the chain head ("second", inserted last) behind the store's back.
  uint64_t& head = StoreTestPeer::BucketHead(store, 0);
  head = StoreTestPeer::Deref(store, head)->next_ref;
  // Both the lookup of the removed key and of the surviving key must flag
  // tampering rather than report a clean miss/hit.
  EXPECT_EQ(store.Get("second").status().code(), Code::kIntegrityFailure);
  EXPECT_EQ(store.Get("first").status().code(), Code::kIntegrityFailure);
}

TEST_F(ShieldStoreTest, DetectsReplayOfOldVersion) {
  Store store(enclave_, SmallOptions());
  ASSERT_TRUE(store.Set("account", "balance=100").ok());
  kv::EntryHeader* entry = StoreTestPeer::RawEntry(store, "account");
  // Snapshot the full old entry bytes (header + ciphertext).
  const size_t total = sizeof(kv::EntryHeader) + entry->CiphertextSize();
  Bytes old_bytes(reinterpret_cast<uint8_t*>(entry), reinterpret_cast<uint8_t*>(entry) + total);
  // Same-length update re-seals in place.
  ASSERT_TRUE(store.Set("account", "balance=000").ok());
  ASSERT_EQ(StoreTestPeer::RawEntry(store, "account"), entry);
  const uint64_t next = entry->next_ref;
  std::memcpy(entry, old_bytes.data(), total);  // replay the old version
  entry->next_ref = next;
  // The old entry carries a valid *entry* MAC, but the bucket-set MAC hash
  // in the enclave reflects the newer version: replay is detected.
  EXPECT_EQ(store.Get("account").status().code(), Code::kIntegrityFailure);
}

TEST_F(ShieldStoreTest, HintTamperNeverBecomesSilentMiss) {
  Store store(enclave_, SmallOptions());
  ASSERT_TRUE(store.Set("victim", "data").ok());
  kv::EntryHeader* entry = StoreTestPeer::RawEntry(store, "victim");
  entry->key_hint ^= 0xFF;
  // Step-one search skips the entry (hint mismatch), the two-step fallback
  // finds it by decryption, and the authenticated hint field then exposes
  // the tampering. The crucial property: NOT a clean kNotFound.
  EXPECT_EQ(store.Get("victim").status().code(), Code::kIntegrityFailure);
}

TEST_F(ShieldStoreTest, DetectsMacBucketTamper) {
  Store store(enclave_, SmallOptions());
  ASSERT_TRUE(store.Set("victim", "data").ok());
  const size_t bucket = StoreTestPeer::BucketIndexFor(store, "victim");
  StoreTestPeer::MacBucketSlot(store, bucket, 0)[0] ^= 0x01;
  EXPECT_EQ(store.Get("victim").status().code(), Code::kIntegrityFailure);
}

TEST_F(ShieldStoreTest, DetectsForgedEntryInEmptyBucket) {
  Options options = SmallOptions();
  options.num_buckets = 2;
  Store store(enclave_, options);
  ASSERT_TRUE(store.Set("legit", "1").ok());
  const size_t legit_bucket = StoreTestPeer::BucketIndexFor(store, "legit");
  const size_t other_bucket = 1 - legit_bucket;
  // Splice the (validly MAC'd) entry into a bucket the enclave never wrote.
  kv::EntryHeader* entry = StoreTestPeer::RawEntry(store, "legit");
  StoreTestPeer::BucketHead(store, other_bucket) = StoreTestPeer::Ref(store, entry);
  StoreTestPeer::BucketHead(store, legit_bucket) = 0;
  EXPECT_EQ(store.Get("legit").status().code(), Code::kIntegrityFailure);
}

TEST_F(ShieldStoreTest, RejectsChainPointerIntoEnclave) {
  Store store(enclave_, SmallOptions());
  ASSERT_TRUE(store.Set("victim", "data").ok());
  const size_t bucket = StoreTestPeer::BucketIndexFor(store, "victim");
  // §7 attack: redirect the chain head into enclave memory to trick the
  // store into reading/writing trusted state.
  // The ref forged as-if it were a raw pointer: in pointer mode this is a
  // pointer into trusted memory, in offset mode a ref far past the carved
  // zone — either way outside the untrusted window the store accepts.
  void* inside = enclave_.Allocate(64);
  StoreTestPeer::BucketHead(store, bucket) = reinterpret_cast<uint64_t>(inside);
  EXPECT_EQ(store.Get("victim").status().code(), Code::kIntegrityFailure);
  enclave_.Free(inside);
}

TEST_F(ShieldStoreTest, ChainCycleDoesNotHang) {
  Options options = SmallOptions();
  options.num_buckets = 1;
  options.integrity = true;
  Store store(enclave_, options);
  ASSERT_TRUE(store.Set("a", "1").ok());
  ASSERT_TRUE(store.Set("b", "2").ok());
  const uint64_t head_ref = StoreTestPeer::BucketHead(store, 0);
  kv::EntryHeader* head = StoreTestPeer::Deref(store, head_ref);
  StoreTestPeer::Deref(store, head->next_ref)->next_ref = head_ref;  // cycle
  EXPECT_EQ(store.Get("nonexistent").status().code(), Code::kIntegrityFailure);
}

TEST_F(ShieldStoreTest, CiphertextHidesPlaintext) {
  Store store(enclave_, SmallOptions());
  const std::string secret = "super-secret-payload-7463";
  ASSERT_TRUE(store.Set("key-material", secret).ok());
  kv::EntryHeader* entry = StoreTestPeer::RawEntry(store, "key-material");
  const std::string_view ct(reinterpret_cast<const char*>(entry->Ciphertext()),
                            entry->CiphertextSize());
  EXPECT_EQ(ct.find(secret), std::string_view::npos);
  EXPECT_EQ(ct.find("key-material"), std::string_view::npos);
}

TEST_F(ShieldStoreTest, UpdateChangesCiphertextEvenForSameValue) {
  Store store(enclave_, SmallOptions());
  ASSERT_TRUE(store.Set("k", "same-value").ok());
  kv::EntryHeader* entry = StoreTestPeer::RawEntry(store, "k");
  Bytes first(entry->Ciphertext(), entry->Ciphertext() + entry->CiphertextSize());
  ASSERT_TRUE(store.Set("k", "same-value").ok());
  Bytes second(entry->Ciphertext(), entry->Ciphertext() + entry->CiphertextSize());
  EXPECT_NE(first, second) << "IV/counter must advance on every reseal";
  EXPECT_EQ(store.Get("k").value(), "same-value");
}

// ------------------------------------------------------------- persistence

class PersistTest : public ShieldStoreTest {
 protected:
  PersistTest() {
    dir_ = ::testing::TempDir() + "/shieldstore_persist_" + std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    counter_opts_.backing_file = dir_ + "/counters.bin";
    counter_opts_.increment_cost_cycles = 0;
  }
  ~PersistTest() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  sgx::MonotonicCounterService::Options counter_opts_;
};

TEST_F(PersistTest, SnapshotAndRecover) {
  const Options options = SmallOptions();
  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  {
    Store store(enclave_, options);
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(store.Set("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    Snapshotter snap(store, sealer, counters, {dir_, /*optimized=*/false});
    ASSERT_TRUE(snap.SnapshotNow().ok());
  }
  Result<std::unique_ptr<Store>> recovered =
      Snapshotter::Recover(enclave_, options, sealer, counters, {dir_, false});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Store& store = **recovered;
  EXPECT_EQ(store.Size(), 300u);
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(store.Get("k" + std::to_string(i)).value(), "v" + std::to_string(i)) << i;
  }
}

TEST_F(PersistTest, OptimizedSnapshotServesDuringWrite) {
  const Options options = SmallOptions();
  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  Store store(enclave_, options);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.Set("k" + std::to_string(i), "old").ok());
  }
  Snapshotter snap(store, sealer, counters, {dir_, /*optimized=*/true});
  ASSERT_TRUE(snap.StartSnapshot().ok());
  EXPECT_TRUE(store.InSnapshotEpoch());
  // Serve during the snapshot: updates land in the temp table, reads see
  // both layers, deletes tombstone.
  ASSERT_TRUE(store.Set("k0", "new").ok());
  ASSERT_TRUE(store.Set("fresh", "42").ok());
  ASSERT_TRUE(store.Delete("k1").ok());
  EXPECT_EQ(store.Get("k0").value(), "new");
  EXPECT_EQ(store.Get("fresh").value(), "42");
  EXPECT_EQ(store.Get("k1").status().code(), Code::kNotFound);
  EXPECT_EQ(store.Get("k2").value(), "old");
  ASSERT_TRUE(snap.FinishSnapshot(/*wait=*/true).ok());
  EXPECT_FALSE(store.InSnapshotEpoch());
  // Epoch merged into the main table.
  EXPECT_EQ(store.Get("k0").value(), "new");
  EXPECT_EQ(store.Get("fresh").value(), "42");
  EXPECT_EQ(store.Get("k1").status().code(), Code::kNotFound);
  ASSERT_TRUE(store.VerifyFullIntegrity().ok());
  // The snapshot on disk reflects the pre-epoch state.
  Result<std::unique_ptr<Store>> recovered =
      Snapshotter::Recover(enclave_, options, sealer, counters, {dir_, true});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->Get("k0").value(), "old");
  EXPECT_EQ((*recovered)->Get("k1").value(), "old");
  EXPECT_EQ((*recovered)->Get("fresh").status().code(), Code::kNotFound);
}

TEST_F(PersistTest, RollbackAttackDetected) {
  const Options options = SmallOptions();
  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  Store store(enclave_, options);
  ASSERT_TRUE(store.Set("balance", "100").ok());
  Snapshotter snap(store, sealer, counters, {dir_, false});
  ASSERT_TRUE(snap.SnapshotNow().ok());
  // Attacker stashes the old snapshot files.
  const std::string stash = dir_ + "/stash";
  std::filesystem::create_directories(stash);
  std::filesystem::copy(snap.MetaPath(), stash + "/shieldstore.meta");
  std::filesystem::copy(snap.DataPath(), stash + "/shieldstore.data");
  // Legitimate newer snapshot.
  ASSERT_TRUE(store.Set("balance", "0").ok());
  ASSERT_TRUE(snap.SnapshotNow().ok());
  // Replay the stale snapshot.
  std::filesystem::copy(stash + "/shieldstore.meta", snap.MetaPath(),
                        std::filesystem::copy_options::overwrite_existing);
  std::filesystem::copy(stash + "/shieldstore.data", snap.DataPath(),
                        std::filesystem::copy_options::overwrite_existing);
  Result<std::unique_ptr<Store>> recovered =
      Snapshotter::Recover(enclave_, options, sealer, counters, {dir_, false});
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), Code::kRollbackDetected);
}

TEST_F(PersistTest, TamperedDataFileDetected) {
  const Options options = SmallOptions();
  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  Store store(enclave_, options);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.Set("k" + std::to_string(i), "v").ok());
  }
  Snapshotter snap(store, sealer, counters, {dir_, false});
  ASSERT_TRUE(snap.SnapshotNow().ok());
  // Flip one ciphertext byte in the middle of the data file, leaving the
  // trailing footer intact: an attacker-edited file, not a torn write.
  FILE* f = std::fopen(snap.DataPath().c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long mid = std::ftell(f) / 2;
  std::fseek(f, mid, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, mid, SEEK_SET);
  std::fputc(c ^ 1, f);
  std::fclose(f);
  Result<std::unique_ptr<Store>> recovered =
      Snapshotter::Recover(enclave_, options, sealer, counters, {dir_, false});
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), Code::kIntegrityFailure);
}

TEST_F(PersistTest, SnapshotFromDifferentEnclaveRejected) {
  const Options options = SmallOptions();
  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  Store store(enclave_, options);
  ASSERT_TRUE(store.Set("k", "v").ok());
  Snapshotter snap(store, sealer, counters, {dir_, false});
  ASSERT_TRUE(snap.SnapshotNow().ok());
  // An enclave with a different measurement derives different seal keys.
  sgx::EnclaveConfig other_cfg = TestEnclaveConfig();
  other_cfg.name = "other";
  sgx::Enclave other(other_cfg);
  sgx::SealingService other_sealer(AsBytes("fuse"), other.measurement());
  Result<std::unique_ptr<Store>> recovered =
      Snapshotter::Recover(other, options, other_sealer, counters, {dir_, false});
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), Code::kIntegrityFailure);
}


TEST_F(PersistTest, RollbackDetectedAcrossSnapshotterInstances) {
  // Regression test: a fresh Snapshotter must adopt the monotonic counter
  // bound to the existing snapshot; creating a new counter per instance
  // would let stale snapshots replay cleanly.
  const Options options = SmallOptions();
  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  Store store(enclave_, options);
  ASSERT_TRUE(store.Set("balance", "100").ok());
  {
    Snapshotter snap(store, sealer, counters, {dir_, false});
    ASSERT_TRUE(snap.SnapshotNow().ok());
  }
  const std::string stash = dir_ + "/stash";
  std::filesystem::create_directories(stash);
  std::filesystem::copy(dir_ + "/shieldstore.meta", stash + "/shieldstore.meta");
  std::filesystem::copy(dir_ + "/shieldstore.data", stash + "/shieldstore.data");
  ASSERT_TRUE(store.Set("balance", "0").ok());
  {
    // A *different* snapshotter instance (e.g. after a process restart).
    Snapshotter snap(store, sealer, counters, {dir_, false});
    ASSERT_TRUE(snap.SnapshotNow().ok());
  }
  std::filesystem::copy(stash + "/shieldstore.meta", dir_ + "/shieldstore.meta",
                        std::filesystem::copy_options::overwrite_existing);
  std::filesystem::copy(stash + "/shieldstore.data", dir_ + "/shieldstore.data",
                        std::filesystem::copy_options::overwrite_existing);
  Result<std::unique_ptr<Store>> recovered =
      Snapshotter::Recover(enclave_, options, sealer, counters, {dir_, false});
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), Code::kRollbackDetected);
}

// -------------------------------------------------------------- key hints

TEST_F(ShieldStoreTest, KeyHintReducesDecryptions) {
  Options with_hint = SmallOptions();
  with_hint.num_buckets = 4;  // long chains
  Options no_hint = with_hint;
  no_hint.key_hint = false;

  uint64_t decrypts_with, decrypts_without;
  {
    Store store(enclave_, with_hint);
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(store.Set("key" + std::to_string(i), "v").ok());
    }
    const uint64_t before = store.stats().decryptions;
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(store.Get("key" + std::to_string(i)).ok());
    }
    decrypts_with = store.stats().decryptions - before;
  }
  {
    Store store(enclave_, no_hint);
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(store.Set("key" + std::to_string(i), "v").ok());
    }
    const uint64_t before = store.stats().decryptions;
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(store.Get("key" + std::to_string(i)).ok());
    }
    decrypts_without = store.stats().decryptions - before;
  }
  // ~100-entry chains: hints should cut key decryptions by well over 10x
  // (Figure 9's effect).
  EXPECT_LT(decrypts_with * 10, decrypts_without);
}

// ------------------------------------------------------------------ cache

TEST_F(ShieldStoreTest, EpcCacheServesHotReads) {
  Options options = SmallOptions();
  options.epc_cache = true;
  options.cache_slots = 1024;
  Store store(enclave_, options);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Set("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(store.Get("k" + std::to_string(i)).value(), "v" + std::to_string(i));
    }
  }
  EXPECT_GT(store.stats().cache_hits, 300u);
  // Writes invalidate/refresh: no stale reads.
  ASSERT_TRUE(store.Set("k5", "fresh").ok());
  EXPECT_EQ(store.Get("k5").value(), "fresh");
  ASSERT_TRUE(store.Delete("k7").ok());
  EXPECT_EQ(store.Get("k7").status().code(), Code::kNotFound);
}

// ------------------------------------------------------------- partitioned

TEST_F(ShieldStoreTest, PartitionedBasicOps) {
  PartitionedStore store(enclave_, SmallOptions(), 4);
  EXPECT_EQ(store.num_partitions(), 4u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(store.Set("key" + std::to_string(i), std::to_string(i)).ok());
  }
  EXPECT_EQ(store.Size(), 500u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(store.Get("key" + std::to_string(i)).value(), std::to_string(i));
  }
  // Partition routing is stable and partitions the space.
  std::set<size_t> seen;
  for (int i = 0; i < 100; ++i) {
    const size_t p = store.PartitionOf("key" + std::to_string(i));
    EXPECT_EQ(p, store.PartitionOf("key" + std::to_string(i)));
    EXPECT_LT(p, 4u);
    seen.insert(p);
  }
  EXPECT_EQ(seen.size(), 4u) << "100 keys should hit all 4 partitions";
}

TEST_F(ShieldStoreTest, PartitionedConcurrentMixedOps) {
  PartitionedStore store(enclave_, SmallOptions(), 4);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, &failures, t] {
      for (int i = 0; i < 400; ++i) {
        const std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
        if (!store.Set(key, std::to_string(i)).ok()) {
          ++failures;
        }
        auto got = store.Get(key);
        if (!got.ok() || got.value() != std::to_string(i)) {
          ++failures;
        }
        if (i % 5 == 0 && !store.Delete(key).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.Size(), 4u * (400 - 80));
}

TEST_F(ShieldStoreTest, ForEachDecryptedVisitsLiveEntriesOnly) {
  Store store(enclave_, SmallOptions());
  ASSERT_TRUE(store.Set("a", "1").ok());
  ASSERT_TRUE(store.Set("b", "2").ok());
  ASSERT_TRUE(store.Set("c", "3").ok());
  ASSERT_TRUE(store.Delete("b").ok());
  std::map<std::string, std::string> seen;
  ASSERT_TRUE(store
                  .ForEachDecrypted([&](std::string_view k, std::string_view v) {
                    seen.emplace(k, v);
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen["a"], "1");
  EXPECT_EQ(seen["c"], "3");
  // Tampering surfaces through the iteration too.
  kv::EntryHeader* entry = StoreTestPeer::RawEntry(store, "a");
  entry->Ciphertext()[entry->key_size] ^= 1;
  EXPECT_EQ(store.ForEachDecrypted([](std::string_view, std::string_view) {
    return Status::Ok();
  }).code(), Code::kIntegrityFailure);
}

// ------------------------------------------------- ShieldBase OCALL costs

TEST_F(ShieldStoreTest, ExtraHeapSlashesOcalls) {
  Options base = SmallOptions();
  base.extra_heap = false;
  Options opt = SmallOptions();
  opt.extra_heap = true;
  opt.heap_chunk_bytes = 16u << 20;

  const uint64_t before_base = enclave_.boundary().ocall_count();
  {
    Store store(enclave_, base);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(store.Set("k" + std::to_string(i), "value").ok());
    }
    const uint64_t base_ocalls = enclave_.boundary().ocall_count() - before_base;
    EXPECT_GE(base_ocalls, 1000u) << "one OCALL per allocation without the extra heap";
  }
  const uint64_t before_opt = enclave_.boundary().ocall_count();
  {
    Store store(enclave_, opt);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(store.Set("k" + std::to_string(i), "value").ok());
    }
    const uint64_t opt_ocalls = enclave_.boundary().ocall_count() - before_opt;
    EXPECT_LE(opt_ocalls, 10u) << "chunked extra heap amortizes OCALLs (§5.1)";
  }
}

// ------------------------------------------- crypto backend equivalence
//
// The AES-NI hot path must be indistinguishable from the table reference at
// the store level: same deterministic enclave seed + master key + workload
// must yield byte-identical sealed entries (IV, MAC, ciphertext) and
// identical exported secure metadata. Skips where the hardware backend is
// not active (no AES-NI, SHIELD_FORCE_SOFT_AES, -DSHIELD_DISABLE_AESNI).

TEST(BackendEquivalenceTest, HardwareAndTableStoresAreByteIdentical) {
  if (crypto::Aes128::Backend() != crypto::AesBackend::kAesNi) {
    GTEST_SKIP() << "hardware crypto backend not active";
  }
  sgx::Enclave hw_enclave(TestEnclaveConfig());
  sgx::Enclave sw_enclave(TestEnclaveConfig());
  Options opts = SmallOptions();
  opts.master_key = ToBytes("cross-backend-master");
  Options soft_opts = opts;
  soft_opts.soft_crypto = true;
  Store hw(hw_enclave, opts);
  Store sw(sw_enclave, soft_opts);

  // Identical mixed workload on both stores: inserts, overwrites (shrink and
  // grow), deletes, reads, and a batch with every op type.
  auto apply = [](Store& s) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(s.Set("key-" + std::to_string(i), "value-" + std::to_string(i * 7)).ok());
    }
    for (int i = 0; i < 200; i += 3) {
      ASSERT_TRUE(s.Set("key-" + std::to_string(i), "v").ok());  // shrink in place
    }
    for (int i = 1; i < 200; i += 5) {
      ASSERT_TRUE(s.Set("key-" + std::to_string(i), std::string(300, 'g')).ok());  // grow
    }
    for (int i = 2; i < 200; i += 7) {
      ASSERT_TRUE(s.Delete("key-" + std::to_string(i)).ok());
    }
    for (int i = 0; i < 200; i += 2) {
      (void)s.Get("key-" + std::to_string(i));
    }
    std::vector<kv::BatchOp> batch;
    batch.push_back({kv::BatchOpType::kSet, "batch-a", "1", 0});
    batch.push_back({kv::BatchOpType::kIncrement, "batch-a", "", 41});
    batch.push_back({kv::BatchOpType::kAppend, "batch-a", "-tail", 0});
    batch.push_back({kv::BatchOpType::kGet, "batch-a", "", 0});
    batch.push_back({kv::BatchOpType::kSet, "batch-b", "bye", 0});
    batch.push_back({kv::BatchOpType::kDelete, "batch-b", "", 0});
    for (const kv::BatchOpResult& r : s.ExecuteBatch(batch)) {
      ASSERT_TRUE(r.status.ok());
    }
    ASSERT_TRUE(s.VerifyFullIntegrity().ok());
  };
  apply(hw);
  apply(sw);

  // Enclave-side secure metadata (keys + bucket-set MAC hashes) must match.
  EXPECT_EQ(hw.ExportSecureMetadata(), sw.ExportSecureMetadata());

  // Every surviving sealed entry must be byte-identical: header fields,
  // IV/counter, MAC, and ciphertext.
  size_t compared = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    kv::EntryHeader* he = StoreTestPeer::RawEntry(hw, key);
    kv::EntryHeader* se = StoreTestPeer::RawEntry(sw, key);
    ASSERT_EQ(he == nullptr, se == nullptr) << key;
    if (he == nullptr) {
      continue;
    }
    EXPECT_EQ(he->key_size, se->key_size) << key;
    EXPECT_EQ(he->val_size, se->val_size) << key;
    EXPECT_EQ(he->key_hint, se->key_hint) << key;
    EXPECT_EQ(he->flags, se->flags) << key;
    EXPECT_EQ(0, std::memcmp(he->iv_ctr, se->iv_ctr, 16)) << key;
    EXPECT_EQ(0, std::memcmp(he->mac, se->mac, 16)) << key;
    ASSERT_EQ(he->CiphertextSize(), se->CiphertextSize()) << key;
    EXPECT_EQ(0, std::memcmp(he->Ciphertext(), se->Ciphertext(), he->CiphertextSize())) << key;
    ++compared;
  }
  EXPECT_GT(compared, 100u);

  // And the plaintext views agree too (decryption through either backend).
  EXPECT_EQ(hw.Get("batch-a").value(), "42-tail");
  EXPECT_EQ(sw.Get("batch-a").value(), "42-tail");
}

}  // namespace
}  // namespace shield::shieldstore
