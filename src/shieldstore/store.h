// ShieldStore: the paper's contribution (§4, §5).
//
// The main chained hash table lives in UNTRUSTED memory; every entry is
// individually AES-CTR encrypted and CMAC'd by enclave code (src/kv/entry).
// Only secrets and integrity roots stay in enclave (EPC-backed) memory:
//   * the store keys, and
//   * the flattened-Merkle array of bucket-set MAC hashes (§4.3).
// Optimizations (§5): extra heap allocator for untrusted memory, per-bucket
// MAC buckets, 1-byte key hints with a two-step search, and an optional
// EPC-resident plaintext cache (§6.3). Multi-threading is provided by
// PartitionedStore (partitioned key space, §5.3).
//
// Threading contract: a Store is owned by one mutating thread. During an
// optimized snapshot (§4.4) a background writer thread may concurrently
// *read* the main table because the owner redirects all writes to the
// temporary table for the duration of the epoch.
#ifndef SHIELDSTORE_SRC_SHIELDSTORE_STORE_H_
#define SHIELDSTORE_SRC_SHIELDSTORE_STORE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/alloc/free_list.h"
#include "src/kv/entry.h"
#include "src/kv/interface.h"
#include "src/obs/metrics.h"
#include "src/sgx/enclave.h"
#include "src/shieldstore/cache.h"
#include "src/shieldstore/options.h"

namespace shield::faultinject {
class TamperAgent;  // white-box adversary (src/faultinject); friend of Store
}  // namespace shield::faultinject

namespace shield::shieldstore {

// Entry flag bits.
inline constexpr uint8_t kFlagTombstone = 0x1;  // delete recorded in a temp table

// Untrusted-memory heap used for entries and MAC buckets. In extra-heap mode
// (§5.1) an in-enclave free-list allocator draws chunks via one OCALL'd mmap
// per `chunk_bytes`; otherwise every allocation is an individual OCALL.
class UntrustedHeap {
 public:
  UntrustedHeap(sgx::Boundary& boundary, bool extra_heap, size_t chunk_bytes);
  ~UntrustedHeap();

  UntrustedHeap(const UntrustedHeap&) = delete;
  UntrustedHeap& operator=(const UntrustedHeap&) = delete;

  void* Allocate(size_t bytes);
  void Free(void* ptr);
  // Usable payload size of an allocation (for in-place value updates).
  size_t UsableSize(void* ptr) const;

  uint64_t ocall_count() const;

  // Offset-addressed refs (one chain layout across heap modes): in
  // extra-heap mode every chunk is carved sequentially out of ONE up-front
  // PROT_NONE reservation, so `ptr - base()` is a stable ref below
  // carved(). ShieldBase mode has no reservation — base() is null and refs
  // carry raw pointer values.
  uint8_t* base() const { return base_; }
  uint64_t carved() const { return carved_.load(std::memory_order_acquire); }

 private:
  sgx::Boundary& boundary_;
  const bool extra_heap_;
  uint8_t* base_ = nullptr;  // extra-heap reservation (PROT_NONE until carved)
  size_t reserved_ = 0;
  std::atomic<uint64_t> carved_{0};
  std::unique_ptr<alloc::FreeListAllocator> free_list_;
  std::mutex carve_mutex_;
  std::atomic<uint64_t> direct_ocalls_{0};
};

class Store : public kv::KeyValueStore {
 public:
  Store(sgx::Enclave& enclave, const Options& options);
  ~Store() override;

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  // --- kv::KeyValueStore ---------------------------------------------------
  Status Set(std::string_view key, std::string_view value) override;
  Result<std::string> Get(std::string_view key) override;
  Status Delete(std::string_view key) override;
  // Runs the ops inside a MAC batch scope: each touched bucket set is
  // verified once on first touch, and its trusted hash is recomputed and
  // stored once at the end — instead of once per op. The final hashes are
  // identical to sequential execution because StoreBucketSetMac derives
  // them from the (same) final untrusted state.
  std::vector<kv::BatchOpResult> ExecuteBatch(const std::vector<kv::BatchOp>& ops) override;
  size_t Size() const override;
  std::string Name() const override { return "ShieldStore"; }
  kv::StoreStats stats() const override;

  const Options& options() const { return options_; }
  sgx::Enclave& enclave() { return enclave_; }
  uint64_t heap_ocalls() const { return heap_->ocall_count(); }

  // --- snapshot persistence hooks (§4.4; driven by persist.h) --------------
  // Serialized secure metadata (keys + MAC hash array); callers seal it.
  Bytes ExportSecureMetadata() const;
  // Loads metadata into an EMPTY store with matching geometry; subsequent
  // RestoreEntry calls rebuild the table, and FinishRestore() verifies the
  // rebuilt table against the imported MAC hashes.
  Status ImportSecureMetadata(ByteSpan metadata);
  // Serialized form of one entry: everything but the chain pointer.
  static constexpr size_t kEntryRecordHeaderBytes = 8 + 4 + 4 + 1 + 1 + 16 + 16;
  // Invokes fn(bucket, record_bytes) for every entry, bucket by bucket in
  // reverse chain order (so restoring with head-insertion recreates the
  // exact chain order, which the bucket-set MAC hashes depend on).
  void ForEachEntryRecord(const std::function<void(ByteSpan record)>& fn) const;
  // Re-inserts a serialized entry without re-encrypting (§4.4: snapshot data
  // is already ciphertext). Integrity is checked later by FinishRestore.
  Status RestoreEntry(ByteSpan record);
  Status FinishRestore();

  // --- snapshot epochs (optimized persistence, Algorithm 1) ---------------
  // While an epoch is open, writes land in a temporary table and the main
  // table is read-only (safe for a concurrent snapshot writer thread).
  Status BeginSnapshotEpoch();
  // Merges the temporary table back (applying tombstones) and closes.
  Status EndSnapshotEpoch();
  bool InSnapshotEpoch() const { return temp_table_ != nullptr; }

  // Test hook: recomputes every bucket-set MAC hash from untrusted memory
  // and compares with the trusted copies. O(store size).
  Status VerifyFullIntegrity() const;

  // Full-table audit: walks every chain (hostile-pointer and cycle checks),
  // recomputes every entry MAC, cross-checks the MAC-bucket copies, then
  // verifies all bucket-set hashes against the trusted array. Strictly
  // stronger than VerifyFullIntegrity: it also localizes per-entry damage
  // that only shows up as a set-level mismatch there. O(store size).
  struct ScrubReport {
    Status status;               // first violation found, or OK
    size_t entries_verified = 0;
    size_t sets_verified = 0;
    size_t buckets_verified = 0;
    bool cycle_complete = false;  // ScrubStep wrapped past the last bucket
  };
  ScrubReport Scrub() const;

  // Incremental scrub with a persistent cursor: audits up to `max_buckets`
  // bucket chains starting where the previous call stopped. When the cursor
  // wraps past the last bucket the pass ends (cycle_complete), and the
  // bucket-set hashes are verified against the trusted array to close the
  // cycle. Each per-bucket check is self-contained, so mutations between
  // calls are safe; a snapshot epoch's temporary table is only audited by
  // the full Scrub(). Same thread-safety contract as mutations.
  ScrubReport ScrubStep(size_t max_buckets);

  // Decrypts and visits every live entry (enclave work; entry MACs are
  // verified as entries are opened). Used by dynamic repartitioning.
  Status ForEachDecrypted(
      const std::function<Status(std::string_view key, std::string_view value)>& fn) const;

  // --- persistent arena hooks (Options::arena; driven by PartitionedStore) -
  bool persist_enabled() const { return arena_ != nullptr; }
  // Attaches the arena's committed generation to an EMPTY store: imports the
  // sealed metadata and loads the chain-index heads, deferring ALL per-entry
  // work — MAC-bucket copies rebuild on first touch, bucket-set hashes
  // verify lazily per op and via the scrub cursor. O(num_buckets), not
  // O(entries): this is what makes restart near-instant.
  Status AttachPersistent(ByteSpan metadata);
  // Arena checkpoint: commits the chain heads, dirty buckets, and sealed
  // metadata through the plan/commit protocol. On failure (including an
  // injected crash) the dirty tracking is kept so a retry re-covers it.
  Status PersistCheckpoint(ByteSpan sealed_meta);
  size_t dirty_buckets() const { return dirty_count_; }

 private:
  friend class StoreTestPeer;
  friend class faultinject::TamperAgent;
  friend class PartitionedStore;  // drives the MAC batch scope in ExecuteBatch

  // Per-bucket MAC list node (§5.2), in untrusted memory.
  struct MacBucket {
    static constexpr size_t kCapacity = 30;
    MacBucket* next;
    uint32_t count;
    uint32_t reserved;
    uint8_t macs[kCapacity][16];
  };

  struct Bucket {  // untrusted
    // Offset-based chain head (see kv::EntryHeader::next_ref); 0 = empty.
    uint64_t head_ref = 0;
    // MAC-copy list: volatile acceleration state, pointer-based in every
    // mode and never persisted — rebuilt lazily after an arena attach.
    MacBucket* macs = nullptr;
  };

  struct SearchResult {
    kv::EntryHeader* entry = nullptr;
    kv::EntryHeader* prev = nullptr;
    size_t position = 0;  // index within the chain
    bool used_full_search = false;
  };

  // --- internals -----------------------------------------------------------
  size_t BucketIndex(uint64_t hash) const { return hash % options_.num_buckets; }
  size_t SetOf(size_t bucket) const { return bucket / buckets_per_set_; }

  // §7: untrusted pointers must not alias enclave memory.
  Status CheckUntrustedPointer(const void* ptr) const;

  // Chain refs <-> pointers. ref_base_ set => refs are offsets into the
  // arena file / heap reservation; null => refs carry raw pointer values
  // (ShieldBase mode).
  kv::EntryHeader* Deref(uint64_t ref) const {
    if (ref == 0) {
      return nullptr;
    }
    return ref_base_ != nullptr ? reinterpret_cast<kv::EntryHeader*>(ref_base_ + ref)
                                : reinterpret_cast<kv::EntryHeader*>(static_cast<uintptr_t>(ref));
  }
  uint64_t Ref(const kv::EntryHeader* e) const {
    if (e == nullptr) {
      return 0;
    }
    return ref_base_ != nullptr
               ? static_cast<uint64_t>(reinterpret_cast<const uint8_t*>(e) - ref_base_)
               : static_cast<uint64_t>(reinterpret_cast<uintptr_t>(e));
  }
  // Replaces CheckUntrustedPointer at chain-walk sites: in offset modes the
  // ref plus its full ciphertext extent must land inside the zone (arena
  // capacity / carved heap), so a tampered ref or size field can neither
  // alias enclave memory nor read past the mapping.
  Status CheckEntryRef(uint64_t ref) const;

  // Entry storage dispatch: persistent arena when Options::arena is set,
  // the volatile heap otherwise.
  kv::EntryHeader* AllocateEntry(size_t bytes);
  void FreeEntry(kv::EntryHeader* e);
  size_t EntryUsableSize(const kv::EntryHeader* e) const;

  // Persist mode: records a chain-head change for the next checkpoint's
  // table delta. No-op in volatile modes.
  void MarkBucketDirty(size_t bucket);
  // Persist-mode COW relink: replaces `old_ref` with `new_ref` in bucket
  // b's chain. Committed blocks are never mutated in place (page-cache
  // writeback can persist any store at any time), so committed predecessors
  // are copied verbatim into fresh blocks — entry MACs exclude the chain
  // link and positions are unchanged, so MAC copies and set hashes survive.
  Status PersistRelink(size_t b, uint64_t old_ref, uint64_t new_ref);

  // Two-step search (§5.4): hint-filtered pass, then a full-decryption pass.
  // With MAC bucketing, the walk cross-checks each entry's header MAC
  // against its MAC-bucket copy (binding chain and copies together), and a
  // full walk additionally checks that the copy count matches the chain
  // length — without this, replayed entries or spliced/unlinked chain nodes
  // would slip past a bucket-set hash computed from the untrusted copies.
  // `full_walk` forces walking the whole chain even after a hit; mutations
  // require it so RebuildMacBucket never launders unverified tail entries.
  Result<SearchResult> FindEntry(size_t bucket, std::string_view key, uint8_t hint,
                                 bool full_walk);

  // One bucket's share of a scrub: chain walk with hostile-pointer and cycle
  // checks, per-entry MAC recomputation, and MAC-bucket cross-checks.
  Status ScrubBucketChain(size_t b, size_t* entries_verified) const;

  crypto::Mac ComputeBucketSetMac(size_t set) const;
  Status VerifyBucketSet(size_t set);
  // Clears the set's deferred post-attach verification debt (persist mode).
  void NoteLazyVerified(size_t set);
  void StoreBucketSetMac(size_t set);
  bool SetInitialized(size_t set) const;
  void MarkSetInitialized(size_t set);

  // MAC batch scope (ExecuteBatch). Inside a scope, VerifyBucketSetForOp
  // verifies a set only on its first touch (after a deferred mutation the
  // stored hash is intentionally stale, so re-verifying would false-fail;
  // every interim mutation is our own and entry MACs are still cross-checked
  // per access by FindEntry), and NoteBucketSetMutated marks the set dirty
  // instead of recomputing its hash. EndMacBatch stores each dirty set's
  // hash exactly once. Outside a scope both forward to the per-op paths.
  void BeginMacBatch();
  void EndMacBatch();
  Status VerifyBucketSetForOp(size_t set);
  void NoteBucketSetMutated(size_t set);

  // Rebuilds a bucket's MAC-copy list from its chain. Bounded and
  // ref-checked: after an arena attach this runs on first touch over not
  // yet verified chains (lazy rebuild), so a hostile chain must fail typed
  // here rather than hang or fault.
  Status RebuildMacBucket(size_t bucket);
  void UpdateMacBucketSlot(size_t bucket, size_t position, const uint8_t mac[16]);

  Status SetInternal(std::string_view key, std::string_view value, uint8_t flags);
  Result<std::string> GetInternal(std::string_view key, uint8_t* flags_out);
  Status DeleteInternal(std::string_view key);

  void TouchKeys() const;  // declares the EPC access to the key material

  sgx::Enclave& enclave_;
  Options options_;
  size_t buckets_per_set_;
  size_t num_mac_hashes_;

  kv::StoreKeys* keys_;          // enclave memory
  kv::StoreCipher* cipher_;      // enclave memory: pre-expanded schedules/subkeys
  crypto::Mac* mac_hashes_;      // enclave memory (the §4.3 flattened tree)
  uint64_t* mac_init_bitmap_;    // enclave memory: which sets hold a stored hash
  uint64_t restore_expected_entries_ = 0;

  std::vector<Bucket> buckets_;  // untrusted
  std::unique_ptr<UntrustedHeap> heap_;
  std::unique_ptr<EnclaveCache> cache_;

  // Persistent-arena state (null/empty in volatile modes).
  alloc::PersistentArena* arena_ = nullptr;
  uint8_t* ref_base_ = nullptr;  // arena or heap-reservation base
  std::vector<uint64_t> dirty_bitmap_;  // buckets whose head changed since the last checkpoint
  size_t dirty_count_ = 0;
  std::vector<uint8_t> lazy_pending_;  // per-set: bucket-set verify still owed since attach
  obs::Counter* lazy_verified_ctr_ = nullptr;  // heap.lazy_verified
  obs::Counter* msync_bytes_ctr_ = nullptr;    // heap.msync_bytes

  std::unique_ptr<Store> temp_table_;  // live during a snapshot epoch

  size_t entry_count_ = 0;
  size_t scrub_cursor_ = 0;  // next bucket ScrubStep audits

  // Relaxed atomics so stats() is tear-free even while a snapshot-epoch
  // background reader or a stats snapshot races the owner thread's
  // increments (TSan-clean; see obs_test / concurrency_test).
  struct AtomicStoreStats {
    std::atomic<uint64_t> gets{0};
    std::atomic<uint64_t> sets{0};
    std::atomic<uint64_t> deletes{0};
    std::atomic<uint64_t> appends{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> decryptions{0};
    std::atomic<uint64_t> mac_verifications{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> crypto_ctr_bytes{0};
    std::atomic<uint64_t> crypto_cmac_bytes{0};
  };
  // mutable: const paths (scrub, bucket-set MAC recompute) account crypto
  // bytes too.
  mutable AtomicStoreStats stats_;
  obs::Registry* metrics_ = nullptr;

  // MAC batch scope: per-set 0 = untouched this batch, 1 = verified,
  // 2 = dirty (hash recompute deferred to EndMacBatch).
  bool mac_batch_active_ = false;
  std::vector<uint8_t> mac_batch_state_;
  std::vector<uint32_t> mac_batch_touched_;
};

}  // namespace shield::shieldstore

#endif  // SHIELDSTORE_SRC_SHIELDSTORE_STORE_H_
