#include "src/shieldstore/store.h"

#include <sys/mman.h>

#include "src/alloc/persistent_arena.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>

#include "src/obs/audit.h"
#include "src/obs/tracer.h"

namespace shield::shieldstore {
namespace {

// Serialized entry record layout (ForEachEntryRecord / RestoreEntry):
// [bucket:8][key_size:4][val_size:4][key_hint:1][flags:1][iv_ctr:16][mac:16][ct].
constexpr size_t kRecordHeader = 8 + 4 + 4 + 1 + 1 + 16 + 16;

// Prefetches never fault, so an unchecked (hostile) ref is safe to hint.
void PrefetchEntry(uintptr_t entry) {
  __builtin_prefetch(reinterpret_cast<const void*>(entry));
  __builtin_prefetch(reinterpret_cast<const void*>(entry + 64));  // key ciphertext
}

}  // namespace

// ----------------------------------------------------------- UntrustedHeap

UntrustedHeap::UntrustedHeap(sgx::Boundary& boundary, bool extra_heap, size_t chunk_bytes)
    : boundary_(boundary), extra_heap_(extra_heap) {
  if (extra_heap_) {
    // One up-front PROT_NONE address-space reservation; chunks are carved
    // sequentially and made accessible with mprotect inside the OCALL. Chain
    // refs are offsets from base(), the same position-independent layout the
    // persistent arena uses, so one chain format serves both modes. The
    // reservation costs address space only (MAP_NORESERVE, no backing until
    // carved); carving starts one page in so ref 0 stays "end of chain".
    reserved_ = size_t{1} << 34;
    void* mem = mmap(nullptr, reserved_, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED) {
      reserved_ = 0;
    } else {
      base_ = static_cast<uint8_t*>(mem);
      carved_.store(4096, std::memory_order_release);
    }
    free_list_ = std::make_unique<alloc::FreeListAllocator>(
        [this](size_t min_bytes) -> alloc::Chunk {
          // §5.1: the in-enclave allocator ran out of pooled memory; one
          // OCALL makes the next slice of the reservation accessible.
          return boundary_.Ocall([this, min_bytes]() -> alloc::Chunk {
            std::lock_guard<std::mutex> lock(carve_mutex_);
            const size_t len = (min_bytes + 4095) & ~size_t{4095};
            const uint64_t at = carved_.load(std::memory_order_relaxed);
            if (base_ == nullptr || at + len > reserved_ ||
                mprotect(base_ + at, len, PROT_READ | PROT_WRITE) != 0) {
              return {};
            }
            carved_.store(at + len, std::memory_order_release);
            return alloc::Chunk{base_ + at, len};
          });
        },
        chunk_bytes, /*thread_safe=*/true);
  }
}

UntrustedHeap::~UntrustedHeap() {
  if (base_ != nullptr) {
    munmap(base_, reserved_);
  }
}

void* UntrustedHeap::Allocate(size_t bytes) {
  if (extra_heap_) {
    return free_list_->Allocate(bytes);
  }
  // ShieldBase path: every allocation crosses the boundary individually.
  direct_ocalls_.fetch_add(1, std::memory_order_relaxed);
  return boundary_.Ocall([bytes]() -> void* {
    uint64_t* mem = static_cast<uint64_t*>(std::malloc(bytes + 8));
    if (mem == nullptr) {
      return nullptr;
    }
    *mem = bytes;
    return mem + 1;
  });
}

void UntrustedHeap::Free(void* ptr) {
  if (ptr == nullptr) {
    return;
  }
  if (extra_heap_) {
    free_list_->Free(ptr);
    return;
  }
  direct_ocalls_.fetch_add(1, std::memory_order_relaxed);
  boundary_.Ocall([ptr]() { std::free(static_cast<uint64_t*>(ptr) - 1); });
}

size_t UntrustedHeap::UsableSize(void* ptr) const {
  if (extra_heap_) {
    return alloc::FreeListAllocator::UsableSize(ptr);
  }
  return static_cast<size_t>(*(static_cast<uint64_t*>(ptr) - 1));
}

uint64_t UntrustedHeap::ocall_count() const {
  if (extra_heap_) {
    return free_list_->stats().chunk_requests;
  }
  return direct_ocalls_.load(std::memory_order_relaxed);
}

// -------------------------------------------------------------------- Store

Store::Store(sgx::Enclave& enclave, const Options& options)
    : enclave_(enclave), options_(options) {
  assert(options_.num_buckets > 0);
  metrics_ = options_.metrics != nullptr ? options_.metrics : &obs::Registry::Global();
  num_mac_hashes_ = options_.num_mac_hashes == 0
                        ? options_.num_buckets
                        : std::min(options_.num_mac_hashes, options_.num_buckets);
  buckets_per_set_ = (options_.num_buckets + num_mac_hashes_ - 1) / num_mac_hashes_;

  keys_ = static_cast<kv::StoreKeys*>(enclave_.Allocate(sizeof(kv::StoreKeys)));
  Bytes master = options_.master_key;
  if (master.empty()) {
    master.resize(32);
    enclave_.ReadRand(master);
  }
  enclave_.Touch(keys_, sizeof(kv::StoreKeys), /*write=*/true);
  *keys_ = kv::StoreKeys::Derive(master);

  // Pre-expand the AES/CMAC schedules once (enclave memory, like the raw
  // keys): the hot paths below reuse them instead of re-deriving per call.
  cipher_ = static_cast<kv::StoreCipher*>(enclave_.Allocate(sizeof(kv::StoreCipher)));
  enclave_.Touch(cipher_, sizeof(kv::StoreCipher), /*write=*/true);
  new (cipher_) kv::StoreCipher(
      *keys_, options_.soft_crypto ? crypto::AesBackend::kTable : crypto::Aes128::Backend());

  // The flattened Merkle "tree" (§4.3): one trusted MAC hash per bucket set,
  // in enclave memory. Pages fault in lazily on first use; a trusted
  // initialized-bitmap distinguishes "never written" (hash of the empty set)
  // from stored values.
  mac_hashes_ = static_cast<crypto::Mac*>(enclave_.Allocate(num_mac_hashes_ * 16));

  buckets_.assign(options_.num_buckets, Bucket{});
  heap_ = std::make_unique<UntrustedHeap>(enclave_.boundary(), options_.extra_heap,
                                          options_.heap_chunk_bytes);
  arena_ = options_.arena;
  ref_base_ = arena_ != nullptr ? arena_->base() : heap_->base();
  if (arena_ != nullptr) {
    dirty_bitmap_.assign((options_.num_buckets + 63) / 64, 0);
    lazy_verified_ctr_ = &metrics_->GetCounter("heap.lazy_verified");
    msync_bytes_ctr_ = &metrics_->GetCounter("heap.msync_bytes");
  }
  if (options_.epc_cache) {
    const size_t slots =
        options_.cache_slots != 0 ? options_.cache_slots : std::max<size_t>(options_.cache_bytes / 512, 16);
    cache_ = std::make_unique<EnclaveCache>(enclave_, slots);
  }

  const size_t bitmap_words = (num_mac_hashes_ + 63) / 64;
  uint64_t* bitmap = static_cast<uint64_t*>(enclave_.Allocate(bitmap_words * 8));
  enclave_.Touch(bitmap, bitmap_words * 8, /*write=*/true);
  std::memset(bitmap, 0, bitmap_words * 8);
  mac_init_bitmap_ = bitmap;
  run_lookups_.resize(kMaxRunGets);
}

Store::~Store() {
  // Chains live in untrusted memory and may have been corrupted by an
  // attacker; teardown must never follow hostile pointers, loop on cycles,
  // or double-free. Collect bounded, deduplicated pointer lists first;
  // abandoned blocks die with the heap's mappings.
  const size_t max_steps = entry_count_ + 64;
  std::vector<void*> doomed;
  for (Bucket& bucket : buckets_) {
    size_t steps = 0;
    // Entries in a persistent arena are the durable state itself — never
    // freed at teardown. Volatile entries go back to the heap.
    if (arena_ == nullptr) {
      for (uint64_t ref = bucket.head_ref;
           ref != 0 && CheckEntryRef(ref).ok() && steps++ < max_steps;) {
        kv::EntryHeader* e = Deref(ref);
        doomed.push_back(e);
        ref = e->next_ref;
      }
    }
    steps = 0;
    for (MacBucket* mb = bucket.macs;
         mb != nullptr && !enclave_.ContainsAddress(mb) && steps++ < max_steps; mb = mb->next) {
      doomed.push_back(mb);
    }
  }
  std::sort(doomed.begin(), doomed.end());
  doomed.erase(std::unique(doomed.begin(), doomed.end()), doomed.end());
  for (void* p : doomed) {
    heap_->Free(p);
  }
  cache_.reset();
  enclave_.Free(mac_init_bitmap_);
  enclave_.Free(mac_hashes_);
  cipher_->~StoreCipher();
  enclave_.Free(cipher_);
  enclave_.Free(keys_);
}

void Store::TouchKeys() const {
  enclave_.Touch(keys_, sizeof(kv::StoreKeys));
  enclave_.Touch(cipher_, sizeof(kv::StoreCipher));
}

Status Store::CheckUntrustedPointer(const void* ptr) const {
  // §7: a corrupted chain pointer redirected into the enclave could make the
  // store overwrite trusted state; refuse to follow such pointers.
  if (ptr != nullptr && enclave_.ContainsAddress(ptr)) {
    return Status(Code::kIntegrityFailure, "untrusted pointer aliases enclave memory");
  }
  return Status::Ok();
}

Status Store::CheckEntryRef(uint64_t ref) const {
  if (ref == 0) {
    return Status::Ok();
  }
  if (ref_base_ == nullptr) {
    // ShieldBase: refs carry raw pointer values.
    return CheckUntrustedPointer(reinterpret_cast<const void*>(static_cast<uintptr_t>(ref)));
  }
  // Offset modes: the ref and the full entry extent must land inside the
  // zone. The header bound is checked BEFORE the size fields are read, and
  // the bounds subtract (a ref near 2^64 cannot wrap), so a tampered ref can
  // neither alias enclave memory nor fault on an unmapped page.
  const uint64_t zone = arena_ != nullptr ? arena_->capacity() : heap_->carved();
  if ((ref & 7) != 0 || ref < 4096 || ref > zone || zone - ref < sizeof(kv::EntryHeader)) {
    return Status(Code::kIntegrityFailure, "chain ref outside untrusted zone");
  }
  const kv::EntryHeader* e = Deref(ref);
  if (e->CiphertextSize() > zone - ref - sizeof(kv::EntryHeader)) {
    return Status(Code::kIntegrityFailure, "entry extent outside untrusted zone");
  }
  return Status::Ok();
}

kv::EntryHeader* Store::AllocateEntry(size_t bytes) {
  if (arena_ != nullptr) {
    Result<uint64_t> ref = arena_->Allocate(bytes);
    return ref.ok() ? Deref(ref.value()) : nullptr;
  }
  return static_cast<kv::EntryHeader*>(heap_->Allocate(bytes));
}

void Store::FreeEntry(kv::EntryHeader* e) {
  if (e == nullptr) {
    return;
  }
  if (arena_ != nullptr) {
    arena_->Free(Ref(e));
    return;
  }
  heap_->Free(e);
}

size_t Store::EntryUsableSize(const kv::EntryHeader* e) const {
  if (arena_ != nullptr) {
    return arena_->UsableSize(Ref(e));
  }
  return heap_->UsableSize(const_cast<kv::EntryHeader*>(e));
}

void Store::MarkBucketDirty(size_t bucket) {
  if (dirty_bitmap_.empty()) {
    return;
  }
  uint64_t& word = dirty_bitmap_[bucket / 64];
  const uint64_t bit = uint64_t{1} << (bucket % 64);
  if ((word & bit) == 0) {
    word |= bit;
    ++dirty_count_;
  }
}

Status Store::PersistRelink(size_t b, uint64_t old_ref, uint64_t new_ref) {
  Bucket& bucket = buckets_[b];
  // Collect the refs preceding old_ref. FindEntry just walked this chain,
  // but it lives in untrusted memory — bound and re-check everything.
  std::vector<uint64_t> path;
  const size_t max_steps = entry_count_ + 8;
  uint64_t ref = bucket.head_ref;
  size_t steps = 0;
  while (ref != old_ref) {
    if (ref == 0 || ++steps > max_steps) {
      return Status(Code::kIntegrityFailure, "chain changed under relink");
    }
    if (Status s = CheckEntryRef(ref); !s.ok()) {
      return s;
    }
    path.push_back(ref);
    ref = Deref(ref)->next_ref;
  }
  if (path.empty()) {
    bucket.head_ref = new_ref;
    MarkBucketDirty(b);
    return Status::Ok();
  }
  if (arena_->IsFresh(path.back())) {
    Deref(path.back())->next_ref = new_ref;
    return Status::Ok();
  }
  // The predecessor is a committed block, which must never be mutated in
  // place (page-cache writeback can persist any store at any time). Copy
  // every committed node on the path into fresh blocks, deepest first, and
  // splice at the first fresh ancestor or the head. Committed nodes form a
  // suffix of the path by the COW invariant; copies are verbatim with only
  // the link patched — entry MACs exclude the link and positions are
  // unchanged, so the MAC-bucket copies and set hashes stay valid.
  size_t first_committed = path.size();
  while (first_committed > 0 && !arena_->IsFresh(path[first_committed - 1])) {
    --first_committed;
  }
  uint64_t link = new_ref;
  std::vector<uint64_t> copies;
  for (size_t j = path.size(); j-- > first_committed;) {
    const kv::EntryHeader* old_node = Deref(path[j]);
    const size_t bytes = sizeof(kv::EntryHeader) + old_node->CiphertextSize();
    Result<uint64_t> moved = arena_->Allocate(bytes);
    if (!moved.ok()) {
      // Nothing was spliced yet; release the copies and leave the chain as
      // it was.
      for (uint64_t c : copies) {
        arena_->Free(c);
      }
      return moved.status();
    }
    std::memcpy(Deref(moved.value()), old_node, bytes);
    Deref(moved.value())->next_ref = link;
    copies.push_back(moved.value());
    link = moved.value();
  }
  if (first_committed == 0) {
    bucket.head_ref = link;
    MarkBucketDirty(b);
  } else {
    Deref(path[first_committed - 1])->next_ref = link;  // fresh by the invariant
  }
  for (size_t j = path.size(); j-- > first_committed;) {
    arena_->Free(path[j]);
  }
  return Status::Ok();
}

// ------------------------------------------------------ persistent arena

Status Store::AttachPersistent(ByteSpan metadata) {
  if (arena_ == nullptr) {
    return Status(Code::kInvalidArgument, "store has no persistent arena");
  }
  if (entry_count_ != 0) {
    return Status(Code::kInvalidArgument, "attach requires an empty store");
  }
  if (Status s = ImportSecureMetadata(metadata); !s.ok()) {
    return s;
  }
  std::vector<uint64_t> heads(options_.num_buckets, 0);
  if (Status s = arena_->LoadTable(heads.data(), heads.size()); !s.ok()) {
    return s;
  }
  for (size_t b = 0; b < options_.num_buckets; ++b) {
    buckets_[b].head_ref = heads[b];
  }
  entry_count_ = static_cast<size_t>(arena_->committed_entry_count());
  if (entry_count_ != restore_expected_entries_) {
    return Status(Code::kIntegrityFailure, "arena entry count diverges from sealed metadata");
  }
  // Defer ALL per-entry work: every bucket set owes one verification against
  // its trusted in-enclave hash, paid on first touch (VerifyBucketSet) or by
  // the paced scrub cursor. This is what keeps attach O(num_buckets).
  lazy_pending_.assign(num_mac_hashes_, 1);
  return Status::Ok();
}

Status Store::PersistCheckpoint(ByteSpan sealed_meta) {
  if (arena_ == nullptr) {
    return Status(Code::kInvalidArgument, "store has no persistent arena");
  }
  std::vector<uint64_t> heads(options_.num_buckets);
  for (size_t b = 0; b < options_.num_buckets; ++b) {
    heads[b] = buckets_[b].head_ref;
  }
  std::vector<uint64_t> dirty;
  dirty.reserve(dirty_count_);
  for (size_t w = 0; w < dirty_bitmap_.size(); ++w) {
    uint64_t word = dirty_bitmap_[w];
    while (word != 0) {
      dirty.push_back(uint64_t{w} * 64 + static_cast<uint64_t>(__builtin_ctzll(word)));
      word &= word - 1;
    }
  }
  if (Status s = arena_->Commit(heads.data(), heads.size(), dirty, sealed_meta, entry_count_);
      !s.ok()) {
    return s;  // dirty tracking kept: a retry re-covers the same buckets
  }
  std::fill(dirty_bitmap_.begin(), dirty_bitmap_.end(), 0);
  dirty_count_ = 0;
  if (msync_bytes_ctr_ != nullptr) {
    msync_bytes_ctr_->Inc(arena_->last_commit_msync_bytes());
  }
  return Status::Ok();
}

// ------------------------------------------------------------- MAC hashing

bool Store::SetInitialized(size_t set) const {
  const uint64_t* word = mac_init_bitmap_ + set / 64;
  enclave_.Touch(word, 8);
  return (*word >> (set % 64)) & 1;
}

void Store::MarkSetInitialized(size_t set) {
  uint64_t* word = mac_init_bitmap_ + set / 64;
  enclave_.Touch(word, 8, /*write=*/true);
  *word |= uint64_t{1} << (set % 64);
}

void Store::ComputeBucketSetMacs(std::span<const uint32_t> sets, crypto::Mac* out) const {
  // Each set's message (index || the MAC copies of its buckets) is gathered
  // into one buffer; CmacSignBatch then signs them 8 lanes at a time under
  // the store's pre-expanded CMAC key.
  thread_local Bytes gathered;
  thread_local std::vector<size_t> offsets;
  thread_local std::vector<crypto::CmacMessage> messages;
  gathered.clear();
  offsets.assign(1, 0);
  const size_t max_steps = entry_count_ + 8;
  const size_t max_nodes = entry_count_ / MacBucket::kCapacity + 2;
  for (const size_t set : sets) {
    TouchKeys();
    uint8_t index[8];
    StoreLe64(index, static_cast<uint64_t>(set));
    gathered.insert(gathered.end(), index, index + sizeof(index));
    const size_t begin = set * buckets_per_set_;
    const size_t end = std::min(begin + buckets_per_set_, options_.num_buckets);
    for (size_t b = begin; b < end; ++b) {
      const Bucket& bucket = buckets_[b];
      if (options_.mac_bucketing && bucket.macs != nullptr) {
        // §5.2: read the contiguous MAC copies instead of chasing entries.
        // The list is untrusted: a forged count or cycle only truncates it,
        // which surfaces as a hash mismatch.
        size_t nodes = 0;
        for (const MacBucket* mb = bucket.macs; mb != nullptr && nodes++ < max_nodes;
             mb = mb->next) {
          const size_t count = std::min<size_t>(mb->count, MacBucket::kCapacity);
          gathered.insert(gathered.end(), &mb->macs[0][0], &mb->macs[0][0] + 16 * count);
        }
      } else {
        // Entry-walk fallback (copies not built yet — e.g. lazily after an
        // arena attach): byte-identical to the copy path, but the chain may
        // be unverified, so bound the walk and stop on a bad ref. Dropped
        // tail bytes surface as a hash mismatch, never a hang or fault.
        size_t steps = 0;
        uint64_t ref = bucket.head_ref;
        while (ref != 0 && steps++ < max_steps && CheckEntryRef(ref).ok()) {
          const kv::EntryHeader* e = Deref(ref);
          gathered.insert(gathered.end(), e->mac, e->mac + 16);
          ref = e->next_ref;
        }
      }
    }
    offsets.push_back(gathered.size());
  }
  stats_.crypto_cmac_bytes.fetch_add(gathered.size(), std::memory_order_relaxed);
  messages.assign(sets.size(), crypto::CmacMessage{});
  for (size_t i = 0; i < sets.size(); ++i) {
    messages[i].Append(ByteSpan(gathered.data() + offsets[i], offsets[i + 1] - offsets[i]));
  }
  crypto::CmacSignBatch(cipher_->mac, messages, out);
}

crypto::Mac Store::TrustedSetMac(size_t set, bool* written) const {
  *written = SetInitialized(set);
  if (*written) {
    enclave_.Touch(&mac_hashes_[set], 16);
    return mac_hashes_[set];
  }
  // Never written: the trusted value is the MAC of the empty set.
  TouchKeys();
  crypto::Cmac empty(cipher_->mac);
  uint8_t index[8];
  StoreLe64(index, static_cast<uint64_t>(set));
  empty.Update(ByteSpan(index, sizeof(index)));
  return empty.Finalize();
}

Status Store::VerifyBucketSet(size_t set) {
  if (!options_.integrity) {
    return Status::Ok();
  }
  obs::ScopedStage stage(metrics_, obs::Stage::kMacVerify);
  const uint32_t one = static_cast<uint32_t>(set);
  crypto::Mac computed;
  ComputeBucketSetMacs(std::span<const uint32_t>(&one, 1), &computed);
  return CheckBucketSetMac(set, computed);
}

Status Store::CheckBucketSetMac(size_t set, const crypto::Mac& computed) {
  stats_.mac_verifications.fetch_add(1, std::memory_order_relaxed);
  bool written = false;
  const crypto::Mac trusted = TrustedSetMac(set, &written);
  if (!ConstantTimeEqual(ByteSpan(computed.data(), 16), ByteSpan(trusted.data(), 16))) {
    char detail[64];
    std::snprintf(detail, sizeof(detail),
                  written ? "bucket set %zu MAC hash mismatch" : "bucket set %zu forged while untouched",
                  set);
    obs::AuditEvent(obs::AuditType::kMacMismatch, detail);
    return Status(Code::kIntegrityFailure, written ? "bucket-set MAC hash mismatch"
                                                   : "entries forged into untouched bucket set");
  }
  NoteLazyVerified(set);
  return Status::Ok();
}

void Store::NoteLazyVerified(size_t set) {
  // First successful post-attach verification of this set: the deferred
  // restart-time check has now been paid.
  if (!lazy_pending_.empty() && lazy_pending_[set] != 0) {
    lazy_pending_[set] = 0;
    if (lazy_verified_ctr_ != nullptr) {
      lazy_verified_ctr_->Inc();
    }
  }
}

void Store::StoreBucketSetMacs(std::span<const uint32_t> sets) {
  if (!options_.integrity) {
    return;
  }
  std::vector<crypto::Mac> computed(sets.size());
  ComputeBucketSetMacs(sets, computed.data());
  for (size_t i = 0; i < sets.size(); ++i) {
    enclave_.Touch(&mac_hashes_[sets[i]], 16, /*write=*/true);
    mac_hashes_[sets[i]] = computed[i];
    MarkSetInitialized(sets[i]);
  }
}

void Store::BeginMacBatch() {
  if (!options_.integrity) {
    return;
  }
  if (mac_batch_state_.size() != num_mac_hashes_) {
    mac_batch_state_.assign(num_mac_hashes_, 0);
  }
  mac_batch_touched_.clear();
  mac_batch_active_ = true;
}

void Store::EndMacBatch() {
  if (!mac_batch_active_) {
    return;
  }
  // Stage-traced: closing the scope pays the deferred one-recompute-per-
  // touched-set cost that the batch amortized.
  obs::ScopedStage stage(metrics_, obs::Stage::kMacBatch);
  obs::TraceScope span("store.mac_batch");
  mac_batch_active_ = false;
  size_t dirty = 0;
  for (const uint32_t set : mac_batch_touched_) {
    if (mac_batch_state_[set] == 2) {
      mac_batch_touched_[dirty++] = set;
    }
    mac_batch_state_[set] = 0;
  }
  mac_batch_touched_.resize(dirty);
  StoreBucketSetMacs(mac_batch_touched_);
  mac_batch_touched_.clear();
}

Status Store::VerifyBucketSetForOp(size_t set) {
  if (!mac_batch_active_ || !options_.integrity) {
    return VerifyBucketSet(set);
  }
  if (mac_batch_state_[set] != 0) {
    // Verified on first touch. If it has been mutated since, the stored hash
    // is stale by design (recompute deferred), so re-verifying would false-
    // fail; the interim mutations are our own, and FindEntry still
    // cross-checks entry MACs against the MAC-bucket copies per access.
    return Status::Ok();
  }
  if (Status s = VerifyBucketSet(set); !s.ok()) {
    return s;
  }
  mac_batch_state_[set] = 1;
  mac_batch_touched_.push_back(static_cast<uint32_t>(set));
  return Status::Ok();
}

void Store::NoteBucketSetMutated(size_t set) {
  if (!mac_batch_active_ || !options_.integrity) {
    const uint32_t one = static_cast<uint32_t>(set);
    StoreBucketSetMacs(std::span<const uint32_t>(&one, 1));
    return;
  }
  if (mac_batch_state_[set] == 0) {
    mac_batch_touched_.push_back(static_cast<uint32_t>(set));
  }
  mac_batch_state_[set] = 2;
}

// ------------------------------------------------------------- MAC buckets

Status Store::RebuildMacBucket(size_t bucket_index) {
  if (!options_.mac_bucketing) {
    return Status::Ok();
  }
  Bucket& bucket = buckets_[bucket_index];
  MacBucket* node = bucket.macs;
  MacBucket* prev = nullptr;
  size_t slot = 0;
  // Bounded, ref-checked walk: after an arena attach this rebuilds lazily on
  // first touch over a not-yet-verified chain, so a hostile chain must fail
  // typed here rather than hang or fault.
  const size_t max_steps = entry_count_ + 8;
  size_t steps = 0;
  for (uint64_t ref = bucket.head_ref; ref != 0;) {
    if (Status s = CheckEntryRef(ref); !s.ok()) {
      return s;
    }
    if (++steps > max_steps) {
      return Status(Code::kIntegrityFailure, "hash chain cycle detected");
    }
    const kv::EntryHeader* e = Deref(ref);
    if (node == nullptr) {
      node = static_cast<MacBucket*>(heap_->Allocate(sizeof(MacBucket)));
      node->next = nullptr;
      node->count = 0;
      if (prev != nullptr) {
        prev->next = node;
      } else {
        bucket.macs = node;
      }
    }
    std::memcpy(node->macs[slot], e->mac, 16);
    ++slot;
    node->count = static_cast<uint32_t>(slot);
    if (slot == MacBucket::kCapacity) {
      prev = node;
      node = node->next;
      slot = 0;
    }
    ref = e->next_ref;
  }
  // Trim surplus nodes.
  MacBucket* surplus;
  if (slot == 0) {
    // The current node (if any) is entirely unused.
    surplus = node;
    if (prev != nullptr) {
      prev->next = nullptr;
    } else {
      bucket.macs = nullptr;
    }
  } else {
    surplus = node->next;
    node->next = nullptr;
  }
  while (surplus != nullptr) {
    MacBucket* next = surplus->next;
    heap_->Free(surplus);
    surplus = next;
  }
  return Status::Ok();
}

void Store::UpdateMacBucketSlot(size_t bucket_index, size_t position, const uint8_t mac[16]) {
  if (!options_.mac_bucketing) {
    return;
  }
  MacBucket* node = buckets_[bucket_index].macs;
  size_t hop = position / MacBucket::kCapacity;
  while (hop-- > 0) {
    node = node->next;
  }
  std::memcpy(node->macs[position % MacBucket::kCapacity], mac, 16);
}

// ------------------------------------------------------------------ search

Result<Store::SearchResult> Store::FindEntry(size_t bucket, std::string_view key, uint8_t hint,
                                             bool full_walk) {
  obs::ScopedStage stage(metrics_, obs::Stage::kSearchDecrypt);
  ChainWalk w{.key = key, .bucket = bucket, .hint = hint, .full_walk = full_walk};
  Status s = BeginWalk(w);
  while (s.ok() && !w.done) {
    s = StepWalk(w);
  }
  stats_.decryptions.fetch_add(w.decryptions, std::memory_order_relaxed);
  stats_.crypto_ctr_bytes.fetch_add(w.ctr_bytes, std::memory_order_relaxed);
  if (!s.ok()) {
    return s;
  }
  return w.result;
}

Status Store::BeginWalk(ChainWalk& w) {
  Bucket& bucket = buckets_[w.bucket];
  // Lazy rebuild after an arena attach: the MAC-copy list is never
  // persisted. The copies then trivially match in StepWalk — integrity comes
  // from the bucket-set verification binding them to the trusted hash.
  if (options_.mac_bucketing && options_.integrity && bucket.macs == nullptr &&
      bucket.head_ref != 0) {
    if (Status s = RebuildMacBucket(w.bucket); !s.ok()) {
      return s;
    }
  }
  w.copy_node = bucket.macs;
  w.ref = bucket.head_ref;
  if (w.ref != 0) {
    PrefetchEntry(reinterpret_cast<uintptr_t>(ref_base_) + w.ref);
  }
  __builtin_prefetch(w.copy_node);
  return Status::Ok();
}

Status Store::StepWalk(ChainWalk& w) {
  const bool check_copies = options_.mac_bucketing && options_.integrity;
  if (w.ref == 0) {
    if (!w.second_pass) {
      // Count check: the copy list must end exactly where the chain did, or
      // an unlinked tail entry would vanish as a clean miss.
      if (check_copies && w.copy_node != nullptr &&
          (w.copy_slot < w.copy_node->count || w.copy_node->next != nullptr)) {
        return Status(Code::kIntegrityFailure, "MAC bucket longer than hash chain");
      }
      if (w.result.entry == nullptr && options_.key_hint) {
        // Second step (§5.4): full search decrypting every key — preserves
        // availability when an attacker tampers with the plaintext hints.
        w.second_pass = true;
        w.ref = buckets_[w.bucket].head_ref;
        w.steps = 0;
        w.position = 0;
        w.prev = nullptr;
        return Status::Ok();
      }
    }
    w.done = true;  // found, not found, or the single pass was already a full search
    return Status::Ok();
  }
  // The second pass revisits refs the first one checked.
  if (Status s = w.second_pass ? Status::Ok() : CheckEntryRef(w.ref); !s.ok()) {
    return s;
  }
  kv::EntryHeader* entry = Deref(w.ref);
  if (++w.steps > entry_count_ + 8) {  // cycle guard for corrupted chains
    return Status(Code::kIntegrityFailure, "hash chain cycle detected");
  }
  if (check_copies && !w.second_pass) {
    const MacBucket* node = w.copy_node;
    if (node == nullptr || enclave_.ContainsAddress(node) || w.copy_slot >= node->count ||
        !ConstantTimeEqual(ByteSpan(entry->mac, 16), ByteSpan(node->macs[w.copy_slot], 16))) {
      return Status(Code::kIntegrityFailure, "entry MAC diverges from MAC bucket");
    }
    if (++w.copy_slot == MacBucket::kCapacity) {
      w.copy_node = node->next;
      w.copy_slot = 0;
      __builtin_prefetch(w.copy_node);
    }
  }
  // Pass one decrypts hint matches until a hit; pass two, what pass one skipped.
  const bool candidate = w.second_pass ? entry->key_hint != w.hint
                                       : w.result.entry == nullptr &&
                                             (!options_.key_hint || entry->key_hint == w.hint);
  if (candidate) {
    ++w.decryptions;
    w.ctr_bytes += entry->key_size;
    TouchKeys();
    if (kv::EntryKeyEquals(*cipher_, *entry, w.key)) {
      w.result = SearchResult{entry, w.prev, w.position};
      if (w.second_pass || !w.full_walk) {
        w.done = true;
        return Status::Ok();
      }
    }
  }
  w.prev = entry;
  w.ref = entry->next_ref;
  ++w.position;
  if (w.ref != 0) {
    PrefetchEntry(reinterpret_cast<uintptr_t>(ref_base_) + w.ref);
  }
  return Status::Ok();
}

// -------------------------------------------------------------- operations

Status Store::Set(std::string_view key, std::string_view value) {
  if (temp_table_ != nullptr) {
    return temp_table_->SetInternal(key, value, 0);
  }
  return SetInternal(key, value, 0);
}

Result<std::string> Store::Get(std::string_view key) {
  kv::BatchOpResult r;
  const GetSlot slot{key, &r};
  RunGets(std::span<const GetSlot>(&slot, 1));
  if (!r.status.ok()) {
    return r.status;
  }
  return std::move(r.value);
}

Status Store::Delete(std::string_view key) {
  if (temp_table_ != nullptr) {
    // Tombstone in the temporary table; applied to the main table on merge.
    // Preserve delete semantics: only keys currently visible through the
    // epoch layering (what Get sees) may be deleted.
    if (Result<std::string> visible = Get(key); !visible.ok()) {
      return visible.status();  // kNotFound or an integrity failure
    }
    return temp_table_->SetInternal(key, "", kFlagTombstone);
  }
  return DeleteInternal(key);
}

std::vector<kv::BatchOpResult> Store::ExecuteBatch(const std::vector<kv::BatchOp>& ops) {
  std::vector<kv::BatchOpResult> results(ops.size());
  std::vector<OpSlot> slots(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    slots[i] = OpSlot{&ops[i], &results[i]};
  }
  // During a snapshot epoch writes land in the temp table (its own hashes,
  // recomputed per op); the scope on the main table is then a harmless no-op.
  BeginMacBatch();
  // No quarantine at this level: ops after a failed one still run.
  for (size_t done = 0; done < slots.size();) {
    done += ExecuteOps(std::span<const OpSlot>(slots).subspan(done));
  }
  EndMacBatch();
  return results;
}

size_t Store::ExecuteOps(std::span<const OpSlot> ops) {
  size_t i = 0;
  GetSlot run[kMaxRunGets];
  while (i < ops.size()) {
    size_t n = 0;
    for (; n < kMaxRunGets && i + n < ops.size() && ops[i + n].op->type == kv::BatchOpType::kGet;
         ++n) {
      run[n] = GetSlot{ops[i + n].op->key, ops[i + n].result};
    }
    if (n == 0) {
      *ops[i].result = kv::ExecuteSingleOp(*this, *ops[i].op);
      ++i;
    } else {
      i += RunGets(std::span<const GetSlot>(run, n));
    }
    if (IsTamperEvidence(ops[i - 1].result->status)) {
      return i;
    }
  }
  return ops.size();
}

size_t Store::RunGets(std::span<const GetSlot> run) {
  if (temp_table_ == nullptr) {
    return LookupRun(run);
  }
  // Snapshot epoch (only while a snapshot is written): a key at a time, the
  // temporary table first.
  kv::BatchOpResult& r = *run[0].result;
  temp_table_->LookupRun(run.first(1));
  // The temporary table keeps no plaintext cache, so a hit is its walk's.
  if (r.status.ok() && (temp_table_->run_lookups_[0].walk.result.entry->flags & kFlagTombstone)) {
    r = kv::BatchOpResult{Status(Code::kNotFound, "deleted during snapshot epoch"), {}};
  } else if (r.status.code() == Code::kNotFound) {
    LookupRun(run.first(1));
  }
  return 1;
}

size_t Store::LookupRun(std::span<const GetSlot> run) {
  assert(run.size() <= kMaxRunGets);
  size_t n = run.size();
  size_t stop = n;  // first op whose walk failed, with its status
  Status failure;
  {
    obs::ScopedStage stage(metrics_, obs::Stage::kSearchDecrypt);
    // Stage 1: hash and hint every key, answer plaintext-cache hits, and
    // prefetch each miss's bucket slot and trusted set hash.
    for (size_t i = 0; i < n; ++i) {
      RunLookup& l = run_lookups_[i];
      l = RunLookup{};
      l.hash = kv::BucketHash(*keys_, run[i].key);
      // The cache is direct-mapped: an earlier miss of this run may fill
      // this key's slot, and sequential execution would probe after that
      // fill. The run ends before it; the caller starts the next one there.
      if (cache_ != nullptr &&
          std::any_of(run_lookups_.begin(), run_lookups_.begin() + i, [&](const RunLookup& e) {
            return !e.cache_hit && cache_->SlotOf(e.hash) == cache_->SlotOf(l.hash);
          })) {
        n = i;
        break;
      }
      TouchKeys();
      if (cache_ != nullptr) {
        if (std::optional<std::string> hit = cache_->Get(l.hash, run[i].key)) {
          l.cache_hit = true;
          l.walk.done = true;
          run[i].result->value = std::move(*hit);
          continue;
        }
      }
      l.walk.key = run[i].key;
      l.walk.bucket = BucketIndex(l.hash);
      l.walk.hint = kv::KeyHint(*keys_, run[i].key);
      __builtin_prefetch(&buckets_[l.walk.bucket]);
      __builtin_prefetch(&mac_hashes_[SetOf(l.walk.bucket)]);
    }
    stop = n;
    // Stage 2: walk every chain, one hop per walk per round, so each round's
    // untrusted-memory misses are in flight together. A failed walk ends the
    // run there: later ops are dropped.
    for (size_t i = 0; i < stop; ++i) {
      if (run_lookups_[i].cache_hit) {
        continue;
      }
      if (Status s = BeginWalk(run_lookups_[i].walk); !s.ok()) {
        failure = std::move(s);
        stop = i;
      }
    }
    for (bool active = true; active;) {
      active = false;
      for (size_t i = 0; i < stop; ++i) {
        ChainWalk& w = run_lookups_[i].walk;
        if (w.done) {
          continue;
        }
        if (Status s = StepWalk(w); !s.ok()) {
          failure = std::move(s);
          stop = i;
          break;
        }
        active |= !w.done;
      }
    }
  }
  obs::ScopedStage stage(metrics_, obs::Stage::kMacVerify);
  // Stages 3 and 4: recompute each bucket set this run verifies (per
  // VerifyBucketSetForOp: first touch in a MAC-batch scope, every op outside
  // one) and the hits' entry MACs, both in CMAC lanes.
  uint32_t sets[kMaxRunGets];
  crypto::Mac set_macs[kMaxRunGets];
  size_t num_sets = 0;
  const kv::EntryHeader* hits[kMaxRunGets];
  size_t num_hits = 0;
  for (size_t i = 0; i < stop; ++i) {
    RunLookup& l = run_lookups_[i];
    if (l.cache_hit) {
      continue;
    }
    if (l.walk.result.entry != nullptr) {
      hits[num_hits++] = l.walk.result.entry;
    }
    const uint32_t set = static_cast<uint32_t>(SetOf(l.walk.bucket));
    if (options_.integrity &&
        (!mac_batch_active_ || (mac_batch_state_[set] == 0 &&
                                std::find(sets, sets + num_sets, set) == sets + num_sets))) {
      l.verify_slot = static_cast<int32_t>(num_sets);
      sets[num_sets++] = set;
    }
  }
  ComputeBucketSetMacs(std::span<const uint32_t>(sets, num_sets), set_macs);
  const size_t bad_hit = kv::VerifyEntryMacsBatch(
      *cipher_, std::span<const kv::EntryHeader* const>(hits, num_hits));
  // Commit in op order, exactly as sequential gets would: op i's set check,
  // then its entry MAC, then its value. The first failure ends the run.
  size_t ran = n;
  size_t hit = 0;
  uint64_t hits_ok = 0;
  uint64_t misses = 0;
  uint64_t ctr_bytes = 0;
  uint64_t cmac_bytes = 0;
  for (size_t i = 0; i < n && ran == n; ++i) {
    RunLookup& l = run_lookups_[i];
    kv::BatchOpResult& r = *run[i].result;
    const kv::EntryHeader* entry = l.walk.result.entry;
    r.status = i == stop ? std::move(failure) : Status::Ok();
    if (r.status.ok() && l.verify_slot >= 0) {
      const uint32_t set = sets[l.verify_slot];
      r.status = CheckBucketSetMac(set, set_macs[l.verify_slot]);
      if (r.status.ok() && mac_batch_active_) {
        mac_batch_state_[set] = 1;
        mac_batch_touched_.push_back(set);
      }
    }
    if (r.status.ok() && entry != nullptr) {
      TouchKeys();
      ctr_bytes += entry->CiphertextSize();
      // +26: the authenticated non-ciphertext fields (10) and IV/counter (16).
      cmac_bytes += entry->CiphertextSize() + 26;
      if (hit++ == bad_hit) {
        r.status = Status(Code::kIntegrityFailure, "entry MAC mismatch");
      } else {
        r.value = kv::DecryptEntryValue(*cipher_, *entry);
        if (cache_ != nullptr) {
          cache_->Put(l.hash, run[i].key, r.value);
        }
      }
    } else if (r.status.ok() && !l.cache_hit) {
      ++misses;
      r.status = Status(Code::kNotFound, "no such key");
    }
    if (r.status.ok()) {
      ++hits_ok;
      continue;
    }
    r.value.clear();
    if (r.status.code() != Code::kNotFound) {
      ran = i + 1;  // a failed get ends the run; a miss does not
    }
  }
  uint64_t decryptions = 0;
  for (size_t i = 0; i < ran; ++i) {
    decryptions += run_lookups_[i].walk.decryptions;
    ctr_bytes += run_lookups_[i].walk.ctr_bytes;
  }
  stats_.gets.fetch_add(ran, std::memory_order_relaxed);
  stats_.hits.fetch_add(hits_ok, std::memory_order_relaxed);
  stats_.misses.fetch_add(misses, std::memory_order_relaxed);
  stats_.decryptions.fetch_add(decryptions, std::memory_order_relaxed);
  stats_.crypto_ctr_bytes.fetch_add(ctr_bytes, std::memory_order_relaxed);
  stats_.crypto_cmac_bytes.fetch_add(cmac_bytes, std::memory_order_relaxed);
  return ran;
}

Status Store::SetInternal(std::string_view key, std::string_view value, uint8_t flags) {
  stats_.sets.fetch_add(1, std::memory_order_relaxed);
  TouchKeys();
  const uint64_t hash = kv::BucketHash(*keys_, key);
  const size_t bucket = BucketIndex(hash);
  const size_t set = SetOf(bucket);
  const uint8_t hint = kv::KeyHint(*keys_, key);

  Result<SearchResult> found = FindEntry(bucket, key, hint, /*full_walk=*/true);
  if (!found.ok()) {
    return found.status();
  }
  // Verify before update: never fold tampered state into a fresh MAC hash.
  if (Status s = VerifyBucketSetForOp(set); !s.ok()) {
    return s;
  }

  if (found->entry != nullptr) {
    kv::EntryHeader* entry = found->entry;
    const size_t needed = kv::EntryHeader::BytesNeeded(key.size(), value.size());
    // In persist mode a COMMITTED block is never resealed in place —
    // page-cache writeback can persist any store at any time, and a torn
    // in-place update would leave the file neither fully-old nor fully-new.
    // Updates to committed entries always relocate to a fresh block.
    const bool in_place =
        (arena_ == nullptr || arena_->IsFresh(Ref(entry))) && EntryUsableSize(entry) >= needed;
    if (in_place) {
      TouchKeys();
      kv::ResealEntry(*cipher_, key, value, flags, entry);
    } else {
      // Grow or COW-relocate: move to a fresh block, carrying the IV/counter
      // history along so the reseal still advances it.
      kv::EntryHeader* grown = AllocateEntry(needed);
      if (grown == nullptr) {
        return Status(Code::kCapacityExceeded, "untrusted heap exhausted");
      }
      std::memcpy(grown->iv_ctr, entry->iv_ctr, 16);
      grown->next_ref = entry->next_ref;
      TouchKeys();
      kv::ResealEntry(*cipher_, key, value, flags, grown);
      if (arena_ != nullptr) {
        if (Status s = PersistRelink(bucket, Ref(entry), Ref(grown)); !s.ok()) {
          FreeEntry(grown);
          return s;
        }
      } else if (found->prev != nullptr) {
        found->prev->next_ref = Ref(grown);
      } else {
        buckets_[bucket].head_ref = Ref(grown);
      }
      FreeEntry(entry);
      entry = grown;
    }
    UpdateMacBucketSlot(bucket, found->position, entry->mac);
  } else {
    const size_t needed = kv::EntryHeader::BytesNeeded(key.size(), value.size());
    kv::EntryHeader* entry = AllocateEntry(needed);
    if (entry == nullptr) {
      return Status(Code::kCapacityExceeded, "untrusted heap exhausted");
    }
    uint8_t iv[16];
    enclave_.ReadRand(MutableByteSpan(iv, sizeof(iv)));
    TouchKeys();
    kv::SealNewEntry(*cipher_, key, value, flags, ByteSpan(iv, sizeof(iv)), entry);
    entry->next_ref = buckets_[bucket].head_ref;
    buckets_[bucket].head_ref = Ref(entry);
    MarkBucketDirty(bucket);
    ++entry_count_;
    if (Status s = RebuildMacBucket(bucket); !s.ok()) {
      return s;
    }
  }

  const uint64_t sealed = key.size() + value.size();
  stats_.crypto_ctr_bytes.fetch_add(sealed, std::memory_order_relaxed);
  stats_.crypto_cmac_bytes.fetch_add(sealed + 26, std::memory_order_relaxed);
  NoteBucketSetMutated(set);
  if (cache_ != nullptr) {
    if (flags == 0) {
      cache_->Put(hash, key, value);
    } else {
      cache_->Invalidate(hash, key);
    }
  }
  return Status::Ok();
}

Status Store::DeleteInternal(std::string_view key) {
  stats_.deletes.fetch_add(1, std::memory_order_relaxed);
  TouchKeys();
  const uint64_t hash = kv::BucketHash(*keys_, key);
  const size_t bucket = BucketIndex(hash);
  const size_t set = SetOf(bucket);
  const uint8_t hint = kv::KeyHint(*keys_, key);

  Result<SearchResult> found = FindEntry(bucket, key, hint, /*full_walk=*/true);
  if (!found.ok()) {
    return found.status();
  }
  if (Status s = VerifyBucketSetForOp(set); !s.ok()) {
    return s;
  }
  if (found->entry == nullptr) {
    return Status(Code::kNotFound, "no such key");
  }
  if (arena_ != nullptr) {
    // COW unlink: committed predecessors are relocated rather than patched.
    if (Status s = PersistRelink(bucket, Ref(found->entry), found->entry->next_ref); !s.ok()) {
      return s;
    }
  } else if (found->prev != nullptr) {
    found->prev->next_ref = found->entry->next_ref;
  } else {
    buckets_[bucket].head_ref = found->entry->next_ref;
  }
  FreeEntry(found->entry);
  --entry_count_;
  if (Status s = RebuildMacBucket(bucket); !s.ok()) {
    return s;
  }
  NoteBucketSetMutated(set);
  if (cache_ != nullptr) {
    cache_->Invalidate(hash, key);
  }
  return Status::Ok();
}

size_t Store::Size() const {
  size_t n = entry_count_;
  if (temp_table_ != nullptr) {
    n += temp_table_->Size();  // approximate: overwrites counted twice
  }
  return n;
}

kv::StoreStats Store::stats() const {
  kv::StoreStats s;
  s.gets = stats_.gets.load(std::memory_order_relaxed);
  s.sets = stats_.sets.load(std::memory_order_relaxed);
  s.deletes = stats_.deletes.load(std::memory_order_relaxed);
  s.appends = stats_.appends.load(std::memory_order_relaxed);
  s.hits = stats_.hits.load(std::memory_order_relaxed);
  s.misses = stats_.misses.load(std::memory_order_relaxed);
  s.decryptions = stats_.decryptions.load(std::memory_order_relaxed);
  s.mac_verifications = stats_.mac_verifications.load(std::memory_order_relaxed);
  s.crypto_ctr_bytes = stats_.crypto_ctr_bytes.load(std::memory_order_relaxed);
  s.crypto_cmac_bytes = stats_.crypto_cmac_bytes.load(std::memory_order_relaxed);
  if (cache_ != nullptr) {
    s.cache_hits = cache_->hits();
    s.cache_lookups = cache_->lookups();
    s.cache_bytes = cache_->bytes_used();
  }
  return s;
}

Status Store::VerifyFullIntegrity() const {
  for (size_t set = 0; set < num_mac_hashes_; ++set) {
    const uint32_t one = static_cast<uint32_t>(set);
    crypto::Mac computed;
    ComputeBucketSetMacs(std::span<const uint32_t>(&one, 1), &computed);
    bool written = false;
    const crypto::Mac trusted = TrustedSetMac(set, &written);
    if (!ConstantTimeEqual(ByteSpan(computed.data(), 16), ByteSpan(trusted.data(), 16))) {
      return Status(Code::kIntegrityFailure, "bucket-set " + std::to_string(set) + " corrupted");
    }
  }
  return Status::Ok();
}

Status Store::ScrubBucketChain(size_t b, size_t* entries_verified) const {
  const size_t max_steps = entry_count_ + 8;  // cycle guard for corrupted chains
  const Bucket& bucket = buckets_[b];
  // After an arena attach the MAC-copy list is rebuilt lazily on first
  // touch; a chain with no copies yet is audited structurally and per-entry
  // only (its set hash still binds via the entry-walk fallback, which is
  // byte-identical to the copy path).
  const bool check_copies =
      options_.mac_bucketing && options_.integrity && bucket.macs != nullptr;
  const MacBucket* copy_node = bucket.macs;
  size_t copy_slot = 0;
  size_t steps = 0;
  // First pass: structural checks (hostile refs, cycles, MAC-bucket copies)
  // while collecting the chain, so the expensive MAC recomputation below can
  // run as one interleaved batch instead of entry at a time.
  std::vector<const kv::EntryHeader*> chain;
  uint64_t ref = bucket.head_ref;
  while (ref != 0) {
    if (Status s = CheckEntryRef(ref); !s.ok()) {
      return s;
    }
    const kv::EntryHeader* entry = Deref(ref);
    if (++steps > max_steps) {
      return Status(Code::kIntegrityFailure, "hash chain cycle detected");
    }
    if (check_copies) {
      if (copy_node == nullptr || enclave_.ContainsAddress(copy_node) ||
          copy_slot >= copy_node->count ||
          !ConstantTimeEqual(ByteSpan(entry->mac, 16), ByteSpan(copy_node->macs[copy_slot], 16))) {
        return Status(Code::kIntegrityFailure,
                      "entry MAC diverges from MAC bucket " + std::to_string(b));
      }
      if (++copy_slot == MacBucket::kCapacity) {
        copy_node = copy_node->next;
        copy_slot = 0;
      }
    }
    chain.push_back(entry);
    ref = entry->next_ref;
  }
  if (check_copies) {
    const bool leftovers =
        copy_node != nullptr && (copy_slot < copy_node->count || copy_node->next != nullptr);
    if (leftovers) {
      return Status(Code::kIntegrityFailure,
                    "MAC bucket longer than hash chain " + std::to_string(b));
    }
  }
  // Second pass: recompute every entry MAC with interleaved CMAC lanes
  // sharing the store's key schedule (one expansion per store, not per
  // entry).
  if (!chain.empty()) {
    TouchKeys();
    uint64_t hashed = 0;
    for (const kv::EntryHeader* e : chain) {
      hashed += e->CiphertextSize() + 26;
    }
    stats_.crypto_cmac_bytes.fetch_add(hashed, std::memory_order_relaxed);
    const size_t bad = kv::VerifyEntryMacsBatch(
        *cipher_, std::span<const kv::EntryHeader* const>(chain.data(), chain.size()));
    if (bad != chain.size()) {
      return Status(Code::kIntegrityFailure,
                    "entry MAC mismatch in bucket " + std::to_string(b));
    }
  }
  *entries_verified += chain.size();
  return Status::Ok();
}

Store::ScrubReport Store::Scrub() const {
  ScrubReport report;
  for (size_t b = 0; b < options_.num_buckets && report.status.ok(); ++b) {
    report.status = ScrubBucketChain(b, &report.entries_verified);
    ++report.buckets_verified;
  }
  // Chain and copies agree entry by entry; now bind both to the trusted
  // in-enclave hashes so a wholesale consistent forgery still fails.
  if (report.status.ok()) {
    report.status = VerifyFullIntegrity();
    report.sets_verified = num_mac_hashes_;
  }
  if (report.status.ok() && temp_table_ != nullptr) {
    const ScrubReport temp = temp_table_->Scrub();
    report.status = temp.status;
    report.entries_verified += temp.entries_verified;
  }
  return report;
}

Store::ScrubReport Store::ScrubStep(size_t max_buckets) {
  ScrubReport report;
  max_buckets = std::max<size_t>(max_buckets, 1);
  while (report.buckets_verified < max_buckets && report.status.ok()) {
    report.status = ScrubBucketChain(scrub_cursor_, &report.entries_verified);
    ++report.buckets_verified;
    if (++scrub_cursor_ >= options_.num_buckets) {
      // Pass complete: bind the audited chains to the trusted in-enclave
      // hashes, exactly like the tail of a full Scrub().
      scrub_cursor_ = 0;
      report.cycle_complete = true;
      if (report.status.ok()) {
        report.status = VerifyFullIntegrity();
        report.sets_verified = num_mac_hashes_;
      }
      break;
    }
  }
  return report;
}

Status Store::ForEachDecrypted(
    const std::function<Status(std::string_view key, std::string_view value)>& fn) const {
  // The walk is Scrub()'s: each chain is audited before its entries are
  // visited, and the bucket-set hashes close the pass.
  size_t entries_verified = 0;
  for (size_t b = 0; b < options_.num_buckets; ++b) {
    if (Status s = ScrubBucketChain(b, &entries_verified); !s.ok()) {
      return s;
    }
    for (uint64_t ref = buckets_[b].head_ref; ref != 0;) {
      const kv::EntryHeader* e = Deref(ref);
      ref = e->next_ref;
      if (e->flags & kFlagTombstone) {
        continue;
      }
      TouchKeys();
      const std::string value = kv::DecryptEntryValue(*cipher_, *e);
      if (Status s = fn(kv::OpenEntryKey(*cipher_, *e), value); !s.ok()) {
        return s;
      }
    }
  }
  return VerifyFullIntegrity();
}

// ---------------------------------------------------- snapshot persistence

Bytes Store::ExportSecureMetadata() const {
  TouchKeys();
  const size_t bitmap_words = (num_mac_hashes_ + 63) / 64;
  Bytes out;
  out.reserve(44 + 64 + bitmap_words * 8 + num_mac_hashes_ * 16);
  auto put64 = [&out](uint64_t v) {
    uint8_t b[8];
    StoreLe64(b, v);
    out.insert(out.end(), b, b + 8);
  };
  out.insert(out.end(), {'S', 'S', 'M', '1'});
  put64(options_.num_buckets);
  put64(num_mac_hashes_);
  put64(entry_count_);
  out.insert(out.end(), keys_->enc_key.begin(), keys_->enc_key.end());
  out.insert(out.end(), keys_->mac_key.begin(), keys_->mac_key.end());
  out.insert(out.end(), keys_->index_key.begin(), keys_->index_key.end());
  out.insert(out.end(), keys_->hint_key.begin(), keys_->hint_key.end());
  enclave_.Touch(mac_init_bitmap_, bitmap_words * 8);
  out.insert(out.end(), reinterpret_cast<const uint8_t*>(mac_init_bitmap_),
             reinterpret_cast<const uint8_t*>(mac_init_bitmap_) + bitmap_words * 8);
  enclave_.Touch(mac_hashes_, num_mac_hashes_ * 16);
  out.insert(out.end(), reinterpret_cast<const uint8_t*>(mac_hashes_),
             reinterpret_cast<const uint8_t*>(mac_hashes_) + num_mac_hashes_ * 16);
  return out;
}

Status Store::ImportSecureMetadata(ByteSpan metadata) {
  if (entry_count_ != 0) {
    return Status(Code::kInvalidArgument, "metadata import requires an empty store");
  }
  const size_t bitmap_words = (num_mac_hashes_ + 63) / 64;
  const size_t expect = 4 + 24 + 64 + bitmap_words * 8 + num_mac_hashes_ * 16;
  if (metadata.size() != expect || std::memcmp(metadata.data(), "SSM1", 4) != 0) {
    return Status(Code::kInvalidArgument, "metadata blob malformed");
  }
  const uint64_t num_buckets = LoadLe64(metadata.data() + 4);
  const uint64_t num_hashes = LoadLe64(metadata.data() + 12);
  if (num_buckets != options_.num_buckets || num_hashes != num_mac_hashes_) {
    return Status(Code::kInvalidArgument, "store geometry differs from snapshot");
  }
  restore_expected_entries_ = LoadLe64(metadata.data() + 20);
  const uint8_t* p = metadata.data() + 28;
  enclave_.Touch(keys_, sizeof(kv::StoreKeys), /*write=*/true);
  std::memcpy(keys_->enc_key.data(), p, 16);
  std::memcpy(keys_->mac_key.data(), p + 16, 16);
  std::memcpy(keys_->index_key.data(), p + 32, 16);
  std::memcpy(keys_->hint_key.data(), p + 48, 16);
  // The imported keys replace the construction-time ones; re-expand the
  // cached schedules to match.
  enclave_.Touch(cipher_, sizeof(kv::StoreCipher), /*write=*/true);
  cipher_->~StoreCipher();
  new (cipher_) kv::StoreCipher(
      *keys_, options_.soft_crypto ? crypto::AesBackend::kTable : crypto::Aes128::Backend());
  p += 64;
  enclave_.Touch(mac_init_bitmap_, bitmap_words * 8, /*write=*/true);
  std::memcpy(mac_init_bitmap_, p, bitmap_words * 8);
  p += bitmap_words * 8;
  enclave_.Touch(mac_hashes_, num_mac_hashes_ * 16, /*write=*/true);
  std::memcpy(mac_hashes_, p, num_mac_hashes_ * 16);
  return Status::Ok();
}

void Store::ForEachEntryRecord(const std::function<void(ByteSpan record)>& fn) const {
  Bytes record;
  std::vector<const kv::EntryHeader*> chain;
  for (size_t b = 0; b < options_.num_buckets; ++b) {
    chain.clear();
    for (uint64_t ref = buckets_[b].head_ref; ref != 0;) {
      const kv::EntryHeader* e = Deref(ref);
      chain.push_back(e);
      ref = e->next_ref;
    }
    // Reverse order: restoring with head-insertion recreates today's chain.
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const kv::EntryHeader* e = *it;
      record.resize(kRecordHeader + e->CiphertextSize());
      StoreLe64(record.data(), static_cast<uint64_t>(b));
      StoreLe32(record.data() + 8, e->key_size);
      StoreLe32(record.data() + 12, e->val_size);
      record[16] = e->key_hint;
      record[17] = e->flags;
      std::memcpy(record.data() + 18, e->iv_ctr, 16);
      std::memcpy(record.data() + 34, e->mac, 16);
      std::memcpy(record.data() + kRecordHeader, e->Ciphertext(), e->CiphertextSize());
      fn(record);
    }
  }
}

Status Store::RestoreEntry(ByteSpan record) {
  if (record.size() < kRecordHeader) {
    return Status(Code::kInvalidArgument, "entry record too short");
  }
  const uint64_t bucket = LoadLe64(record.data());
  const uint32_t key_size = LoadLe32(record.data() + 8);
  const uint32_t val_size = LoadLe32(record.data() + 12);
  if (bucket >= options_.num_buckets ||
      record.size() != kRecordHeader + size_t{key_size} + val_size) {
    return Status(Code::kIntegrityFailure, "entry record fields corrupted");
  }
  kv::EntryHeader* entry = AllocateEntry(kv::EntryHeader::BytesNeeded(key_size, val_size));
  if (entry == nullptr) {
    return Status(Code::kCapacityExceeded, "untrusted heap exhausted");
  }
  entry->key_size = key_size;
  entry->val_size = val_size;
  entry->key_hint = record[16];
  entry->flags = record[17];
  std::memset(entry->reserved, 0, sizeof(entry->reserved));
  std::memcpy(entry->iv_ctr, record.data() + 18, 16);
  std::memcpy(entry->mac, record.data() + 34, 16);
  std::memcpy(entry->Ciphertext(), record.data() + kRecordHeader,
              size_t{key_size} + val_size);
  // Snapshot records carry ciphertext verbatim; authenticate each against
  // its MAC here so a tampered data file fails at recovery, not first read.
  TouchKeys();
  const crypto::Mac mac = kv::ComputeEntryMac(*cipher_, *entry);
  if (!ConstantTimeEqual(ByteSpan(mac.data(), 16), ByteSpan(entry->mac, 16))) {
    FreeEntry(entry);
    return Status(Code::kIntegrityFailure, "snapshot entry MAC mismatch");
  }
  entry->next_ref = buckets_[bucket].head_ref;
  buckets_[bucket].head_ref = Ref(entry);
  MarkBucketDirty(bucket);
  ++entry_count_;
  return Status::Ok();
}

Status Store::FinishRestore() {
  if (entry_count_ != restore_expected_entries_) {
    return Status(Code::kIntegrityFailure, "snapshot entry count mismatch");
  }
  for (size_t b = 0; b < options_.num_buckets; ++b) {
    if (Status s = RebuildMacBucket(b); !s.ok()) {
      return s;
    }
  }
  // Every restored entry and chain must reproduce the sealed MAC hashes.
  return VerifyFullIntegrity();
}

// --------------------------------------------------------- snapshot epochs

Status Store::BeginSnapshotEpoch() {
  if (temp_table_ != nullptr) {
    return Status(Code::kInvalidArgument, "snapshot epoch already open");
  }
  Options temp_options = options_;
  temp_options.num_buckets = std::max<size_t>(options_.num_buckets / 64, 1024);
  temp_options.num_mac_hashes = 0;
  temp_options.epc_cache = false;
  temp_options.master_key.clear();  // fresh keys for the temporary table
  temp_options.arena = nullptr;     // the temporary table is always volatile
  temp_table_ = std::make_unique<Store>(enclave_, temp_options);
  return Status::Ok();
}

Status Store::EndSnapshotEpoch() {
  if (temp_table_ == nullptr) {
    return Status(Code::kInvalidArgument, "no snapshot epoch open");
  }
  std::unique_ptr<Store> temp = std::move(temp_table_);
  // Re-apply everything recorded during the epoch to the main table.
  Status result = Status::Ok();
  temp->ForEachEntryRecord([&](ByteSpan record) {
    if (!result.ok()) {
      return;
    }
    const uint8_t flags = record[17];
    const uint32_t key_size = LoadLe32(record.data() + 8);
    const uint32_t val_size = LoadLe32(record.data() + 12);
    // Rebuild a transient header to reuse the codec.
    Bytes storage(sizeof(kv::EntryHeader) + key_size + val_size);
    kv::EntryHeader* transient = reinterpret_cast<kv::EntryHeader*>(storage.data());
    transient->next_ref = 0;
    transient->key_size = key_size;
    transient->val_size = val_size;
    transient->key_hint = record[16];
    transient->flags = flags;
    std::memcpy(transient->iv_ctr, record.data() + 18, 16);
    std::memcpy(transient->mac, record.data() + 34, 16);
    std::memcpy(transient->Ciphertext(), record.data() + kRecordHeader,
                size_t{key_size} + val_size);
    temp->TouchKeys();
    const std::string key = kv::OpenEntryKey(*temp->cipher_, *transient);
    Result<std::string> value = kv::OpenEntryValue(*temp->cipher_, *transient);
    if (!value.ok()) {
      result = value.status();
      return;
    }
    if (flags & kFlagTombstone) {
      const Status s = DeleteInternal(key);
      if (!s.ok() && s.code() != Code::kNotFound) {
        result = s;
      }
    } else {
      result = SetInternal(key, value.value(), 0);
    }
  });
  return result;
}

}  // namespace shield::shieldstore
