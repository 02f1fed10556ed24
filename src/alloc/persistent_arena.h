// PersistentArena — a crash-safe, file-backed arena for the untrusted heap.
//
// ShieldStore keeps the main hash table encrypted + MAC'd in UNTRUSTED
// memory, so nothing about the data region is secret: backing it with a
// mmap'd file turns restart into map + sealed-metadata load + lazy MAC
// verification instead of a full snapshot decrypt/rebuild, and turns
// snapshots into incremental msync of dirty ranges.
//
// Layout (all offsets little-endian, position-independent):
//
//   0      +--------------------------------------------------+
//          | superblock (one page)                            |
//          |   magic "SARENA1\0" | version | geometry         |
//          |   counter_id | plan record {seq, state, crc}     |
//          |   commit slot A @512  commit slot B @768         |
//          |     {seq, bump, table_ref, delta_head,           |
//          |      delta_count, free_ref, free_count,          |
//          |      meta_ref, meta_len, entry_count, crc32}     |
//   4096   +--------------------------------------------------+
//          | data region: blocks of [size:u64][payload]       |
//          |   * entry blocks (sealed kv::EntryHeader+ct)     |
//          |   * table base block (num_slots x u64 head refs) |
//          |   * table delta blocks {prev, count, (slot,head)}|
//          |   * free-list blob [count][(ref,size)...]        |
//          |   * sealed secure-metadata blob                  |
//          +--------------------------------------------------+
//
// A "ref" is the byte offset of a block's payload from the start of the
// file; 0 is null. Refs never change across remaps, which is why the chain
// index stores refs instead of pointers.
//
// Plan/commit protocol (Commit()):
//   1. write the plan record (intent) and msync the superblock;
//   2. apply: append a table delta (or a squashed full base), the sealed
//      metadata blob, and the free-list blob — all into FRESH space, never
//      over a committed block (copy-on-write discipline, see below);
//   3. msync the dirty data ranges (the fresh tail plus any reused ranges);
//   4. fill the ALTERNATE commit slot, stamp its CRC32, clear the plan, and
//      msync the superblock.
// Recovery picks the valid-CRC slot with the highest seq, so a crash at any
// point yields either the fully-old or the fully-new state. A slot whose
// seq is nonzero but whose CRC fails is legitimate only while a plan is
// pending (a torn step 4); otherwise it is flagged as tampering.
//
// COW discipline: the page cache may write any dirty page back at ANY time,
// so a committed block's bytes are the crash-recovery state and are never
// mutated in place. Callers (Store) relocate-on-write instead; the arena
// enforces the allocator half: blocks freed from the committed region join
// `pending_free_` and only become reusable after the NEXT commit, which also
// keeps the single-step fallback to the previous commit slot sound.
#ifndef SHIELDSTORE_SRC_ALLOC_PERSISTENT_ARENA_H_
#define SHIELDSTORE_SRC_ALLOC_PERSISTENT_ARENA_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace shield::alloc {

class PersistentArena {
 public:
  static constexpr size_t kSuperblockBytes = 4096;
  static constexpr size_t kDataStart = kSuperblockBytes;
  static constexpr size_t kBlockHeaderBytes = 8;
  static constexpr size_t kMinCapacity = 1 << 16;

  // Crash injection points inside Commit(), in protocol order. Armed via
  // InjectCrash() (one-shot, returns kIoError) or the SHIELD_ARENA_CRASH
  // environment variable (values: plan|apply|precommit|presync); with
  // SHIELD_ARENA_CRASH_KILL=1 the process raises SIGKILL at the point
  // instead, for subprocess kill -9 matrices.
  enum class CrashPoint : uint32_t {
    kNone = 0,
    kPlanWritten,   // intent durable; nothing applied
    kMidApply,      // table written; metadata/free blob not yet
    kPreCommit,     // everything applied; data not msync'd, slot not written
    kPreSuperSync,  // alternate slot written with a ZEROED crc (torn slot)
  };

  PersistentArena() = default;
  ~PersistentArena();

  PersistentArena(const PersistentArena&) = delete;
  PersistentArena& operator=(const PersistentArena&) = delete;

  // Maps `path`, creating a sparse file of `capacity_bytes` if absent. An
  // existing file must carry a valid superblock whose geometry (capacity,
  // num_slots, partition_index) matches, else kIntegrityFailure /
  // kInvalidArgument — an existing nonzero file is never silently wiped.
  // After Open(), attached() tells whether a committed generation was
  // recovered (false for a brand-new or never-committed arena).
  Status Open(const std::string& path, size_t capacity_bytes, uint64_t partition_index,
              uint64_t num_slots);

  bool attached() const { return attached_; }
  uint8_t* base() const { return base_; }
  uint64_t capacity() const { return capacity_; }
  const std::string& path() const { return path_; }

  // Block allocator. Payloads are 8-aligned; sizes round up to 16 and bins
  // match exactly (no splitting). Free() of a committed-region block defers
  // reuse to after the next Commit(); Free() of a fresh block recycles
  // immediately. An unrecognisably corrupt header makes Free() leak the
  // block instead of poisoning the bins.
  Result<uint64_t> Allocate(size_t bytes);
  void Free(uint64_t ref);
  size_t UsableSize(uint64_t ref) const;

  // True when `ref` may be mutated in place: allocated after the last
  // commit, or recycled from the free lists this epoch.
  bool IsFresh(uint64_t ref) const {
    return ref >= committed_bump_ || fresh_set_.count(ref) != 0;
  }

  uint8_t* Deref(uint64_t ref) const { return ref == 0 ? nullptr : base_ + ref; }

  // Commits the current state: `heads` is the full chain-index head array,
  // `dirty_slots` the indices whose heads changed since the last commit
  // (drives the delta-vs-squash choice), `sealed_meta` the sealed secure
  // metadata, `entry_count` the live entry total. On failure (including an
  // injected crash) the in-memory committed mirror is unchanged and the
  // caller must keep its dirty tracking.
  Status Commit(const uint64_t* heads, uint64_t num_slots, const std::vector<uint64_t>& dirty_slots,
                ByteSpan sealed_meta, uint64_t entry_count);

  // Committed-generation accessors (valid when attached()).
  uint64_t committed_entry_count() const { return entry_count_; }
  uint64_t seq() const { return seq_; }
  // Bytes [0, committed_extent()) hold the superblock and every block the
  // committed generation references: a byte copy of them (a cold copy) is
  // an arena file that recovers to this generation.
  uint64_t committed_extent() const { return committed_bump_; }
  ByteSpan committed_meta() const {
    return ByteSpan(base_ + meta_ref_, static_cast<size_t>(meta_len_));
  }
  // Reconstructs the committed head array (base block + delta chain, oldest
  // delta applied first so the newest head wins).
  Status LoadTable(uint64_t* heads, uint64_t num_slots) const;

  // Monotonic-counter id bound to this arena's sealed metadata; 0 = none
  // yet. SetCounterId persists immediately (superblock msync).
  uint32_t counter_id() const;
  Status SetCounterId(uint32_t id);

  // msync accounting (the arena has no obs dependency; Store bridges these
  // into heap.msync_bytes).
  uint64_t msync_bytes_total() const { return msync_bytes_total_.load(std::memory_order_relaxed); }
  uint64_t last_commit_msync_bytes() const {
    return last_commit_msync_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t commits() const { return commits_.load(std::memory_order_relaxed); }

  void InjectCrash(CrashPoint point) { crash_point_ = point; }

 private:
  struct Slot {
    uint64_t seq = 0;
    uint64_t bump = 0;
    uint64_t table_ref = 0;
    uint64_t delta_head = 0;
    uint64_t delta_count = 0;
    uint64_t free_ref = 0;
    uint64_t free_count = 0;
    uint64_t meta_ref = 0;
    uint64_t meta_len = 0;
    uint64_t entry_count = 0;
  };

  Status InitFresh(uint64_t partition_index, uint64_t num_slots);
  Status Recover(uint64_t partition_index, uint64_t num_slots);
  Status LoadFreeBlob(const Slot& slot);
  bool CheckBlock(uint64_t ref, uint64_t len) const;  // payload extent within data region
  // Bump-only allocation used inside Commit so commit bookkeeping never
  // interacts with the bins it is serializing.
  Result<uint64_t> AllocateBump(size_t bytes);
  void MsyncRange(uint64_t offset, uint64_t length, uint64_t* counted);
  void WriteSlot(size_t index, const Slot& slot, bool zero_crc);
  bool ReadSlot(size_t index, Slot* out) const;  // false = CRC invalid
  void WritePlan(uint64_t seq, uint32_t state);
  // True when the one-shot crash point fires (or raises SIGKILL).
  bool CrashFire(CrashPoint point);

  std::string path_;
  uint8_t* base_ = nullptr;
  uint64_t capacity_ = 0;
  bool attached_ = false;

  // Committed mirror (matches the active slot).
  uint64_t seq_ = 0;
  uint64_t committed_bump_ = kDataStart;
  uint64_t table_ref_ = 0;
  uint64_t delta_head_ = 0;
  uint64_t delta_count_ = 0;
  uint64_t delta_total_ = 0;  // head entries across the delta chain
  uint64_t free_ref_ = 0;
  uint64_t free_count_ = 0;
  uint64_t meta_ref_ = 0;
  uint64_t meta_len_ = 0;
  uint64_t entry_count_ = 0;
  size_t active_slot_ = 0;  // which A/B slot holds the committed mirror

  // Epoch-local allocator state.
  uint64_t bump_ = kDataStart;
  std::map<uint64_t, std::vector<uint64_t>> free_bins_;       // size -> refs
  std::vector<std::pair<uint64_t, uint64_t>> pending_free_;   // committed blocks freed this epoch
  std::unordered_set<uint64_t> fresh_set_;                    // committed-region refs recycled this epoch
  std::vector<std::pair<uint64_t, uint64_t>> reused_ranges_;  // {offset,len} incl. header, for msync

  std::atomic<uint64_t> msync_bytes_total_{0};
  std::atomic<uint64_t> last_commit_msync_bytes_{0};
  std::atomic<uint64_t> commits_{0};

  CrashPoint crash_point_ = CrashPoint::kNone;
  bool crash_kill_ = false;
};

}  // namespace shield::alloc

#endif  // SHIELDSTORE_SRC_ALLOC_PERSISTENT_ARENA_H_
