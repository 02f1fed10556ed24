// Multi-threading by hash-key partitioning (§5.3).
//
// Each worker thread owns an exclusive partition of the key space; a key's
// serving partition is fixed by a keyed hash, so two threads never touch the
// same buckets and the table needs no locks. Following the paper, the
// partition function divides the hash space contiguously
// (Partition(KEY) = H(KEY) / total_threads).
//
// Two usage modes:
//  * partition-owned threads (the paper's design): callers route with
//    PartitionOf() and drive partition(p) from its owning thread, lock-free;
//  * convenience facade: the KeyValueStore methods below route internally
//    and take a per-partition mutex, for examples and mixed callers. Every
//    facade verb is a batch through ExecuteBatch (a singleton is a batch of
//    one).
//
// The partition geometry is fixed for the life of the process, as SGX fixes
// an enclave's thread count (§5.3): the constructor builds it and nothing
// changes it, so routing takes no lock. A durable store keeps it across
// restarts too: the route key is sealed with the partition count, and a boot
// with another count is refused (LoadOrCreateRouteKey).
//
// Quarantine (robustness extension): a facade operation that detects
// tampering (kIntegrityFailure / kRollbackDetected) quarantines its
// partition — further operations on that partition fail fast while every
// other partition keeps serving. RecoverPartition() rebuilds a quarantined
// partition from its baseline plus its shard's committed log suffix, without
// a restart. The baseline is the partition's last cold copy, or the empty
// store if its shard never compacted; CheckpointPartition, which audits
// first, is the only writer of a cold copy. The paper's sealed snapshot
// (persist.h) is not a serving-path format.
#ifndef SHIELDSTORE_SRC_SHIELDSTORE_PARTITIONED_H_
#define SHIELDSTORE_SRC_SHIELDSTORE_PARTITIONED_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/alloc/persistent_arena.h"
#include "src/crypto/siphash.h"
#include "src/kv/interface.h"
#include "src/shieldstore/oplog.h"
#include "src/shieldstore/store.h"

namespace shield::shieldstore {

class PartitionedStore : public kv::BatchFirstStore {
 public:
  // `options.num_buckets` is the TOTAL bucket count, split evenly across
  // partitions (likewise num_mac_hashes, cache_bytes and cache_slots).
  PartitionedStore(sgx::Enclave& enclave, const Options& options, size_t partitions);

  size_t num_partitions() const { return partitions_.size(); }
  size_t PartitionOf(std::string_view key) const;
  // Direct partition access for partition-owned threads.
  Store& partition(size_t p) { return *partitions_[p]; }

  // --- Quarantine and per-partition recovery ---

  // True once an operation on partition `p` has detected tampering. The
  // detecting operation surfaces its integrity-class code; every later
  // facade call on a quarantined partition fails fast with the typed
  // kPartitionRecovering until RecoverPartition() rebuilds it; other
  // partitions are unaffected.
  bool IsQuarantined(size_t p) const;
  size_t QuarantinedCount() const;

  // Full audit: runs Store::Scrub() on every partition and quarantines the
  // ones that fail. Returns the first violation found (Ok if all clean).
  Status ScrubAll();

  // Paced audit: spends `bucket_budget` buckets (0 = options'
  // scrub_budget_buckets) of incremental scrubbing, resuming where the
  // previous tick stopped and round-robining across partitions as their
  // passes complete. Partitions that fail are quarantined. Designed to be
  // driven from one background maintenance thread; returns the first
  // violation found this tick (Ok otherwise, including when every healthy
  // partition was skipped because all are quarantined).
  Status ScrubTick(size_t bucket_budget = 0);

  // Runs `fn` on partition `p`'s store while holding that partition's
  // facade lock — maintenance/adversary access that stays atomic with
  // respect to concurrent facade operations (a TamperAgent racing live
  // writers uses this so in-process tests stay data-race-free; the modelled
  // adversary strikes between two enclave operations). `fn`'s status feeds
  // the quarantine logic like any facade outcome.
  Status WithPartitionLocked(size_t p, const std::function<Status(Store&)>& fn);

  // Rebuilds partition `p` from its durable baseline plus its shard's
  // committed log suffix, under the partition lock; call it inside
  // WriteAheadStore::WithCommittedShard so no mutation lands in between.
  // The baseline is the cold copy `cold_dir`/p<i>.heap when the partition's
  // shard has compacted, else (`cold_dir` empty) the empty store. With a
  // persistent heap the old Store and its arena are released, the cold copy's
  // committed extent is laid over the live p<i>.heap (or the file is removed,
  // for the empty baseline), the file is reopened, and a cold copy is
  // attached with the boot-time counter check and audited whole. A heap-only
  // store has only the empty baseline. `replay_log` then replays the shard
  // log into the rebuilt store through a filter that forwards only the keys
  // this partition owns; on success the store is swapped in and the
  // quarantine lifts. A missing (kNotFound), uncommitted or stale
  // (kRollbackDetected) or tampered (kIntegrityFailure) cold copy fails typed
  // and the partition stays quarantined.
  Status RecoverPartition(size_t p, const sgx::SealingService& sealer,
                          sgx::MonotonicCounterService& counters, const std::string& cold_dir,
                          const std::function<Status(kv::KeyValueStore&)>& replay_log = {});

  // --- Persistent heap (Options::persist_dir) ---

  // True when the store was built over per-partition arena files
  // (`persist_dir/p<i>.heap`).
  bool persist_enabled() const { return persist_; }
  // Per-partition arena (null when its file failed to open); only with
  // persist_enabled().
  alloc::PersistentArena* partition_arena(size_t p) { return arenas_[p].get(); }

  // Keys must route identically across restarts: arena chains are attached,
  // never re-routed, and a shard log's records must stay in the shard that
  // serves their key. The route key and the partition count are sealed
  // together into `path` on first boot and re-loaded before any attach or
  // replay. A blob sealed for another partition count is kInvalidArgument
  // naming both counts; a tampered blob fails typed. Call before serving:
  // routing reads the key without a lock.
  Status LoadOrCreateRouteKey(const sgx::SealingService& sealer, const std::string& path);

  // Arena checkpoint of one partition, the compaction fold and the only
  // writer of a durable baseline: audits the partition (a silent tamper no
  // operation has hit yet must not become the heal baseline; on a violation
  // the partition quarantines instead), seals the secure metadata bound to
  // (partition, counter, value+1), runs the arena's plan/commit protocol,
  // writes the cold copy `cold_dir`/p<i>.heap, then increments the counter —
  // the same live/live+1 roll-forward window Snapshotter uses, so a crash
  // between commit and increment recovers while an old heap file (or cold
  // copy) fails with kRollbackDetected. A cold copy is the committed extent
  // of the arena, written as a sparse file of full capacity (temp file,
  // fsync, rename, directory fsync). A quarantined partition is refused:
  // tampered state is never committed as trusted. `crash` injects a failure
  // inside the cold-copy write (tests).
  enum class ColdCopyCrash { kNone, kAfterTempWrite, kAfterRename };
  Status CheckpointPartition(size_t p, const sgx::SealingService& sealer,
                             sgx::MonotonicCounterService& counters, const std::string& cold_dir,
                             ColdCopyCrash crash = ColdCopyCrash::kNone);
  // True when partition `p`'s arena holds a committed generation its cold
  // copy does not: the copy is missing or its superblock (the commit slots)
  // differs from the arena's. Only a compaction that died inside its
  // checkpoint, before the cold-copy rename, leaves that. One superblock
  // read: O(1) in entry count.
  bool ColdCopyBehind(size_t p, const std::string& cold_dir) const;

  // Boot-time attach: for every partition whose arena holds a committed
  // generation, unseals the metadata (with roll-forward) and attaches the
  // mapped chains in O(num_buckets) — per-entry MAC verification is
  // deferred to first touch and the scrub cursor. A partition that fails
  // (tamper, rollback, geometry drift) is quarantined and the first error
  // returned; healthy partitions still attach so the operator sees the
  // blast radius.
  Status AttachPersistent(const sgx::SealingService& sealer,
                          sgx::MonotonicCounterService& counters);

  // Locked facade. ExecuteBatch is its only request path: the singleton
  // verbs (Set/Get/Delete/Append/Increment, from kv::BatchFirstStore) run
  // as batches of one, so routing, locking, the quarantine guard and
  // NoteOutcome live here alone.
  //
  // Partition-grouped batch execution: sub-ops are grouped by partition and
  // each touched partition is locked ONCE, its group running inside the
  // partition store's MAC batch scope (each touched bucket-set hash is
  // verified on first touch and recomputed once at the end). Groups run in
  // ascending partition order with the original relative order within a
  // partition — a key maps to exactly one partition, so per-key order (and
  // thus the final state and every per-op result) matches sequential
  // execution. Per-op statuses; no cross-op atomicity. A sub-op that
  // quarantines its partition fails the rest of that partition's group with
  // the typed kPartitionRecovering, exactly like sequential calls would.
  std::vector<kv::BatchOpResult> ExecuteBatch(const std::vector<kv::BatchOp>& ops) override;
  size_t Size() const override;
  std::string Name() const override { return "ShieldStore/partitioned"; }
  kv::StoreStats stats() const override;

 private:
  Options PartitionOptions(size_t count) const;
  // Unseals `arena`'s committed metadata against partition `p`'s counter
  // (with roll-forward) and attaches it into the empty `store`.
  Status AttachArena(size_t p, alloc::PersistentArena& arena, Store& store,
                     const sgx::SealingService& sealer, sgx::MonotonicCounterService& counters);
  std::string HeapPath(size_t p) const;
  static std::string ColdPath(const std::string& cold_dir, size_t p);
  // Quarantines partition `p` when `s` carries an integrity-class code.
  void NoteOutcome(size_t p, const Status& s);
  // Sets partition `p`'s quarantine flag; true if that changed it, and then
  // the store.quarantined and store.partition.<p>.quarantined gauges follow.
  bool SetQuarantined(size_t p, bool quarantined);
  Status QuarantineGuard(size_t p) const;

  sgx::Enclave& enclave_;
  Options base_options_;  // the TOTAL geometry, before per-partition split
  crypto::SipHashKey route_key_{};
  // The vectors below are sized once, in the constructor. A partition's
  // Store is swapped only by RecoverPartition, under that partition's mutex;
  // the mutexes serialize ops within a partition.
  //
  // Declared before partitions_ so the arenas (whose mappings the Stores'
  // chain refs point into) outlive the Stores during destruction.
  std::vector<std::unique_ptr<alloc::PersistentArena>> arenas_;
  bool persist_ = false;
  std::vector<std::unique_ptr<Store>> partitions_;
  mutable std::vector<std::unique_ptr<std::mutex>> locks_;
  std::vector<std::unique_ptr<std::atomic<bool>>> quarantined_;
  // ScrubTick round-robin state (atomic so a second caller is merely
  // wasteful, not racy).
  std::atomic<size_t> scrub_partition_{0};

  // Partition health in the registry (Options::metrics): store.partitions
  // is set at construction, the rest recorded as it happens.
  obs::Registry* metrics_ = nullptr;
  obs::Counter* scrub_cycles_ = nullptr;     // store.scrub_cycles: full-store passes
  obs::Gauge* quarantined_count_ = nullptr;  // store.quarantined
};

}  // namespace shield::shieldstore

#endif  // SHIELDSTORE_SRC_SHIELDSTORE_PARTITIONED_H_
