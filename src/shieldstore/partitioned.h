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
// changes it, so routing takes no lock. A restart changes it — boot-time
// restore re-routes every key into the new geometry.
//
// Quarantine (robustness extension): a facade operation that detects
// tampering (kIntegrityFailure / kRollbackDetected) quarantines its
// partition — further operations on that partition fail fast while every
// other partition keeps serving. SnapshotAll()/RecoverPartition() rebuild a
// quarantined partition from its latest snapshot generation plus the
// committed operation-log suffix, restoring full service without a restart.
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
#include "src/shieldstore/persist.h"
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

  // Snapshots every partition into `directory`/p<i>/ (blocking writes, under
  // the partition lock) and records the partition count in a manifest so a
  // later RecoverPartition cannot mix geometries. Quarantined partitions are
  // skipped — their in-memory state is untrusted.
  Status SnapshotAll(const sgx::SealingService& sealer,
                     sgx::MonotonicCounterService& counters, const std::string& directory);

  // Snapshots ONE partition into `directory`/p<i>/ as a fresh generation
  // (under the partition lock; writes to other partitions proceed) — the
  // log compactor's folding step. Writes the manifest if `directory` has
  // none yet; refuses on a manifest geometry mismatch or a quarantined
  // partition. `crash` forwards to Snapshotter::InjectCrash (tests).
  Status SnapshotPartition(size_t p, const sgx::SealingService& sealer,
                           sgx::MonotonicCounterService& counters, const std::string& directory,
                           Snapshotter::CrashPoint crash = Snapshotter::CrashPoint::kNone);

  // Boot-time restore: recovers every partition snapshot generation under
  // `directory` (in the geometry its manifest records, which need not match
  // ours — the route key is drawn fresh per process) and re-applies each
  // entry through the facade, re-routing and re-encrypting it. No manifest
  // means nothing to restore (Ok); a partition directory whose snapshot
  // never committed is skipped (its operation log holds its full history).
  Status RestoreSnapshots(const sgx::SealingService& sealer,
                          sgx::MonotonicCounterService& counters, const std::string& directory);

  // Rebuilds partition `p` from its latest snapshot generation under
  // `directory`, then — when `oplog` is given — replays the committed
  // operation-log suffix filtered to the keys this partition owns. On
  // success the rebuilt store replaces the partition and the quarantine
  // flag clears; on failure the partition is untouched (and still
  // quarantined if it was). Unsupported in persist-heap mode (the heap file
  // IS the state; see RecoverPersistPartition).
  Status RecoverPartition(size_t p, const sgx::SealingService& sealer,
                          sgx::MonotonicCounterService& counters, const std::string& directory,
                          const OpLogOptions* oplog = nullptr);

  // --- Persistent heap (Options::persist_dir) ---

  // True when the store was built over per-partition arena files
  // (`persist_dir/p<i>.heap`).
  bool persist_enabled() const { return persist_; }
  const std::string& persist_dir() const { return base_options_.persist_dir; }
  // Per-partition arena (null when its file failed to open); test hook and
  // replica-bootstrap plumbing.
  alloc::PersistentArena* partition_arena(size_t p) { return arenas_[p].get(); }

  // Keys must route identically across restarts in persist mode (chains are
  // rebuilt from the per-partition files, not re-routed). The route key is
  // sealed into `persist_dir/route.seal` on first boot and re-loaded before
  // any attach or replay; tampering with the blob fails typed. Call before
  // serving: routing reads the key without a lock.
  Status LoadOrCreateRouteKey(const sgx::SealingService& sealer);

  // Arena checkpoint of one/all partitions: seals the secure metadata bound
  // to (partition, counter, value+1), runs the arena's plan/commit protocol,
  // then increments the counter — the same live/live+1 roll-forward window
  // Snapshotter uses, so a crash between commit and increment recovers while
  // an old heap file fails with kRollbackDetected. Quarantined partitions
  // are skipped (first error reported): tampered state is never committed
  // as trusted.
  Status CheckpointPartition(size_t p, const sgx::SealingService& sealer,
                             sgx::MonotonicCounterService& counters);
  Status CheckpointAll(const sgx::SealingService& sealer,
                       sgx::MonotonicCounterService& counters);

  // Boot-time attach: for every partition whose arena holds a committed
  // generation, unseals the metadata (with roll-forward) and attaches the
  // mapped chains in O(num_buckets) — per-entry MAC verification is
  // deferred to first touch and the scrub cursor. A partition that fails
  // (tamper, rollback, geometry drift) is quarantined and the first error
  // returned; healthy partitions still attach so the operator sees the
  // blast radius, but a failed attach latches and RecoverPersistPartition
  // refuses — the heap file must be restored (e.g. from a replica).
  Status AttachPersistent(const sgx::SealingService& sealer,
                          sgx::MonotonicCounterService& counters);

  // Persist-mode healing: there is no clean on-disk baseline separate from
  // the heap file (writeback persists tampers too), so recovery is a full
  // audit — if the partition's chains now verify against the trusted
  // in-enclave hashes, the quarantine clears; otherwise the partition stays
  // fenced and the file must be replaced from a replica.
  Status RecoverPersistPartition(size_t p);

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
  // Checkpoint one partition; caller holds the partition lock.
  Status CheckpointPartitionLocked(size_t p, const sgx::SealingService& sealer,
                                   sgx::MonotonicCounterService& counters);
  // Attach one partition; caller holds the partition lock.
  Status AttachPartitionLocked(size_t p, const sgx::SealingService& sealer,
                               sgx::MonotonicCounterService& counters);
  // Snapshot one partition under its lock (no manifest handling).
  Status WritePartitionSnapshot(size_t p, const sgx::SealingService& sealer,
                                sgx::MonotonicCounterService& counters,
                                const std::string& directory, Snapshotter::CrashPoint crash);
  // Writes (overwrites) the manifest recording this store's partition count.
  Status WriteManifest(const std::string& directory) const;
  // Writes the manifest, or verifies it if present (see SnapshotPartition).
  Status EnsureManifest(const std::string& directory) const;
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
  std::atomic<bool> attach_failed_{false};
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
