// Online partition self-healing, on a sharded write-ahead log.
//
// PR 1 built the offline recovery machinery: partitions quarantine on an
// integrity violation and RecoverPartition() rebuilds one from its snapshot
// generation plus the committed oplog suffix. PR 2 made that a serving-path
// feature behind a single global log — and one global mutex, which collapsed
// the write parallelism the paper's partitioned design (§5.3, Fig. 13)
// exists to deliver. This revision shards the log:
//
//  * WriteAheadStore runs one operation-log shard per partition (or per
//    partition group, OpLogOptions::num_shards), each with its own mutex,
//    record chain, monotonic counter, and fsync cadence. A mutation locks
//    only its key's shard, applies to the inner store, and appends to that
//    shard's log BEFORE any result is returned — acked ⇒ logged per shard,
//    and writers to different partitions never contend. Reads append
//    nothing.
//  * Group commit (OpLogOptions::group_commit_window_us > 0): acks are
//    durable. Each shard has one committer thread. It sleeps until the
//    shard has appended records that are not yet durable, waits out the
//    window (or until group_commit_ops records accumulate), writes the
//    commit record under the shard lock, then fsyncs, bumps the monotonic
//    counter and ships with the lock RELEASED, so writers keep appending
//    into the next group. Only then does the shard's durable watermark
//    advance. One fsync + one counter bump thus amortize over every record
//    that arrived in the window, from every caller at once.
//  * Durability requirements: SubmitBatch executes and appends without
//    waiting and returns, per touched shard, the appended sequence its
//    results depend on (a get's too: it must never reveal state a crash
//    could take back). ExecuteBatch is SubmitBatch plus a blocking wait on
//    those watermarks; the network server instead holds the sealed
//    responses and releases them when the shard's kv::DurabilityWatch
//    publishes the watermark, so no serving thread ever waits on a commit.
//  * Bounded-log compaction: when a shard's log outgrows a threshold, the
//    maintenance thread (SelfHealer::Tick) folds the shard's partitions into
//    fresh baseline snapshots — crash-safe via the existing SHA-256-footer +
//    atomic-rename + counter roll-forward path — then truncates the shard
//    log to a fresh epoch. Recovery time and disk growth stay bounded no
//    matter how long the daemon runs. A crash anywhere in that sequence
//    recovers: the snapshot either never committed (old generation + full
//    log still replay) or committed (new generation + not-yet-truncated log
//    replay to the same state, since the log's final values are what was
//    snapshotted). The per-shard sequence space runs on across truncation.
//
// Recovery window: the healer commits one SHARD's log, then replays it while
// holding that shard's lock (WithCommittedShard). Mutations to that shard's
// partitions block for those few milliseconds; every other shard — and all
// reads — keep serving at full speed.
#ifndef SHIELDSTORE_SRC_SHIELDSTORE_SELFHEAL_H_
#define SHIELDSTORE_SRC_SHIELDSTORE_SELFHEAL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/tracer.h"
#include "src/shieldstore/oplog.h"
#include "src/shieldstore/partitioned.h"

namespace shield::shieldstore {

// Aggregated WAL observability (see ISSUE: the batching win must be visible
// without a profiler). All counters are monotonic since Open().
struct WalStats {
  uint64_t records_logged = 0;
  uint64_t commits = 0;
  uint64_t fsyncs = 0;
  uint64_t compactions = 0;
  uint64_t log_bytes = 0;  // current total across shards, not monotonic
  size_t shards = 0;
  uint64_t shipped_records = 0;  // records handed to the replication sink
  uint64_t ship_failures = 0;    // ShipCommitted calls the sink rejected
};

// Write-ahead facade: apply to the partitioned store, then log to the key's
// shard, then return — an operation is acknowledged only once it is in that
// shard's log (and, with a group-commit window, fsync'd and counter-bumped).
// Per-shard locks serialize (apply + append) so each log's record order is
// its partitions' apply order, which is what makes per-partition replay
// deterministic. Reads route straight to the inner store. SubmitBatch is the
// only request path (ExecuteBatch = SubmitBatch + wait; the singleton verbs
// from kv::BatchFirstStore are batches of one), so the shard lock, the
// failed-shard latch, the log append and the requirement each exist once.
// Repartition() must go through this facade (or SelfHealer) — the inner
// store pins its layout while wrapped and returns the typed
// kUnsupportedUnderWal if called directly.
class WriteAheadStore : public kv::BatchFirstStore {
 public:
  WriteAheadStore(PartitionedStore& inner, const sgx::SealingService& sealer,
                  sgx::MonotonicCounterService& counters, const OpLogOptions& options);
  ~WriteAheadStore() override;

  // Opens (or reopens) every shard log and starts the shard committers
  // (durable-window mode). Must succeed before serving mutations. Shard i
  // lives at options.path + ".p<i>".
  Status Open();

  // Executes `ops` without waiting for durability. Each touched shard's
  // sub-ops apply (partition-grouped, via the inner ExecuteBatch) and append
  // to the shard log under a single lock hold; a group with no mutations
  // runs outside the shard lock. `requirement` receives, per touched shard,
  // its appended sequence after the group (mutations need their records,
  // gets need whatever they could have observed); shards with nothing
  // pending are left out, and legacy mode (window 0) never requires
  // anything. Gets ride in their key's shard group so per-key
  // read-after-write order within the batch is preserved. On a shard whose
  // commit failed (latched) mutations fail fast with the latched status
  // while reads still serve, against the durable watermark.
  std::vector<kv::BatchOpResult> SubmitBatch(const std::vector<kv::BatchOp>& ops,
                                             kv::DurabilityRequirement& requirement) override;
  // SubmitBatch, then a blocking wait until every requirement is durable —
  // a batched ack is exactly as durable as N singleton acks, for one wait
  // per shard. If a shard latches first, every result from that shard
  // reports the latched status.
  std::vector<kv::BatchOpResult> ExecuteBatch(const std::vector<kv::BatchOp>& ops) override;
  kv::DurabilityWatch* durability_watch() override { return &watch_; }
  size_t Size() const override { return inner_.Size(); }
  std::string Name() const override { return "ShieldStore/write-ahead"; }
  kv::StoreStats stats() const override { return inner_.stats(); }

  // Group-commits shard `shard` and runs `fn` while still holding its lock —
  // no mutation on that shard's partitions can slip between the commit and
  // `fn`. This is the recovery window: `fn` replays the shard log knowing
  // its committed tail matches the live counter. Other shards keep serving.
  Status WithCommittedShard(size_t shard, const std::function<Status()>& fn);
  // Same, over every shard at once (drains the whole store; used by
  // Repartition and tests).
  Status WithCommittedLog(const std::function<Status()>& fn);

  // --- compaction ---

  // Crash-point injection for the compaction sequence (tests). The snapshot
  // points map onto Snapshotter::CrashPoint; kBeforeTruncate dies after the
  // snapshots commit but before the log is reset.
  enum class CompactionCrash {
    kNone,
    kSnapshotTempWrite,  // Snapshotter::CrashPoint::kAfterTempWrite
    kSnapshotRename,     // Snapshotter::CrashPoint::kAfterRename
    kBeforeTruncate,
  };

  // Folds the committed state of every partition served by `shard` into a
  // fresh snapshot generation under `directory` (the SnapshotAll layout) —
  // or, with Options::persist_dir, into an incremental arena checkpoint
  // (dirty buckets + superblock, no full rewrite) — then truncates the
  // shard log to a fresh epoch. Runs under the shard lock: mutations to
  // those partitions wait, everything else proceeds. Refuses
  // (kPartitionRecovering) while a served partition is quarantined — its
  // in-memory state is untrusted and the log suffix is its recovery input.
  Status CompactShard(size_t shard, const std::string& directory,
                      CompactionCrash crash = CompactionCrash::kNone);

  // Commits and truncates every shard log to a fresh epoch, deleting any
  // stale shard files beyond the current count and any legacy single-file
  // log at options.path. Call right after a baseline SnapshotAll: the
  // snapshots subsume everything the logs held.
  Status ResetAllLogs();

  // Route-agnostic restore of a previous run's durable state into the
  // (empty) inner store: every partition snapshot generation under
  // `snapshot_directory` (the SnapshotAll layout of ANY geometry — the
  // route key is drawn fresh each boot, so keys are re-routed through the
  // facade), then the committed suffix of every shard log found on disk,
  // including a legacy unsharded log at options.path. Call after Open() and
  // before serving; follow with SelfHealer::Start() (or ResetAllLogs()) so
  // the restored state becomes the new baseline.
  //
  // With Options::persist_dir the baseline is the mmap'd heap files, not
  // snapshots: the sealed route key is loaded (so routing matches the files'
  // chain layout), every partition attaches its arena's committed generation
  // — O(1) in entry count, per-entry MAC verification deferred to first
  // touch — and only the WAL tail replays. Sets the heap.restart_ns gauge.
  Status RestoreFromDisk(const std::string& snapshot_directory);

  // Drains and commits every shard, rebuilds the inner store with
  // `new_partitions`, re-splits the logs to the new geometry, and installs
  // fresh shard epochs. `rebaseline` (optional) runs between the rebuild
  // and the log reset — SelfHealer passes SnapshotAll so recovery inputs
  // match the new geometry; without it the full state is dumped into the
  // new shard logs (crash-safe: the old logs are replaced only after the
  // new ones are committed on disk).
  Status Repartition(size_t new_partitions,
                     const std::function<Status()>& rebaseline = nullptr);

  // Copies the committed persistent-heap files (p<i>.heap + route.seal) into
  // `destination_dir`, checkpointing every partition first under the full
  // log lock so the copies are self-consistent: this is the file-shipped
  // replica bootstrap path — a replica maps the copies and attaches in O(1),
  // lazily re-verifying entries as it serves. kUnsupported without
  // Options::persist_dir. The monotonic-counter backing file is NOT copied
  // (it belongs to the counter service, not the store); ship it alongside.
  Status ExportHeapFiles(const std::string& destination_dir);

  PartitionedStore& inner() { return inner_; }
  size_t num_shards() const;
  size_t ShardOfPartition(size_t p) const;
  uint64_t ShardLogBytes(size_t shard) const;
  // Current adaptive group-commit window for `shard` (0 in legacy mode).
  uint32_t shard_window_us(size_t shard) const;
  const OpLogOptions& shard_log_options(size_t shard) const;
  WalStats Stats() const;
  uint64_t records_logged() const { return Stats().records_logged; }

  // Folds WalStats plus the group-commit batch-size histogram into a metrics
  // snapshot (wal.* namespace) — wired into the server's kStats frame via
  // ServerOptions::stats_augment.
  void BridgeStats(obs::MetricsSnapshot& snap) const;

  // Installs (nullptr clears) the replication sink. From then on every
  // mutation record is captured at append time and handed to the sink once
  // its group commit fsyncs, BEFORE any writer in the group is acked — see
  // ReplicationSink for the ordering contract. Records appended while no
  // sink was installed are NOT buffered retroactively; the sink's attach-
  // time bootstrap snapshot is what covers them. Safe to call while serving.
  void SetReplicationSink(ReplicationSink* sink);
  ReplicationSink* replication_sink() const {
    return sink_.load(std::memory_order_acquire);
  }

 private:
  struct Shard {
    explicit Shard(OpLogOptions opts) : options(std::move(opts)) {}
    OpLogOptions options;  // options.path is this shard's file
    std::unique_ptr<OperationLog> log;
    size_t index = 0;  // position in shards_ (shipped to the sink as-is)
    // Adaptive group-commit window (microseconds). Starts at the configured
    // cap (options.group_commit_window_us); the committer halves it after a
    // near-empty batch (solo writers should not wait out a window sized for
    // bursts) and doubles it back toward the cap after a full one. Floor is
    // cap/16 (min 1). Only groups whose close did not wait on the commit
    // turn adapt it; adjustments take effect on the following batch.
    std::atomic<uint32_t> window_us{0};
    std::mutex mutex;  // serializes apply + append for this shard's partitions
    std::condition_variable commit_cv;   // wakes the committer
    std::condition_variable durable_cv;  // `durable`/`committing` changed
    // Record sequences (durable-window mode). Monotone for the life of the
    // store — compaction and log reset do not rewind them — because
    // requirements and parked waiters name sequences in this space.
    uint64_t appended = 0;    // highest sequence appended
    uint64_t durable = 0;     // highest sequence fsync'd + counter-bumped + shipped
    bool committing = false;  // the committer is between CommitPrepare and publish
    bool stop = false;        // the committer should drain and exit
    // Replication: records captured at append time, drained to the sink at
    // commit time. ship_seq counts records ever handed to the sink; follower
    // watermarks live in this space.
    std::vector<ReplicatedOp> pending_ship;
    uint64_t ship_seq = 0;
    obs::TraceContext ship_trace;  // latest sampled writer's, for the ship span
    std::chrono::steady_clock::time_point batch_start{};
    Status failed;  // latched fatal commit error: durability can no longer
                    // be promised, so every later mutation fails fast
    // Per-shard observability (wal.shard<i>.*), cached in BuildShards.
    obs::Counter* ctr_appends = nullptr;
    obs::Counter* ctr_commit_waits = nullptr;
    obs::Counter* ctr_compactions = nullptr;
    std::atomic<int> maintenance{0};  // MaintenanceLocks held or waiting
    std::thread committer;  // joined by StopCommitters before the shard dies
  };

  // Builds the shard table for the inner store's geometry, every shard's
  // sequence space starting at `first_seq`.
  void BuildShards(uint64_t first_seq = 0);
  Shard& shard(size_t s) { return *shards_[s]; }
  size_t ShardOfLocked(size_t partition) const {
    return partition % shards_.size();
  }
  // Appends one record under the shard lock (legacy mode commits inline per
  // the group cadence); durable-window mode gives it the next sequence and
  // wakes the committer when a group opens or fills.
  Status AppendLocked(Shard& s, bool is_delete, std::string_view key,
                      std::string_view value);
  std::vector<kv::BatchOpResult> SubmitLocked(const std::vector<kv::BatchOp>& ops,
                                              kv::DurabilityRequirement& requirement);
  // Blocks until `seq` is durable on `s`, or returns the shard's latch.
  Status AwaitDurable(Shard& s, uint64_t seq);
  // Durable-window mode: one committer thread per shard (none in legacy
  // mode). Stop drains what is pending, then joins.
  void StartCommitters();
  void StopCommitters();
  void CommitterLoop(Shard& s);
  // Commits every record appended so far as one group and publishes the
  // new watermark; called by the committer with `lock` held.
  void CommitGroupLocked(Shard& s, std::unique_lock<std::mutex>& lock, bool adapt_window);
  // A shard lock taken for maintenance (commit + compaction, recovery,
  // re-layout): flagged so a committer holding the commit turn passes the
  // turn on instead of waiting for it (see LockForCommit).
  class MaintenanceLock {
   public:
    explicit MaintenanceLock(Shard& s);
    ~MaintenanceLock();
    MaintenanceLock(const MaintenanceLock&) = delete;
    MaintenanceLock& operator=(const MaintenanceLock&) = delete;
    std::unique_lock<std::mutex>& lock() { return lock_; }

   private:
    Shard& shard_;
    std::unique_lock<std::mutex> lock_;
  };
  // Takes `lock` on `s` for a committer holding the commit turn; false,
  // without it, if a maintenance hold is pending or active.
  static bool LockForCommit(Shard& s, std::unique_lock<std::mutex>& lock);
  // Records a fatal commit error: durability can no longer be promised.
  void LatchLocked(Shard& s, const Status& failure);
  Status CommitShardLocked(Shard& s, std::unique_lock<std::mutex>& lock);
  // Drains s.pending_ship to the sink under the shard lock (legacy-cadence
  // and maintenance-commit paths; the committer instead steals the buffer
  // under the lock and ships outside it). Clears the buffer without
  // shipping when no sink is installed. Never fails the caller: a sink
  // rejection only bumps ship_failures_.
  void ShipLocked(Shard& s);
  std::vector<OpLogOptions> ShardLogsOnDisk() const;

  PartitionedStore& inner_;
  const sgx::SealingService& sealer_;
  sgx::MonotonicCounterService& counters_;
  OpLogOptions options_;
  // Guards the shard vector itself (shared for ops, exclusive for
  // Repartition), mirroring the inner store's structure lock.
  mutable std::shared_mutex structure_mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // The WAL's commit turn: a committer holds it from closing its group
  // until the group has published, and turns are served in ticket order
  // (see CommitterLoop). Waited for only with no shard lock held.
  class CommitTurn {
   public:
    explicit CommitTurn(WriteAheadStore& wal);  // takes a ticket
    ~CommitTurn();                              // Pass()
    CommitTurn(const CommitTurn&) = delete;
    CommitTurn& operator=(const CommitTurn&) = delete;
    bool TryTake();  // true if the turn is already this ticket's
    void Wait();     // blocks until it is
    void Pass();     // hands the turn to the next ticket (once)

   private:
    WriteAheadStore& wal_;
    uint64_t ticket_ = 0;
    bool passed_ = false;
  };
  std::mutex turn_mutex_;  // guards turn_next_ and turn_serving_
  std::condition_variable turn_cv_;
  uint64_t turn_next_ = 0;     // next ticket to hand out
  uint64_t turn_serving_ = 0;  // ticket whose turn it is
  std::atomic<uint64_t> compactions_{0};
  std::atomic<ReplicationSink*> sink_{nullptr};
  std::atomic<uint64_t> shipped_records_{0};
  std::atomic<uint64_t> ship_failures_{0};
  kv::DurabilityWatch watch_;  // per-shard durable watermarks, as published

  // Metric handles cached at construction (see OpLogOptions::metrics).
  obs::Registry* metrics_ = nullptr;
  obs::Histogram* commit_batch_hist_ = nullptr;  // wal.commit_batch_ops (records/commit)
  obs::Counter* group_commits_ = nullptr;        // wal.group_commits
  obs::Counter* compacted_bytes_ = nullptr;      // wal.compacted_bytes
  obs::Gauge* window_gauge_ = nullptr;           // wal.window_us (last adapted window)
};

struct SelfHealOptions {
  // Snapshot directory (SnapshotAll layout: manifest + p<i>/ per partition).
  // Start() writes the baseline generation here; recoveries read it.
  std::string directory;
  // Buckets audited per Tick (0 = the store Options' scrub_budget_buckets).
  size_t scrub_budget_buckets = 0;
  // Run the paced background scrub on idle ticks.
  bool scrub = true;
  // Stop retrying a partition after this many consecutive failed recovery
  // attempts (it stays quarantined; operators see failed_recoveries()).
  int max_recovery_attempts = 8;
  // Compact a shard's log once it exceeds this many bytes (0 = never).
  // Ticks check one shard per call, round-robin, after recovery work.
  size_t compact_log_bytes = 0;
};

// Self-healing state machine per partition:
//
//   healthy --(violation detected by an op, the scrub, or ScrubAll)-->
//   quarantined --(Tick picks it up)--> recovering --(snapshot + committed
//   shard-log replay succeeds)--> healthy
//
// Tick() is cheap when there is nothing to do; drive it from the network
// server's maintenance thread (or any single background thread). Each tick
// does at most one unit of work, in priority order: recover one quarantined
// partition, else compact one oversized shard log, else advance the scrub.
class SelfHealer {
 public:
  SelfHealer(WriteAheadStore& wal, const sgx::SealingService& sealer,
             sgx::MonotonicCounterService& counters, SelfHealOptions options);

  // Restores the previous run's durable state (snapshots + committed shard
  // logs) into the inner store. Call before Start(), on an empty store.
  Status Restore();

  // Writes the baseline snapshot of every (healthy) partition and truncates
  // the shard logs it subsumes. Call once, before traffic; recovery = this
  // baseline + each shard's log from then on.
  Status Start();

  // One maintenance step: recover at most one quarantined partition, else
  // compact at most one oversized shard log, else spend one scrub budget.
  // Single-threaded driver assumed.
  void Tick();

  // Drains the WAL, rebuilds the inner store with `new_partitions`,
  // rebaselines the snapshots to the new geometry, and resets the logs.
  Status Repartition(size_t new_partitions);

  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
  uint64_t recoveries() const { return recoveries_.load(std::memory_order_relaxed); }
  uint64_t failed_recoveries() const {
    return failed_recoveries_.load(std::memory_order_relaxed);
  }
  uint64_t violations_detected() const {
    return violations_detected_.load(std::memory_order_relaxed);
  }
  uint64_t compactions() const { return compactions_.load(std::memory_order_relaxed); }
  Status last_error() const;

  // Folds healer state into a metrics snapshot (heal.* namespace).
  void BridgeStats(obs::MetricsSnapshot& snap) const;

 private:
  Status RecoverOne(size_t p);
  // Compacts the next oversized shard (round-robin); false if none was due.
  bool CompactOne();

  WriteAheadStore& wal_;
  const sgx::SealingService& sealer_;
  sgx::MonotonicCounterService& counters_;
  SelfHealOptions options_;

  std::vector<int> attempts_;  // consecutive failed recoveries per partition
  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> recoveries_{0};
  std::atomic<uint64_t> failed_recoveries_{0};
  std::atomic<uint64_t> violations_detected_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<size_t> compact_cursor_{0};
  mutable std::mutex error_mutex_;
  Status last_error_;
};

}  // namespace shield::shieldstore

#endif  // SHIELDSTORE_SRC_SHIELDSTORE_SELFHEAL_H_
