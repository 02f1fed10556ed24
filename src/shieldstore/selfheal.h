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
//    record chain and fsync cadence. A mutation locks only its key's
//    shard, applies to the inner store, and appends to that shard's log
//    BEFORE any result is returned — acked ⇒ logged per shard, and writers
//    to different partitions never contend. Reads append nothing.
//  * Counter epochs: the WAL has ONE monotonic counter and one bumper
//    thread, its only client. A writer thread seals every shard's newest
//    ready head into an epoch record (EpochLog, oplog.h) and fsyncs it —
//    rewriting it while the bump in flight spins; the bumper then bumps the
//    counter to the record's value and publishes every covered shard's
//    watermark with one wake. Bumps per second are fixed by the counter
//    model, so throughput grows with the records each bump covers.
//  * Group commit (OpLogOptions::group_commit_window_us > 0): acks are
//    durable — fsync'd ∧ shipped ∧ counter-bumped. Each shard's committer
//    thread waits out the window from its group's first record (or until
//    group_commit_ops records accumulate), flushes the group under the
//    shard lock, fsyncs and ships it with the lock RELEASED, then marks it
//    ready for the next epoch; shards commit concurrently. In legacy mode
//    (window 0) the log fsyncs inline every group_commit_ops records and
//    the bumper covers those groups in the background.
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
//    atomic-rename + counter roll-forward path — then starts a new log
//    generation, which an epoch binds before it replaces the old file.
//    Recovery time and disk growth stay bounded no matter how long the
//    daemon runs; a crash anywhere recovers the old or the new generation.
//  * Recovery (Open, RestoreFromDisk) replays each shard log up to its head
//    in the recovered epoch (EpochLog::Recover). A shard log, the epoch file
//    or a shard generation put back behind the counter is kRollbackDetected.
//
// Recovery window: the healer commits one SHARD's log and waits for its
// epoch, then replays it while holding that shard's lock
// (WithCommittedShard). Mutations to that shard's partitions block for
// those few milliseconds; every other shard — and all reads — keep serving.
//
// Geometry: the partition count and the WAL shard layout are fixed for the
// life of the process (built once in the constructors, so routing takes no
// lock). A restart changes them: RestoreFromDisk re-routes every key.
#ifndef SHIELDSTORE_SRC_SHIELDSTORE_SELFHEAL_H_
#define SHIELDSTORE_SRC_SHIELDSTORE_SELFHEAL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/tracer.h"
#include "src/shieldstore/oplog.h"
#include "src/shieldstore/partitioned.h"

namespace shield::shieldstore {

// Aggregated WAL observability, folded from the WAL's registry (see
// OpLogOptions::metrics): the counters are per registry, so WALs sharing one
// share the totals, and a SHIELD_METRICS=OFF build reads 0. log_bytes and
// shards are this WAL's own.
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
class WriteAheadStore : public kv::BatchFirstStore {
 public:
  WriteAheadStore(PartitionedStore& inner, const sgx::SealingService& sealer,
                  sgx::MonotonicCounterService& counters, const OpLogOptions& options);
  ~WriteAheadStore() override;

  // Recovers the epoch (a rollback fails here), reopens every shard log at
  // its head in it and starts the bumper and the shard committers
  // (durable-window mode). Call before serving: it must succeed before any
  // mutation, and must not race one. Shard i lives at options.path + ".p<i>".
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

  // Group-commits shard `shard`, waits for an epoch covering it, and runs
  // `fn` still holding its lock (the bumper needs none) — no mutation on
  // that shard's partitions can slip between the commit and `fn`. This is
  // the recovery window: `fn` replays the log (ReplayCommittedShard).
  Status WithCommittedShard(size_t shard, const std::function<Status()>& fn);
  // Same, over every shard at once (drains the whole store; heap export and
  // tests).
  Status WithCommittedLog(const std::function<Status()>& fn);
  // Inside WithCommittedShard's `fn`: applies the shard log up to its
  // covered head to `target` (kRollbackDetected if the file lost it).
  Status ReplayCommittedShard(size_t shard, kv::KeyValueStore& target);

  // --- compaction ---

  // Crash-point injection for the compaction sequence (tests). The snapshot
  // points map onto Snapshotter::CrashPoint; kBeforeTruncate dies after the
  // snapshots commit but before the log is reset; kGenerationSwitch after
  // the new generation is written, before an epoch binds it (the shard
  // latches: the process would be gone).
  enum class CompactionCrash {
    kNone,
    kSnapshotTempWrite,  // Snapshotter::CrashPoint::kAfterTempWrite
    kSnapshotRename,     // Snapshotter::CrashPoint::kAfterRename
    kBeforeTruncate,
    kGenerationSwitch,
  };

  // Crash-point injection for the commit path (tests): the committer (or
  // the bumper) reaching the armed point fails there and latches its shard
  // (every shard), so nothing after the point is acked.
  enum class CommitCrash {
    kNone,
    kBeforeShardFsync,
    kAfterShardFsync,
    kBetweenEpochFsyncAndBump,
  };
  void InjectCommitCrash(CommitCrash point) { commit_crash_.store(point); }

  // Folds the committed state of every partition served by `shard` into a
  // fresh snapshot generation under `directory` (the SnapshotAll layout) —
  // or, with Options::persist_dir, into an incremental arena checkpoint
  // (dirty buckets + superblock, no full rewrite) — then starts a new log
  // generation. Runs under the shard lock: mutations to those partitions
  // wait, everything else proceeds. Refuses
  // (kPartitionRecovering) while a served partition is quarantined — its
  // in-memory state is untrusted and the log suffix is its recovery input.
  Status CompactShard(size_t shard, const std::string& directory,
                      CompactionCrash crash = CompactionCrash::kNone);

  // Commits every shard log and starts it on a new generation, dropping
  // stale shard files beyond the current count (a previous boot's wider
  // geometry). Call right after a baseline SnapshotAll: the snapshots
  // subsume everything the logs held.
  Status ResetAllLogs();

  // Route-agnostic restore of a previous run's durable state into the
  // (empty) inner store: every partition snapshot generation under
  // `snapshot_directory` (the SnapshotAll layout of ANY geometry — the
  // route key is drawn fresh each boot, so keys are re-routed through the
  // facade), then every shard log the recovered epoch names, up to its
  // head. Call after Open() and before serving; follow with
  // SelfHealer::Start() (or ResetAllLogs()) so the restored state becomes
  // the new baseline. A leftover unsharded log at options.path (the
  // pre-sharding layout) or shard logs without an epoch are refused with
  // kUnsupported naming the file: their acked records are never dropped
  // silently.
  //
  // With Options::persist_dir the baseline is the mmap'd heap files, not
  // snapshots: the sealed route key is loaded (so routing matches the files'
  // chain layout), every partition attaches its arena's committed generation
  // — O(1) in entry count, per-entry MAC verification deferred to first
  // touch — and only the WAL tail replays. Sets the heap.restart_ns gauge.
  Status RestoreFromDisk(const std::string& snapshot_directory);

  // Copies the committed persistent-heap files (p<i>.heap + route.seal) into
  // `destination_dir`, checkpointing every partition first under the full
  // log lock so the copies are self-consistent: this is the file-shipped
  // replica bootstrap path — a replica maps the copies and attaches in O(1),
  // lazily re-verifying entries as it serves. kUnsupported without
  // Options::persist_dir. The monotonic-counter backing file is NOT copied
  // (it belongs to the counter service, not the store); ship it alongside.
  Status ExportHeapFiles(const std::string& destination_dir);

  PartitionedStore& inner() { return inner_; }
  size_t num_shards() const { return shards_.size(); }
  size_t ShardOfPartition(size_t p) const { return p % shards_.size(); }
  uint64_t ShardLogBytes(size_t shard) const;
  WalStats Stats() const;
  // The registry this WAL, its logs and its SelfHealer record into.
  obs::Registry& metrics() const { return *metrics_; }

  // Installs (nullptr clears) the replication sink. From then on every
  // mutation record is captured at append time and handed to the sink once
  // its group commit fsyncs, BEFORE any writer in the group is acked — see
  // ReplicationSink for the ordering contract. Records appended while no
  // sink was installed are NOT buffered retroactively; the sink's attach-
  // time bootstrap snapshot is what covers them. Safe to call while serving.
  void SetReplicationSink(ReplicationSink* sink);

 private:
  struct Shard {
    explicit Shard(OpLogOptions opts) : options(std::move(opts)) {}
    OpLogOptions options;  // options.path is this shard's file
    std::unique_ptr<OperationLog> log;
    size_t index = 0;  // position in shards_ (shipped to the sink as-is)
    std::mutex mutex;  // serializes apply + append for this shard's partitions
    std::condition_variable commit_cv;  // wakes the committer
    std::condition_variable idle_cv;    // `committing` cleared
    // Record sequences. Monotone for the life of the store — compaction and
    // log generations do not rewind them — because requirements and parked
    // waiters name sequences in this space.
    std::atomic<uint64_t> appended{0};  // highest sequence appended
    uint64_t prepared = 0;  // highest sequence in a closed group (CommitPrepare'd)
    std::atomic<uint64_t> durable{0};  // highest sequence an epoch covers (bumper)
    bool committing = false;  // the committer is between CommitPrepare and ready
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
    obs::Counter* ctr_commit_waits = nullptr;
    obs::Counter* ctr_compactions = nullptr;
    std::thread committer;  // joined by StopCommitters before the shard dies
  };

  // Builds the shard table for the inner store's geometry (constructor).
  void BuildShards();
  Shard& shard(size_t s) { return *shards_[s]; }
  // Appends one record under the shard lock (legacy mode commits inline per
  // the group cadence); durable-window mode gives it the next sequence and
  // wakes the committer when a group opens or fills.
  Status AppendLocked(Shard& s, bool is_delete, std::string_view key,
                      std::string_view value);
  // Blocks until `seq` is durable on `s`, or returns the shard's latch.
  Status AwaitDurable(Shard& s, uint64_t seq);
  // Durable-window mode: one committer thread per shard (none in legacy
  // mode). Stop drains what is pending, then joins.
  void StartCommitters();
  void StopCommitters();
  void CommitterLoop(Shard& s);
  // Commits every record appended so far as one group and marks it ready;
  // called by the committer with `lock` held.
  void CommitGroupLocked(Shard& s, std::unique_lock<std::mutex>& lock);
  // Records a fatal commit error: durability can no longer be promised.
  void LatchLocked(Shard& s, const Status& failure);
  // Maintenance commit (the committer drained first): fsync + ship + ready.
  // Returns the ticket WaitCovered takes.
  Result<uint64_t> CommitShardLocked(Shard& s, std::unique_lock<std::mutex>& lock);
  // Starts a new log generation, waits for the epoch binding it, promotes it.
  Status NewGenerationLocked(Shard& s, CompactionCrash crash = CompactionCrash::kNone);
  // Drains s.pending_ship to the sink under the shard lock (legacy-cadence
  // and maintenance-commit paths; the committer instead steals the buffer
  // under the lock and ships outside it). Clears the buffer without
  // shipping when no sink is installed. Never fails the caller: a sink
  // rejection only bumps wal.ship_failures.
  void ShipLocked(Shard& s);
  // Stops the committers, gives every shard's tail its epoch and stops the
  // bumper (Open and the destructor).
  void Close();
  Status InjectedCrash(CommitCrash point) const {
    return commit_crash_ == point ? Status(Code::kIoError, "injected crash") : Status::Ok();
  }

  // A shard's group (fsync'd and shipped, head `head`, through `upto` in
  // the sequence space) is ready for the next epoch; returns the ticket an
  // epoch must reach to cover it. Shard lock held.
  uint64_t MarkReadyLocked(Shard& s, const LogHead& head, uint64_t upto);
  // Blocks until an epoch covers `ticket`, or the epoch threads failed.
  Status WaitCovered(uint64_t ticket);
  void EpochWriterLoop();
  void BumperLoop();
  // An epoch write or bump failed: no later ack is possible, so every shard
  // latches. Drops `lock` (on epoch_mutex_) to take the shard locks.
  void FailEpochs(const Status& failure, std::unique_lock<std::mutex>& lock);

  PartitionedStore& inner_;
  const sgx::SealingService& sealer_;
  sgx::MonotonicCounterService& counters_;
  OpLogOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;  // fixed after construction
  std::atomic<ReplicationSink*> sink_{nullptr};
  kv::DurabilityWatch watch_;  // per-shard durable watermarks, as published
  std::atomic<CommitCrash> commit_crash_{CommitCrash::kNone};

  // Epoch state, under epoch_mutex_. A ticket numbers each change of
  // `ready_`. The writer thread seals ready_ into the next record (and
  // rewrites it while the bump in flight spins); the bumper bumps the
  // newest fsync'd record. Lock order: shard mutex, then epoch_mutex_; the
  // epoch threads take no shard lock while holding it.
  struct StagedEpoch {
    Epoch epoch;
    std::vector<uint64_t> marks;  // per shard: the sequence it covers
    uint64_t ticket = 0;
  };
  std::unique_ptr<EpochLog> epoch_log_;
  std::mutex epoch_mutex_;
  std::condition_variable epoch_cv_;
  Epoch ready_;  // every shard's newest ready head (+ an older geometry's, until reset)
  std::vector<uint64_t> ready_marks_;
  uint64_t ready_ticket_ = 0;
  StagedEpoch staged_;   // the newest fsync'd record; due a bump past covered_
  StagedEpoch covered_;  // the last bumped one
  bool writing_ = false;
  bool bumping_ = false;
  bool writer_done_ = false;
  bool epochs_stop_ = false;
  Status epoch_failed_;

  // Metric handles cached at construction (see OpLogOptions::metrics).
  obs::Registry* metrics_ = nullptr;
  obs::Histogram* commit_batch_hist_ = nullptr;  // wal.commit_batch_ops (records/commit)
  obs::Counter* group_commits_ = nullptr;        // wal.group_commits
  obs::Counter* compacted_bytes_ = nullptr;      // wal.compacted_bytes
  obs::Counter* compactions_ = nullptr;          // wal.compactions
  obs::Counter* shipped_records_ = nullptr;      // wal.shipped_records
  obs::Counter* ship_failures_ = nullptr;        // wal.ship_failures
  obs::Gauge* replication_attached_ = nullptr;   // wal.replication_attached
  obs::Counter* epochs_ = nullptr;               // wal.epochs (counter bumps)
  obs::Histogram* epoch_records_ = nullptr;      // wal.epoch_records (records/bump)
  obs::Histogram* epoch_fsync_ = nullptr;        // wal.epoch_fsync_ns
  obs::Histogram* counter_bump_ = nullptr;       // wal.counter_bump_ns
  std::thread epoch_writer_;  // joined by Close(), like the bumper
  std::thread bumper_;
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
  // attempts (it stays quarantined; operators see heal.failed_recoveries).
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

  // The heal.* counters, read from the WAL's registry (per registry, like
  // WalStats).
  uint64_t recoveries() const { return recoveries_->Value(); }
  uint64_t failed_recoveries() const { return failed_recoveries_->Value(); }
  uint64_t violations_detected() const { return violations_->Value(); }
  Status last_error() const;

 private:
  Status RecoverOne(size_t p);
  // Compacts the next oversized shard (round-robin); false if none was due.
  bool CompactOne();

  WriteAheadStore& wal_;
  const sgx::SealingService& sealer_;
  sgx::MonotonicCounterService& counters_;
  SelfHealOptions options_;

  std::vector<int> attempts_;  // consecutive failed recoveries per partition
  obs::Counter* recoveries_ = nullptr;         // heal.recoveries
  obs::Counter* failed_recoveries_ = nullptr;  // heal.failed_recoveries
  obs::Counter* violations_ = nullptr;         // heal.violations_detected
  std::atomic<size_t> compact_cursor_{0};
  mutable std::mutex error_mutex_;
  Status last_error_;
};

}  // namespace shield::shieldstore

#endif  // SHIELDSTORE_SRC_SHIELDSTORE_SELFHEAL_H_
