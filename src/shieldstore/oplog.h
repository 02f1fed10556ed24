// Operation log — the paper's §7 "alternative fine-grained design": instead
// of losing everything since the last snapshot, log each mutation to
// persistent storage. The paper rejects the naive form because sealing every
// record against a hardware monotonic counter is prohibitively slow, and
// points at ROTE/LCM-style mitigations; this extension implements the
// practical middle ground those systems enable:
//
//  * records are encrypted + MAC-chained (each record's MAC covers its
//    predecessor's), so order, content, and truncation-before-commit are
//    all authenticated without per-record counter bumps;
//  * the monotonic counter is bumped once per GROUP of records, through a
//    counter epoch (EpochLog) that names the log's head (the counter-service
//    cost knob models the slow SGX counter or a fast ROTE-style one);
//  * recovery = baseline + replay of the log prefix the newest epoch names;
//    a stale log or epoch fails the counter check.
//
// One OperationLog is one append-only file, externally synchronized, in one
// on-disk format. A shard of the sharded WAL (selfheal.h) is built without a
// counter service: its commits flush and fsync, and the WAL's EpochLog binds
// every shard's head to ONE counter per bump. A STANDALONE log at path P
// (built with a counter service) is a one-shard WAL: the log file P.p0 and
// its own EpochLog at P.epoch, which each CommitSync writes and bumps.
//
// This module is an EXTENSION beyond the paper's implementation; the
// evaluation figures never enable it.
#ifndef SHIELDSTORE_SRC_SHIELDSTORE_OPLOG_H_
#define SHIELDSTORE_SRC_SHIELDSTORE_OPLOG_H_

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/crypto/cmac.h"
#include "src/sgx/counter.h"
#include "src/sgx/seal.h"
#include "src/shieldstore/store.h"

namespace shield::shieldstore {

// Cross-process replication hook. A WriteAheadStore shard calls
// ShipCommitted AFTER a group is fsync'd and BEFORE any writer in the group
// is acknowledged — so with a healthy sink, acked ⇒ logged ∧ shipped. Each
// op is a kSet or kDelete carrying the resulting state, exactly what the WAL
// records, so replay on the standby is as deterministic as local log replay.
// `first_seq` numbers ops in a per-shard ship-sequence space that is
// monotone across compactions (unlike the WAL's own record sequence, which
// resets when a shard log is truncated); a sink resumes a reconnected
// follower from its watermark in this space.
//
// The committer calls it outside the shard lock, a maintenance commit with
// the lock held; either way one call per shard is in flight, but shards ship
// concurrently, so implementations must be thread-safe and should
// buffer-and-return rather than block forever: a slow sink stalls that
// shard's acks, which is the synchronous-replication contract, but a DEAD
// sink must fail fast so the primary can keep serving (the invariant then
// degrades to acked ⇒ logged ∧ recoverable-from-local-WAL).
class ReplicationSink {
 public:
  virtual ~ReplicationSink() = default;
  virtual Status ShipCommitted(size_t shard, uint64_t first_seq,
                               std::vector<kv::BatchOp> ops) = 0;
};

struct OpLogOptions {
  // A WAL (or a standalone log, a one-shard WAL) at `path` keeps shard i's
  // log in path + ".p<i>" and its counter epochs in path + ".epoch".
  std::string path;
  // The cap that closes a WAL group early: a shard's committer commits as
  // soon as this many records are pending, window or not.
  size_t group_commit_ops = 64;

  // --- knobs interpreted by the sharded WriteAheadStore (selfheal.h) ---

  // Log shards. 0 = one shard per partition (the scalable default: writers
  // to different partitions never contend); 1 reproduces the PR 2 single
  // global log; k < partitions maps partition p to shard p % k.
  size_t num_shards = 0;
  // Group-commit window in microseconds (the daemon's --wal-window-us).
  // Every ack is durable: a mutation is acknowledged only once its record is
  // fsync'd and counter-bumped. A shard's committer batches every record
  // that arrives within the window (or until group_commit_ops accumulate,
  // whichever first) into one fsync, and an idle bumper holds its next
  // epoch up to one window so one counter bump covers the fsync'd groups of
  // every shard (selfheal.h). 0 disables both holds.
  uint32_t group_commit_window_us = 200;
  // SIMULATED MULTICORE (see bench/harness.h): queueing-delay multiplier
  // charged for the time a shard's lock is held, modelling n workers
  // saturating one shard. 1 = off (real deployments).
  size_t virtual_contention = 1;

  // Observability: the registry every WAL metric is recorded in, by
  // WriteAheadStore (stage histograms, commit batches, compaction,
  // shipping, epochs and counter-bump latency), by its SelfHealer (heal.*)
  // and by the log itself (wal.records/commits/fsyncs/log_bytes, fsync
  // latency, per-shard series when shard_index >= 0). Counts belong to the registry:
  // logs sharing one share the totals. nullptr uses obs::Registry::Global().
  obs::Registry* metrics = nullptr;
  // Which WAL shard this log backs; >= 0 registers wal.shard<i>.records and
  // wal.shard<i>.log_bytes under `metrics`. -1 (standalone logs, replay-only
  // options) registers no per-shard series.
  int shard_index = -1;
};

// A log's durable position: its generation (new at every Reset, so a file
// swapped for an older generation is caught even with no records), its
// record count and the chain MAC after them.
struct LogHead {
  uint64_t generation = 0;
  uint64_t sequence = 0;
  crypto::Mac mac{};
  bool operator==(const LogHead&) const = default;
  // Past the first generation: a compaction folded the earlier ones into
  // the baseline, so the log alone no longer holds the whole history.
  bool compacted() const { return generation > 1; }
};

// One counter epoch: the counter value it binds and the head of every shard
// of the geometry that wrote it (index = shard).
struct Epoch {
  uint64_t value = 0;
  std::vector<LogHead> heads;
};

class EpochLog;

class OperationLog {
 public:
  // A standalone log: `sealer` protects record confidentiality/integrity
  // (bound to the enclave measurement); `counters` backs its EpochLog, one
  // bump per group commit.
  OperationLog(const sgx::SealingService& sealer, sgx::MonotonicCounterService& counters,
               const OpLogOptions& options);
  // A WAL shard log at options.path, bound by the WAL's EpochLog.
  OperationLog(const sgx::SealingService& sealer, const OpLogOptions& options);
  // Closes the file without committing: committing is the caller's job.
  ~OperationLog();

  OperationLog(const OperationLog&) = delete;
  OperationLog& operator=(const OperationLog&) = delete;

  // Standalone: recovers the epoch (a rollback fails here) and resumes at
  // the head it names, or starts a fresh log. WAL shard: starts a fresh log.
  // Must be called before logging.
  Status Open();
  // Reopens at `head` (see ReplayPrefix), truncating what lies past it —
  // those records were never committed.
  Status Resume(const LogHead& head);

  // Appends one mutation, with no commit side effect: the caller owns the
  // commit cadence.
  Status AppendSet(std::string_view key, std::string_view value);
  Status AppendDelete(std::string_view key);

  // Forces a group commit (CommitPrepare + CommitSync). Prepare flushes to
  // the OS, under the caller's lock; Sync fsyncs and, standalone, seals the
  // head into the next epoch and bumps the counter to it. Sync touches no
  // chain state, so it may run after dropping the lock, as long as appends
  // through the same FILE* are still excluded.
  Status Commit();
  Status CommitPrepare();
  Status CommitSync();

  // Truncates the log (after a checkpoint subsumes it): a new
  // generation at `<file>.next`, bound by a commit. Promote() renames it
  // over the old file once an epoch binds it — a crash in between leaves
  // the file the epoch names. Standalone, the commit is that epoch, and
  // Reset promotes.
  Status Reset();
  Status Promote();

  LogHead head() const { return {generation_, sequence_, chain_mac_}; }
  // Bytes appended to the log file (header + frames), tracked so the
  // compactor can bound log growth without stat() calls.
  uint64_t log_bytes() const { return log_bytes_.load(std::memory_order_relaxed); }
  // Records appended since the last commit.
  uint64_t pending() const { return uncommitted_; }

  // Standalone: replays the log prefix its newest epoch names into `store`
  // (EpochLog::Recover, then ReplayPrefix). kRollbackDetected for a stale
  // log or epoch, kIntegrityFailure for a tampered or reordered record
  // inside the prefix, kNotFound with neither an epoch nor a log.
  static Status Replay(const sgx::SealingService& sealer,
                       sgx::MonotonicCounterService& counters, const OpLogOptions& options,
                       kv::KeyValueStore& store);
  // Applies exactly the first head.sequence records of the log file at
  // `path` (or its unpromoted `.next`) to `store` (nullptr: check only).
  // kRollbackDetected unless the file holds `head`; kIntegrityFailure on a
  // tampered record inside the prefix.
  static Status ReplayPrefix(const sgx::SealingService& sealer, const std::string& path,
                             const LogHead& head, kv::KeyValueStore* store);

 private:
  Status AppendMutation(uint8_t op, std::string_view key, std::string_view value);
  // Makes `path` a durable file holding only the header.
  Status CreateFile(const std::string& path);
  // Brings the log-bytes gauges up to log_bytes_ (Open, commit, Reset).
  void PublishLogBytes();

  const sgx::SealingService& sealer_;
  std::string path_;                     // the log file
  std::unique_ptr<EpochLog> epoch_log_;  // standalone only
  uint64_t epoch_ = 0;                   // standalone: the counter value bumped last
  FILE* file_ = nullptr;
  uint64_t generation_ = 0;  // new at every Reset; seeds the chain
  crypto::Mac chain_mac_{};  // MAC of the previous record
  uint64_t sequence_ = 0;
  uint64_t uncommitted_ = 0;
  // Atomic so the compactor reads it without the shard lock.
  std::atomic<uint64_t> log_bytes_{0};
  int64_t published_log_bytes_ = 0;  // this log's share of wal.log_bytes
  // Registry handles cached at construction (OpLogOptions::metrics). The
  // log-bytes gauges update only at open/commit/reset cadence, never per
  // append.
  obs::Counter* records_ = nullptr;          // wal.records
  obs::Counter* commits_ = nullptr;          // wal.commits
  obs::Counter* fsyncs_ = nullptr;           // wal.fsyncs
  obs::Gauge* log_bytes_gauge_ = nullptr;    // wal.log_bytes, summed over logs
  obs::Histogram* fsync_latency_ = nullptr;  // wal.fsync_ns
  obs::Counter* shard_records_ = nullptr;    // wal.shard<i>.records
  obs::Gauge* shard_log_bytes_ = nullptr;    // wal.shard<i>.log_bytes
};

// A WAL's epochs: `<wal path>.epoch` plus the WAL's one counter.
// The file is a header (magic, counter id) and two fixed slots; the record
// for value v (sealed, AAD the counter id) lives in slot v % 2, so the file
// holds the two newest. A record is fsync'd BEFORE the counter is bumped to
// its value, and is never rewritten once its bump began.
//
// Recover chooses the newest record at most live+1 whose every shard head
// the shard files hold: at live+1 it completes the lost bump (roll
// forward); below live, or with none, it is kRollbackDetected. Records
// further ahead, or that a shard file does not hold, were never acked. It is
// the one roll-forward rule for every log, sharded or standalone.
class EpochLog {
 public:
  EpochLog(const sgx::SealingService& sealer, sgx::MonotonicCounterService& counters,
           std::string wal_path);
  ~EpochLog();
  EpochLog(const EpochLog&) = delete;
  EpochLog& operator=(const EpochLog&) = delete;

  // Recover, or — with no epoch file and no shard log — create the file,
  // its counter and epoch 0 (no shards).
  Result<Epoch> Open();
  Status Write(const Epoch& epoch);  // seal into its slot + fsync
  Status Bump(uint64_t value);       // the counter must land on `value`

  // Read-only apart from the roll forward. With no valid epoch: kNotFound
  // if no shard log exists either, else kUnsupported naming the shard log
  // (a release before counter epochs, or the epoch file removed).
  static Result<Epoch> Recover(const sgx::SealingService& sealer,
                               sgx::MonotonicCounterService& counters,
                               const std::string& wal_path, uint32_t* counter_id = nullptr);
  static std::string ShardPath(const std::string& wal_path, size_t shard) {
    return wal_path + ".p" + std::to_string(shard);
  }

 private:
  const sgx::SealingService& sealer_;
  sgx::MonotonicCounterService& counters_;
  std::string wal_path_;
  int fd_ = -1;
  uint32_t counter_id_ = 0;
};

}  // namespace shield::shieldstore

#endif  // SHIELDSTORE_SRC_SHIELDSTORE_OPLOG_H_
