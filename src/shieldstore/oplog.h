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
//  * the monotonic counter is bumped once per GROUP COMMIT, amortizing its
//    cost over `group_commit_ops` operations (the counter-service cost knob
//    models either the slow SGX counter or a fast ROTE-style one);
//  * recovery = snapshot + replay of the committed log suffix; a replayed
//    stale log (or one from a different epoch) fails the counter check.
//
// One OperationLog is one append-only file. The sharded WriteAheadStore
// (selfheal.h) runs one log per partition group; this class stays
// single-file and externally synchronized (callers hold their shard lock).
//
// Two commit disciplines, selected by the caller:
//  * LogSet/LogDelete auto-commit every `group_commit_ops` records — the
//    original cadence, where an ack means "logged", not "fsync'd";
//  * AppendSet/AppendDelete never commit; the caller batches explicitly via
//    CommitPrepare() (commit record + flush to the OS, under the caller's
//    lock) followed by CommitSync() (the fsync and then the counter bump,
//    safe to run after dropping the lock so concurrent appends land in the
//    next group). The sharded WAL's per-shard committer thread drives this
//    split; writers only append.
//
// This module is an EXTENSION beyond the paper's implementation; the
// evaluation figures never enable it.
#ifndef SHIELDSTORE_SRC_SHIELDSTORE_OPLOG_H_
#define SHIELDSTORE_SRC_SHIELDSTORE_OPLOG_H_

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "src/sgx/counter.h"
#include "src/sgx/seal.h"
#include "src/shieldstore/store.h"

namespace shield::shieldstore {

// One mutation as shipped to a replica: the resulting state (value for
// set-like ops, tombstone for delete), exactly what the WAL records — replay
// on the standby is therefore as deterministic as local log replay.
struct ReplicatedOp {
  bool is_delete = false;
  std::string key;
  std::string value;
};

// Cross-process replication hook. The WriteAheadStore's per-shard committer
// calls ShipCommitted AFTER its group is fsync'd and BEFORE any writer in the
// group is acknowledged — so with a healthy sink, acked ⇒ logged ∧ shipped.
// `first_seq` numbers entries in a per-shard ship-sequence space that is
// monotone across compactions (unlike the WAL's own record sequence, which
// resets when a shard log is truncated); a sink resumes a reconnected
// follower from its watermark in this space.
//
// Called outside the shard lock (one in-flight call per shard, but shards
// ship concurrently), so implementations must be thread-safe and should
// buffer-and-return rather than block forever: a slow sink stalls that
// shard's acks, which is the synchronous-replication contract, but a DEAD
// sink must fail fast so the primary can keep serving (the invariant then
// degrades to acked ⇒ logged ∧ recoverable-from-local-WAL).
class ReplicationSink {
 public:
  virtual ~ReplicationSink() = default;
  virtual Status ShipCommitted(size_t shard, uint64_t first_seq,
                               std::vector<ReplicatedOp> ops) = 0;
};

struct OpLogOptions {
  std::string path;              // log file (shard i of a sharded WAL appends ".p<i>")
  size_t group_commit_ops = 64;  // counter bump + fsync cadence

  // --- knobs interpreted by the sharded WriteAheadStore (selfheal.h) ---

  // Log shards. 0 = one shard per partition (the scalable default: writers
  // to different partitions never contend); 1 reproduces the PR 2 single
  // global log; k < partitions maps partition p to shard p % k.
  size_t num_shards = 0;
  // Group-commit window in microseconds. 0 = the legacy auto-commit
  // discipline (ack ⇒ logged; fsync every group_commit_ops records). > 0 =
  // durable acks: a mutation is acknowledged only once its record is
  // fsync'd and counter-bumped, and the shard's committer batches every
  // record that arrives within the window (or until group_commit_ops
  // accumulate, whichever first) into one counter-bump + fsync.
  uint32_t group_commit_window_us = 0;
  // SIMULATED MULTICORE (see bench/harness.h): queueing-delay multiplier
  // charged for the time a shard's lock is held, modelling n workers
  // saturating one shard. 1 = off (real deployments).
  size_t virtual_contention = 1;
  // Threads RestoreFromDisk uses to replay the shard logs, one log per
  // thread at a time. 0 = auto (bounded by the hardware); 1 = sequential.
  size_t replay_threads = 0;

  // Observability: registry receiving the WAL-append / commit-wait stage
  // histograms and the group-commit batch-size distribution (interpreted by
  // WriteAheadStore), plus the log's own shard-local metrics (interpreted
  // here: wal.fsync_ns and wal.counter_bump_ns latencies, and per-shard
  // record/size series when shard_index >= 0). nullptr uses
  // obs::Registry::Global().
  obs::Registry* metrics = nullptr;
  // Which WAL shard this log backs; >= 0 registers wal.shard<i>.records and
  // wal.shard<i>.log_bytes under `metrics`. -1 (standalone logs, replay-only
  // options) registers no per-shard series.
  int shard_index = -1;
};

class OperationLog {
 public:
  // `sealer` protects record confidentiality/integrity (bound to the
  // enclave measurement); `counters` provides rollback protection at group
  // commit granularity.
  OperationLog(const sgx::SealingService& sealer, sgx::MonotonicCounterService& counters,
               const OpLogOptions& options);
  ~OperationLog();

  OperationLog(const OperationLog&) = delete;
  OperationLog& operator=(const OperationLog&) = delete;

  // Opens (creating or appending). Must be called before logging.
  Status Open();

  // Logs one mutation. Auto-commits every group_commit_ops records.
  Status LogSet(std::string_view key, std::string_view value);
  Status LogDelete(std::string_view key);

  // Batched-commit discipline: append without any commit side effect. The
  // caller owns the commit cadence (see the committer split above).
  Status AppendSet(std::string_view key, std::string_view value);
  Status AppendDelete(std::string_view key);

  // Forces a group commit (counter bump + flush + fsync).
  Status Commit();
  // The two halves of Commit(), split so a committer can run the fsync and
  // the counter bump outside its shard lock: Prepare appends the commit
  // record (carrying the counter's next value) and flushes it to the OS
  // (must run under the caller's lock); Sync fsyncs the file descriptor,
  // then bumps the counter (touches no chain state, so concurrent
  // AppendRecord/fflush through the same FILE* must still be excluded by
  // the caller — only Sync itself is lock-free-safe).
  Status CommitPrepare();
  Status CommitSync();

  // Truncates the log (after a successful snapshot subsumes it).
  Status Reset();

  uint64_t records_logged() const { return records_logged_.load(std::memory_order_relaxed); }
  uint64_t commits() const { return commits_.load(std::memory_order_relaxed); }
  uint64_t fsyncs() const { return fsyncs_.load(std::memory_order_relaxed); }
  // Bytes appended to the log file (header + frames), tracked so the
  // compactor can bound log growth without stat() calls.
  uint64_t log_bytes() const { return log_bytes_.load(std::memory_order_relaxed); }
  // Records appended since the last commit.
  uint64_t pending() const { return uncommitted_; }

  // Replays the committed prefix of the log into `store`, newest state
  // winning. Fails with kIntegrityFailure on any tampering / reordering /
  // mid-chain truncation, and kRollbackDetected when the final commit's
  // counter value does not match the live counter. A missing or empty log
  // is kNotFound (callers treat it as "nothing to replay").
  static Status Replay(const sgx::SealingService& sealer,
                       sgx::MonotonicCounterService& counters, const OpLogOptions& options,
                       kv::KeyValueStore& store);

 private:
  Status AppendRecord(uint8_t op, std::string_view key, std::string_view value);

  const sgx::SealingService& sealer_;
  sgx::MonotonicCounterService& counters_;
  OpLogOptions options_;
  FILE* file_ = nullptr;
  int32_t counter_id_ = -1;
  crypto::Mac chain_mac_{};  // MAC of the previous record (zero at start)
  uint64_t sequence_ = 0;
  uint64_t uncommitted_ = 0;
  uint64_t pending_commit_value_ = 0;  // value CommitPrepare wrote, pre-bump
  // The counter's live value as of this log's last commit; re-read from the
  // service after Open or a failed commit (see CommitPrepare).
  uint64_t counter_value_ = 0;
  bool counter_known_ = false;
  // Stats are atomics so WalStats reads never take the shard lock.
  std::atomic<uint64_t> records_logged_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> log_bytes_{0};
  // Registry handles cached at construction (OpLogOptions::metrics). The
  // log-bytes gauge updates only at commit/reset cadence, never per append.
  obs::Histogram* fsync_latency_ = nullptr;  // wal.fsync_ns
  obs::Histogram* counter_bump_latency_ = nullptr;  // wal.counter_bump_ns
  obs::Counter* shard_records_ = nullptr;    // wal.shard<i>.records
  obs::Gauge* shard_log_bytes_ = nullptr;    // wal.shard<i>.log_bytes
};

}  // namespace shield::shieldstore

#endif  // SHIELDSTORE_SRC_SHIELDSTORE_OPLOG_H_
