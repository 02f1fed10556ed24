#include "src/shieldstore/selfheal.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <thread>
#include <utility>

#include "src/common/cycles.h"
#include "src/common/logging.h"
#include "src/obs/audit.h"
#include "src/obs/snapshot.h"
#include "src/obs/tracer.h"

namespace shield::shieldstore {
namespace {

// Charges the queueing delay of (n-1) simulated contenders for the time a
// shard's lock was held (see OpLogOptions::virtual_contention and
// bench/harness.h "SIMULATED MULTICORE"). Must be constructed AFTER
// acquiring the lock: only lock-held service time queues n-fold.
class ContentionScope {
 public:
  explicit ContentionScope(size_t contenders)
      : contenders_(contenders), start_(contenders > 1 ? ReadCycleCounter() : 0) {}
  ~ContentionScope() {
    if (contenders_ > 1) {
      SpinCycles((ReadCycleCounter() - start_) * (contenders_ - 1));
    }
  }

 private:
  size_t contenders_;
  uint64_t start_;
};

}  // namespace

WriteAheadStore::MaintenanceLock::MaintenanceLock(Shard& s) : shard_(s) {
  shard_.maintenance.fetch_add(1, std::memory_order_acq_rel);
  lock_ = std::unique_lock<std::mutex>(shard_.mutex);
}

WriteAheadStore::MaintenanceLock::~MaintenanceLock() {
  if (lock_.owns_lock()) {
    lock_.unlock();
  }
  shard_.maintenance.fetch_sub(1, std::memory_order_acq_rel);
}

bool WriteAheadStore::LockForCommit(Shard& s, std::unique_lock<std::mutex>& lock) {
  // Writers hold the lock for one batch, so wait them out; a maintenance
  // hold (compaction, recovery) can last long, and the caller would keep
  // every other shard's commits waiting behind its turn meanwhile.
  while (!lock.try_lock()) {
    if (s.maintenance.load(std::memory_order_acquire) > 0) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

WriteAheadStore::WriteAheadStore(PartitionedStore& inner, const sgx::SealingService& sealer,
                                 sgx::MonotonicCounterService& counters,
                                 const OpLogOptions& options)
    : inner_(inner), sealer_(sealer), counters_(counters), options_(options) {
  metrics_ = options_.metrics != nullptr ? options_.metrics : &obs::Registry::Global();
  commit_batch_hist_ = &metrics_->GetHistogram("wal.commit_batch_ops");
  group_commits_ = &metrics_->GetCounter("wal.group_commits");
  compacted_bytes_ = &metrics_->GetCounter("wal.compacted_bytes");
  window_gauge_ = &metrics_->GetGauge("wal.window_us");
  window_gauge_->Set(static_cast<int64_t>(options_.group_commit_window_us));
  BuildShards();
  // Direct Repartition() would re-route keys without re-splitting the shard
  // logs, silently corrupting recovery; force callers through our facade.
  inner_.PinLayout(true);
}

WriteAheadStore::~WriteAheadStore() {
  StopCommitters();
  inner_.PinLayout(false);
}

void WriteAheadStore::BuildShards(uint64_t first_seq) {
  const size_t parts = std::max<size_t>(inner_.num_partitions(), 1);
  size_t n = options_.num_shards == 0 ? parts : std::min(options_.num_shards, parts);
  n = std::max<size_t>(n, 1);
  shards_.clear();
  for (size_t i = 0; i < n; ++i) {
    OpLogOptions per_shard = options_;
    per_shard.path = options_.path + ".p" + std::to_string(i);
    per_shard.shard_index = static_cast<int>(i);
    auto s = std::make_unique<Shard>(std::move(per_shard));
    s->index = i;
    s->appended = s->durable = first_seq;
    s->window_us.store(options_.group_commit_window_us, std::memory_order_relaxed);
    const std::string prefix = "wal.shard" + std::to_string(i) + ".";
    s->ctr_appends = &metrics_->GetCounter(prefix + "appends");
    s->ctr_commit_waits = &metrics_->GetCounter(prefix + "commit_waits");
    s->ctr_compactions = &metrics_->GetCounter(prefix + "compactions");
    shards_.push_back(std::move(s));
  }
  watch_.Reset(n, first_seq);
}

void WriteAheadStore::SetReplicationSink(ReplicationSink* sink) {
  sink_.store(sink, std::memory_order_release);
}

void WriteAheadStore::ShipLocked(Shard& s) {
  if (s.pending_ship.empty()) {
    return;
  }
  ReplicationSink* sink = sink_.load(std::memory_order_acquire);
  if (sink == nullptr) {
    s.pending_ship.clear();  // sink detached mid-flight: nothing to resume
    return;
  }
  std::vector<ReplicatedOp> ops = std::move(s.pending_ship);
  s.pending_ship.clear();
  const uint64_t first = s.ship_seq + 1;
  const size_t n = ops.size();
  s.ship_seq += n;
  if (sink->ShipCommitted(s.index, first, std::move(ops)).ok()) {
    shipped_records_.fetch_add(n, std::memory_order_relaxed);
  } else {
    ship_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

Status WriteAheadStore::Open() {
  std::unique_lock<std::shared_mutex> structure(structure_mutex_);
  StopCommitters();
  Status opened;
  for (auto& shard_ptr : shards_) {
    Shard& s = *shard_ptr;
    // A crashed Repartition() may have left a dump twin behind.
    std::remove((s.options.path + ".tmp").c_str());
    // A reopened log commits its predecessor's tail on destruction, so the
    // sequence space carries on from `appended` with nothing pending.
    s.log = std::make_unique<OperationLog>(sealer_, counters_, s.options);
    s.durable = s.appended;
    s.committing = false;
    s.failed = Status::Ok();
    if (opened = s.log->Open(); !opened.ok()) {
      break;
    }
  }
  watch_.Reset(shards_.size(), 0);
  for (auto& shard_ptr : shards_) {
    watch_.Publish(shard_ptr->index, shard_ptr->durable);
  }
  StartCommitters();
  return opened;
}

Status WriteAheadStore::AppendLocked(Shard& s, bool is_delete, std::string_view key,
                                     std::string_view value) {
  if (s.log == nullptr) {
    return Status(Code::kInvalidArgument, "log not open");
  }
  obs::ScopedStage stage(metrics_, obs::Stage::kWalAppend);
  obs::TraceScope span("wal.append");
  if (options_.group_commit_window_us == 0) {
    // Legacy cadence: ack ⇒ logged; the log fsyncs itself every
    // group_commit_ops records.
    Status st = is_delete ? s.log->LogDelete(key) : s.log->LogSet(key, value);
    if (st.ok()) {
      s.ctr_appends->Inc();
      if (sink_.load(std::memory_order_acquire) != nullptr) {
        // No committer runs in this mode to drain the buffer later, so ship
        // each record under the lock, right behind its append.
        s.pending_ship.push_back({is_delete, std::string(key), std::string(value)});
        ShipLocked(s);
      }
    }
    return st;
  }
  if (s.appended == s.durable && !s.committing) {
    s.batch_start = std::chrono::steady_clock::now();
  }
  if (Status st = is_delete ? s.log->AppendDelete(key) : s.log->AppendSet(key, value);
      !st.ok()) {
    return st;
  }
  ++s.appended;
  s.ctr_appends->Inc();
  if (sink_.load(std::memory_order_acquire) != nullptr) {
    // Captured now, shipped by the committer once the record's group
    // fsyncs — the record order in pending_ship is the shard's apply order.
    s.pending_ship.push_back({is_delete, std::string(key), std::string(value)});
    // The committer has no trace of its own: a sampled writer's context
    // rides along so the ship (and the follower's apply) join its trace.
    if (const obs::TraceContext trace = obs::CurrentTrace(); trace.active()) {
      s.ship_trace = trace;
    }
  }
  // The committer's two wake conditions: a group opened, or it filled up
  // (it may then close the window early).
  const uint64_t pending = s.appended - s.durable;
  if (pending == 1 || pending == options_.group_commit_ops) {
    s.commit_cv.notify_one();
  }
  return Status::Ok();
}

void WriteAheadStore::StartCommitters() {
  if (options_.group_commit_window_us == 0) {
    return;  // legacy cadence: the log commits inline, nothing to drive
  }
  for (auto& shard_ptr : shards_) {
    Shard& s = *shard_ptr;
    {
      std::lock_guard<std::mutex> lock(s.mutex);
      s.stop = false;
    }
    s.committer = std::thread([this, &s] { CommitterLoop(s); });
  }
}

void WriteAheadStore::StopCommitters() {
  for (auto& shard_ptr : shards_) {
    Shard& s = *shard_ptr;
    if (!s.committer.joinable()) {
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(s.mutex);
      s.stop = true;
    }
    s.commit_cv.notify_all();
    s.committer.join();
  }
}

void WriteAheadStore::CommitterLoop(Shard& s) {
  std::unique_lock<std::mutex> lock(s.mutex);
  for (;;) {
    s.commit_cv.wait(lock, [&] { return s.stop || (s.appended > s.durable && s.failed.ok()); });
    if (s.appended == s.durable || !s.failed.ok()) {
      return;  // stopping with nothing (more) that can be committed
    }
    // The monotonic counter serializes every bump, so a group closed while
    // another shard of this WAL is mid-commit would only sit frozen behind
    // it. Take the WAL's commit turn first (first come, first served) —
    // without the shard lock, so writers never queue behind another shard's
    // commit.
    CommitTurn turn(*this);
    auto window_from = s.batch_start;
    const bool contended = !turn.TryTake();
    if (contended) {
      lock.unlock();
      turn.Wait();
      if (!LockForCommit(s, lock)) {
        // Under maintenance: pass the turn on and queue again.
        turn.Pass();
        lock.lock();
        continue;
      }
      // The turn came free at a publish that just released other callers'
      // held responses; their follow-up requests get the configured window
      // to join — arrivals are not sparse here, whatever the adaptive window
      // learned from solo commits.
      window_from = std::max(window_from, std::chrono::steady_clock::now());
    }
    if (!s.stop) {
      // Wait out the window (or a full batch). Uncontended, it is the
      // shard's ADAPTIVE window: sized down when arrivals are sparse (a solo
      // writer should not idle out the configured cap for nobody), back up
      // toward the cap under bursts (bigger batches, fewer fsyncs and
      // counter bumps).
      const uint32_t window_us = contended ? options_.group_commit_window_us
                                           : s.window_us.load(std::memory_order_relaxed);
      const auto deadline = window_from + std::chrono::microseconds(window_us);
      s.commit_cv.wait_until(lock, deadline, [&] {
        return s.stop || !s.failed.ok() || s.appended - s.durable >= options_.group_commit_ops;
      });
    }
    // A maintenance commit may have taken the group while the lock was free.
    if (s.appended > s.durable && s.failed.ok()) {
      CommitGroupLocked(s, lock, /*adapt_window=*/!contended);
    }
  }
}

WriteAheadStore::CommitTurn::CommitTurn(WriteAheadStore& wal) : wal_(wal) {
  std::lock_guard<std::mutex> lock(wal_.turn_mutex_);
  ticket_ = wal_.turn_next_++;
}

WriteAheadStore::CommitTurn::~CommitTurn() { Pass(); }

void WriteAheadStore::CommitTurn::Pass() {
  if (passed_) {
    return;
  }
  passed_ = true;
  {
    std::lock_guard<std::mutex> lock(wal_.turn_mutex_);
    ++wal_.turn_serving_;
  }
  wal_.turn_cv_.notify_all();
}

bool WriteAheadStore::CommitTurn::TryTake() {
  std::lock_guard<std::mutex> lock(wal_.turn_mutex_);
  return wal_.turn_serving_ == ticket_;
}

void WriteAheadStore::CommitTurn::Wait() {
  std::unique_lock<std::mutex> lock(wal_.turn_mutex_);
  wal_.turn_cv_.wait(lock, [&] { return wal_.turn_serving_ == ticket_; });
}

void WriteAheadStore::CommitGroupLocked(Shard& s, std::unique_lock<std::mutex>& lock,
                                        bool adapt_window) {
  // The commit record goes in under the lock; the fsync, the counter bump
  // and the ship run with it RELEASED so writers append into the next group
  // meanwhile. `committing` keeps maintenance commits out until this one
  // has published.
  s.committing = true;
  const uint64_t upto = s.appended;
  Status st = s.log->CommitPrepare();
  if (st.ok()) {
    // Steal the replication buffer while still under the lock: the lock was
    // held continuously since `upto` was read, so the buffer holds exactly
    // the records this commit covers. Ship-seqs are assigned here, under the
    // lock, so the per-shard stream stays contiguous; the ship itself runs
    // outside the lock — but strictly before `durable` advances, which is
    // what makes every ack in the group "fsync'd AND shipped".
    std::vector<ReplicatedOp> to_ship;
    uint64_t ship_first = 0;
    const obs::TraceContext ship_trace = std::exchange(s.ship_trace, {});
    if (sink_.load(std::memory_order_acquire) != nullptr && !s.pending_ship.empty()) {
      to_ship = std::move(s.pending_ship);
      s.pending_ship.clear();
      ship_first = s.ship_seq + 1;
      s.ship_seq += to_ship.size();
    } else {
      s.pending_ship.clear();  // sink detached: drop, nothing to resume
    }
    lock.unlock();
    st = s.log->CommitSync();
    if (!to_ship.empty()) {
      obs::TraceScope span("wal.group_commit", ship_trace);
      // Ship even if the fsync failed: the seqs are already claimed, the
      // mutations DID apply in memory, and a follower running ahead of a
      // latched-dead primary is harmless — a gap in the stream is not.
      ReplicationSink* sink = sink_.load(std::memory_order_acquire);
      const size_t n = to_ship.size();
      if (sink != nullptr && sink->ShipCommitted(s.index, ship_first,
                                                 std::move(to_ship)).ok()) {
        shipped_records_.fetch_add(n, std::memory_order_relaxed);
      } else {
        // Sink rejected (or vanished): the invariant degrades to acked ⇒
        // logged ∧ recoverable-from-local-WAL; the primary keeps serving.
        ship_failures_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    lock.lock();
  }
  s.committing = false;
  if (st.ok()) {
    // (upto - durable) records just became durable for one counter bump +
    // fsync: the amortization the batch-size histogram exists to show.
    const uint64_t batch = upto - s.durable;
    group_commits_->Inc();
    commit_batch_hist_->Record(batch);
    // Adapt the window to the observed batch: a full batch means writers
    // queued behind the cadence (grow toward the cap, ×2), a near-empty one
    // means the window outlived the arrivals (shrink, ÷2, floored at cap/16
    // so a burst can climb back within a few commits).
    const uint32_t cap = options_.group_commit_window_us;
    const uint32_t floor_us = std::max<uint32_t>(cap / 16, 1);
    const uint32_t w = s.window_us.load(std::memory_order_relaxed);
    uint32_t next_w = w;
    if (batch >= options_.group_commit_ops) {
      next_w = std::min<uint32_t>(cap, w * 2);
    } else if (batch <= 2) {
      next_w = std::max<uint32_t>(floor_us, w / 2);
    }
    if (adapt_window && next_w != w) {
      s.window_us.store(next_w, std::memory_order_relaxed);
      window_gauge_->Set(static_cast<int64_t>(next_w));
    }
    s.durable = std::max(s.durable, upto);
    if (s.appended > s.durable) {
      // Records that arrived during the fsync open the next window now.
      s.batch_start = std::chrono::steady_clock::now();
    }
  } else {
    // A failed commit leaves durability unknowable for every record at or
    // beyond this group: latch the shard so nothing further is acked.
    s.failed = st;
  }
  s.durable_cv.notify_all();
  // Held responses are released by the watch's subscribers (reactor loops),
  // which must not run under the shard lock.
  const uint64_t durable = s.durable;
  lock.unlock();
  if (st.ok()) {
    watch_.Publish(s.index, durable);
  } else {
    watch_.Latch(s.index, st);
  }
  lock.lock();
}

void WriteAheadStore::LatchLocked(Shard& s, const Status& failure) {
  s.failed = failure;
  s.durable_cv.notify_all();
  s.commit_cv.notify_all();
  watch_.Latch(s.index, failure);
}

Status WriteAheadStore::AwaitDurable(Shard& s, uint64_t seq) {
  obs::ScopedStage stage(metrics_, obs::Stage::kCommitWait);
  obs::TraceScope span("wal.commit_wait");
  std::unique_lock<std::mutex> lock(s.mutex);
  if (s.durable < seq) {
    s.ctr_commit_waits->Inc();
  }
  s.durable_cv.wait(lock, [&] { return s.durable >= seq || !s.failed.ok(); });
  return s.durable >= seq ? Status::Ok() : s.failed;
}

std::vector<kv::BatchOpResult> WriteAheadStore::SubmitBatch(
    const std::vector<kv::BatchOp>& ops, kv::DurabilityRequirement& requirement) {
  std::shared_lock<std::shared_mutex> structure(structure_mutex_);
  return SubmitLocked(ops, requirement);
}

std::vector<kv::BatchOpResult> WriteAheadStore::ExecuteBatch(
    const std::vector<kv::BatchOp>& ops) {
  std::shared_lock<std::shared_mutex> structure(structure_mutex_);
  kv::DurabilityRequirement requirement;
  std::vector<kv::BatchOpResult> results = SubmitLocked(ops, requirement);
  for (const auto& [sh, seq] : requirement.shards) {
    if (Status st = AwaitDurable(shard(sh), seq); !st.ok()) {
      // The shard latched first: nothing this batch saw or wrote there is
      // durable, so none of it may be reported as a success.
      for (size_t i = 0; i < ops.size(); ++i) {
        if (results[i].status.ok() && ShardOfLocked(inner_.PartitionOf(ops[i].key)) == sh) {
          results[i].status = st;
        }
      }
    }
  }
  return results;
}

std::vector<kv::BatchOpResult> WriteAheadStore::SubmitLocked(
    const std::vector<kv::BatchOp>& ops, kv::DurabilityRequirement& requirement) {
  requirement.shards.clear();
  std::vector<kv::BatchOpResult> results(ops.size());
  const bool durable_acks = options_.group_commit_window_us != 0;
  // Group op indices by shard, preserving original order within a group —
  // a key maps to one partition, a partition to one shard, so per-key order
  // survives the grouping and the replay invariant (each log's record order
  // is its partitions' apply order) holds per partition within the group.
  std::vector<std::vector<size_t>> groups(shards_.size());
  std::vector<size_t> mutations(shards_.size(), 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    const size_t sh = ShardOfLocked(inner_.PartitionOf(ops[i].key));
    groups[sh].push_back(i);
    if (ops[i].type != kv::BatchOpType::kGet) {
      ++mutations[sh];
    }
  }
  // A touched shard's results depend on every record it had appended: its
  // own mutations, and whatever its gets could have observed. A latched
  // shard's gets are served against its durable watermark, requiring nothing.
  const auto require_appended = [&](Shard& s, size_t sh) {
    if (durable_acks && s.failed.ok() && s.appended > s.durable) {
      requirement.Require(static_cast<uint32_t>(sh), s.appended);
    }
  };
  std::vector<kv::BatchOp> sub_ops;
  std::vector<kv::BatchOpResult> sub_results;
  for (size_t sh = 0; sh < groups.size(); ++sh) {
    if (groups[sh].empty()) {
      continue;
    }
    sub_ops.clear();
    for (const size_t i : groups[sh]) {
      sub_ops.push_back(ops[i]);
    }
    Shard& s = shard(sh);
    if (mutations[sh] == 0) {
      // Read-only group: nothing to log, so it runs outside the shard lock.
      sub_results = inner_.ExecuteBatch(sub_ops);
      for (size_t j = 0; j < groups[sh].size(); ++j) {
        results[groups[sh][j]] = std::move(sub_results[j]);
      }
      if (durable_acks) {
        // Taken AFTER the reads: a writer holds the lock from its apply to
        // its append, so any value these gets saw is covered by `appended`.
        std::lock_guard<std::mutex> lock(s.mutex);
        require_appended(s, sh);
      }
      continue;
    }
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.failed.ok()) {
      // Durability can no longer be promised on this shard: fail its
      // mutations fast, but still serve its reads through the inner store.
      for (const size_t i : groups[sh]) {
        if (ops[i].type == kv::BatchOpType::kGet) {
          results[i] = kv::ExecuteSingleOp(inner_, ops[i]);
        } else {
          results[i].status = s.failed;
        }
      }
      continue;
    }
    {
      ContentionScope contention(options_.virtual_contention);
      sub_results = inner_.ExecuteBatch(sub_ops);
      // Append a record for every mutation that applied, in apply order,
      // under the SAME lock hold — acked ⇒ logged, batch-wide.
      Status append_failed;
      for (size_t j = 0; j < groups[sh].size(); ++j) {
        const size_t i = groups[sh][j];
        results[i] = std::move(sub_results[j]);
        const kv::BatchOp& op = ops[i];
        if (op.type == kv::BatchOpType::kGet || !results[i].status.ok()) {
          continue;  // nothing applied (or a read): nothing to log
        }
        if (!append_failed.ok()) {
          // An earlier record failed to append; this op DID apply but its
          // durability is unknowable, so it must not be acked.
          results[i].status = append_failed;
          continue;
        }
        // Log resulting state, not the computation (replay determinism).
        const bool is_delete = op.type == kv::BatchOpType::kDelete;
        const std::string_view logged =
            op.type == kv::BatchOpType::kSet ? std::string_view(op.value)
            : is_delete                      ? std::string_view()
                                             : std::string_view(results[i].value);
        if (Status st = AppendLocked(s, is_delete, op.key, logged); !st.ok()) {
          append_failed = st;
          results[i].status = st;
        }
      }
    }
    require_appended(s, sh);
  }
  return results;
}

Status WriteAheadStore::CommitShardLocked(Shard& s, std::unique_lock<std::mutex>& lock) {
  if (s.log == nullptr) {
    return Status(Code::kInvalidArgument, "log not open");
  }
  s.durable_cv.wait(lock, [&] { return !s.committing; });
  if (!s.failed.ok()) {
    return s.failed;
  }
  if (Status st = s.log->Commit(); !st.ok()) {
    LatchLocked(s, st);
    return st;
  }
  // A maintenance commit durable-izes records the committer will then find
  // already done; ship them under the lock (rare path: heal/compact/
  // repartition windows).
  ShipLocked(s);
  s.durable = s.appended;
  s.durable_cv.notify_all();
  watch_.Publish(s.index, s.durable);
  return Status::Ok();
}

Status WriteAheadStore::WithCommittedShard(size_t shard_index,
                                           const std::function<Status()>& fn) {
  std::shared_lock<std::shared_mutex> structure(structure_mutex_);
  if (shard_index >= shards_.size()) {
    return Status(Code::kInvalidArgument, "no such shard");
  }
  Shard& s = shard(shard_index);
  MaintenanceLock hold(s);
  std::unique_lock<std::mutex>& lock = hold.lock();
  if (Status st = CommitShardLocked(s, lock); !st.ok()) {
    return st;
  }
  return fn();
}

Status WriteAheadStore::WithCommittedLog(const std::function<Status()>& fn) {
  std::shared_lock<std::shared_mutex> structure(structure_mutex_);
  // Lock every shard in index order (the one ordering everywhere, so no
  // deadlock) and commit each; `fn` then sees the whole store drained.
  std::deque<MaintenanceLock> holds;
  for (auto& shard_ptr : shards_) {
    holds.emplace_back(*shard_ptr);
    if (Status st = CommitShardLocked(*shard_ptr, holds.back().lock()); !st.ok()) {
      return st;
    }
  }
  return fn();
}

Status WriteAheadStore::CompactShard(size_t shard_index, const std::string& directory,
                                     CompactionCrash crash) {
  std::shared_lock<std::shared_mutex> structure(structure_mutex_);
  if (shard_index >= shards_.size()) {
    return Status(Code::kInvalidArgument, "no such shard");
  }
  Shard& s = shard(shard_index);
  MaintenanceLock hold(s);
  std::unique_lock<std::mutex>& lock = hold.lock();
  const size_t parts = inner_.num_partitions();
  for (size_t p = shard_index; p < parts; p += shards_.size()) {
    if (inner_.IsQuarantined(p)) {
      // The in-memory state is untrusted and the log suffix is exactly what
      // recovery will replay: leave both alone until the partition heals.
      return Status(Code::kPartitionRecovering,
                    "partition " + std::to_string(p) + " quarantined; compaction deferred");
    }
  }
  // 1. Commit: the log and the in-memory state now agree exactly.
  if (Status st = CommitShardLocked(s, lock); !st.ok()) {
    return st;
  }
  // 2. Fold each served partition into a fresh baseline. Crash anywhere
  // here: the log is untouched, so old-or-new baseline + full log replay
  // converge to the same state.
  if (inner_.persist_enabled()) {
    // Persist mode: the baseline is the arena, and the fold is an
    // INCREMENTAL checkpoint — dirty buckets + superblock, not a full
    // rewrite. The snapshot crash points have no analogue here (the arena
    // has its own plan/commit injection); kBeforeTruncate still applies.
    for (size_t p = shard_index; p < parts; p += shards_.size()) {
      if (Status st = inner_.CheckpointPartition(p, sealer_, counters_); !st.ok()) {
        return st;
      }
    }
  } else {
    Snapshotter::CrashPoint snap_crash = Snapshotter::CrashPoint::kNone;
    if (crash == CompactionCrash::kSnapshotTempWrite) {
      snap_crash = Snapshotter::CrashPoint::kAfterTempWrite;
    } else if (crash == CompactionCrash::kSnapshotRename) {
      snap_crash = Snapshotter::CrashPoint::kAfterRename;
    }
    for (size_t p = shard_index; p < parts; p += shards_.size()) {
      if (Status st = inner_.SnapshotPartition(p, sealer_, counters_, directory, snap_crash);
          !st.ok()) {
        return st;
      }
      snap_crash = Snapshotter::CrashPoint::kNone;  // injection is one-shot
    }
  }
  if (crash == CompactionCrash::kBeforeTruncate) {
    return Status(Code::kIoError, "injected crash before log truncate");
  }
  // 3. Truncate: the new generation subsumes everything the log held.
  compacted_bytes_->Inc(s.log->log_bytes());
  if (Status st = s.log->Reset(); !st.ok()) {
    LatchLocked(s, st);  // log state unknown: stop acking against this shard
    return st;
  }
  // `appended`/`durable` (and ship_seq) run on across the truncation: held
  // requirements and parked waiters name sequences in that space.
  s.ctr_compactions->Inc();
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status WriteAheadStore::ResetAllLogs() {
  std::shared_lock<std::shared_mutex> structure(structure_mutex_);
  for (auto& shard_ptr : shards_) {
    Shard& s = *shard_ptr;
    MaintenanceLock hold(s);
    std::unique_lock<std::mutex>& lock = hold.lock();
    if (Status st = CommitShardLocked(s, lock); !st.ok()) {
      return st;
    }
    if (Status st = s.log->Reset(); !st.ok()) {
      LatchLocked(s, st);
      return st;
    }
  }
  // Stale shard files beyond the current count (a previous, wider geometry)
  // and the legacy unsharded log are subsumed by the caller's snapshot.
  for (size_t i = shards_.size();; ++i) {
    const std::string stale = options_.path + ".p" + std::to_string(i);
    if (std::remove(stale.c_str()) != 0) {
      break;
    }
  }
  std::remove(options_.path.c_str());
  return Status::Ok();
}

std::vector<OpLogOptions> WriteAheadStore::ShardLogsOnDisk() const {
  std::vector<OpLogOptions> found;
  // Legacy single-file log first (a pre-sharding deployment being upgraded);
  // order does not affect convergence — see RestoreFromDisk — but oldest
  // first reads naturally.
  if (std::filesystem::exists(options_.path)) {
    OpLogOptions legacy = options_;
    found.push_back(std::move(legacy));
  }
  for (size_t i = 0;; ++i) {
    OpLogOptions per_shard = options_;
    per_shard.path = options_.path + ".p" + std::to_string(i);
    if (!std::filesystem::exists(per_shard.path)) {
      break;
    }
    found.push_back(std::move(per_shard));
  }
  return found;
}

Status WriteAheadStore::RestoreFromDisk(const std::string& snapshot_directory) {
  std::shared_lock<std::shared_mutex> structure(structure_mutex_);
  const auto restore_start = std::chrono::steady_clock::now();
  // heap.restart_ns records the whole baseline-plus-tail restore (the number
  // the persistent heap exists to shrink); set only on success.
  const auto finish = [&](Status st) {
    if (st.ok()) {
      metrics_->GetGauge("heap.restart_ns")
          .Set(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - restore_start)
                   .count());
    }
    return st;
  };
  if (inner_.persist_enabled()) {
    // Phase 1, persist mode: attach the mmap'd heap files. The sealed route
    // key must load FIRST — the files' chain placement was routed under it,
    // so a fresh per-boot key would misroute every replayed record. Attach
    // is O(1) in entry count (superblock + sealed metadata, no entry
    // decrypt); per-entry MACs re-verify lazily on first touch.
    if (Status st = inner_.LoadOrCreateRouteKey(sealer_); !st.ok()) {
      return st;
    }
    if (Status st = inner_.AttachPersistent(sealer_, counters_); !st.ok()) {
      return st;
    }
  } else if (Status st = inner_.RestoreSnapshots(sealer_, counters_, snapshot_directory);
             !st.ok()) {
    // Phase 1: every partition snapshot under the manifest's geometry,
    // applied through the facade (this boot's route key differs from the
    // snapshots').
    return st;
  }
  // Phase 2: the committed suffix of every log on disk, straight to the
  // inner store (not re-logged). Each partition's snapshot precedes its log
  // records because phase 1 ran first; logs never cross partitions, so any
  // inter-log order converges. kNotFound = empty/fresh log, nothing to do.
  const std::vector<OpLogOptions> logs = ShardLogsOnDisk();
  const auto replay_one = [&](const OpLogOptions& log) {
    Status st = OperationLog::Replay(sealer_, counters_, log, inner_);
    if (!st.ok() && st.code() != Code::kNotFound) {
      return Status(st.code(), "replaying " + log.path + ": " + st.message());
    }
    return Status::Ok();
  };
  size_t first_shard = 0;
  if (!logs.empty() && logs[0].path == options_.path) {
    // Legacy single-file log: predates the shard split, so it can hold any
    // key — replay it alone and first so shard records stay newest.
    if (Status st = replay_one(logs[0]); !st.ok()) {
      return st;
    }
    first_shard = 1;
  }
  // Shard logs of one epoch hold disjoint key sets, and cross-epoch
  // leftovers converge (each log's last record per key is that key's final
  // state) — so they can replay concurrently: the facade's partition locks
  // serialize same-key application, and differently-keyed records commute.
  const size_t pending = logs.size() - first_shard;
  size_t threads =
      options_.replay_threads == 0
          ? std::min<size_t>(std::max<size_t>(std::thread::hardware_concurrency(), 1), 8)
          : options_.replay_threads;
  threads = std::min(std::max<size_t>(threads, 1), pending);
  if (threads <= 1) {
    for (size_t i = first_shard; i < logs.size(); ++i) {
      if (Status st = replay_one(logs[i]); !st.ok()) {
        return st;
      }
    }
    return finish(Status::Ok());
  }
  std::atomic<size_t> next{first_shard};
  std::mutex error_mutex;
  Status first_error;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= logs.size()) {
          return;
        }
        if (Status st = replay_one(logs[i]); !st.ok()) {
          std::lock_guard<std::mutex> guard(error_mutex);
          if (first_error.ok()) {
            first_error = st;
          }
        }
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return finish(first_error);
}

Status WriteAheadStore::Repartition(size_t new_partitions,
                                    const std::function<Status()>& rebaseline) {
  new_partitions = std::max<size_t>(new_partitions, 1);
  std::unique_lock<std::shared_mutex> structure(structure_mutex_);
  // Exclusive structure lock: no mutation is in flight. Commit every shard
  // so the logs end exactly at the live state.
  for (auto& shard_ptr : shards_) {
    Shard& s = *shard_ptr;
    MaintenanceLock hold(s);
    std::unique_lock<std::mutex>& lock = hold.lock();
    if (Status st = CommitShardLocked(s, lock); !st.ok()) {
      return st;
    }
  }
  if (Status st = inner_.RepartitionInternal(new_partitions); !st.ok()) {
    return st;  // store unchanged; old logs still authoritative
  }
  // The new shards continue the sequence space past every old watermark,
  // so requirements handed out before the re-layout read as durable.
  uint64_t first_seq = 0;
  for (auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    first_seq = std::max(first_seq, shard_ptr->durable);
  }
  StopCommitters();
  shards_.clear();  // closes the old shard logs (each commits on destruction)
  BuildShards(first_seq);
  // The new shards get committers however this returns.
  struct RestartCommitters {
    WriteAheadStore* wal;
    ~RestartCommitters() { wal->StartCommitters(); }
  } restart{this};

  if (rebaseline != nullptr) {
    // Healer path: snapshot the new geometry, then fresh log epochs — the
    // exact Start() invariant, re-established. Crash windows converge: the
    // old logs' final values equal the snapshotted state.
    if (Status st = rebaseline(); !st.ok()) {
      return st;
    }
    for (auto& shard_ptr : shards_) {
      Shard& s = *shard_ptr;
      std::remove(s.options.path.c_str());
      s.log = std::make_unique<OperationLog>(sealer_, counters_, s.options);
      if (Status st = s.log->Open(); !st.ok()) {
        return st;
      }
      if (Status st = s.log->Reset(); !st.ok()) {  // bind a fresh epoch
        return st;
      }
    }
  } else {
    // Standalone path (no snapshots): dump the full state into new shard
    // logs at .tmp twins, commit them, then rename over the real paths.
    // Crash anywhere: every key's final value is in whichever mix of old
    // and new logs survives, so replay converges.
    for (size_t i = 0; i < shards_.size(); ++i) {
      Shard& s = *shards_[i];
      OpLogOptions dump_opts = s.options;
      dump_opts.path += ".tmp";
      std::remove(dump_opts.path.c_str());
      auto dump = std::make_unique<OperationLog>(sealer_, counters_, dump_opts);
      if (Status st = dump->Open(); !st.ok()) {
        return st;
      }
      for (size_t p = i; p < new_partitions; p += shards_.size()) {
        const Status st = inner_.WithPartitionLocked(p, [&](Store& partition) {
          return partition.ForEachDecrypted(
              [&](std::string_view key, std::string_view value) {
                return dump->LogSet(key, value);
              });
        });
        if (!st.ok()) {
          return st;
        }
      }
      if (Status st = dump->Commit(); !st.ok()) {
        return st;
      }
      dump.reset();  // close before rename
      if (std::rename(dump_opts.path.c_str(), s.options.path.c_str()) != 0) {
        return Status(Code::kIoError, "cannot install repartitioned log " + s.options.path);
      }
      s.log = std::make_unique<OperationLog>(sealer_, counters_, s.options);
      if (Status st = s.log->Open(); !st.ok()) {
        return st;
      }
    }
  }
  // Stale shard files beyond the new count and any legacy log are subsumed.
  for (size_t i = shards_.size();; ++i) {
    const std::string stale = options_.path + ".p" + std::to_string(i);
    if (std::remove(stale.c_str()) != 0) {
      break;
    }
  }
  std::remove(options_.path.c_str());
  return Status::Ok();
}

size_t WriteAheadStore::num_shards() const {
  std::shared_lock<std::shared_mutex> structure(structure_mutex_);
  return shards_.size();
}

size_t WriteAheadStore::ShardOfPartition(size_t p) const {
  std::shared_lock<std::shared_mutex> structure(structure_mutex_);
  return p % shards_.size();
}

uint64_t WriteAheadStore::ShardLogBytes(size_t shard_index) const {
  std::shared_lock<std::shared_mutex> structure(structure_mutex_);
  if (shard_index >= shards_.size() || shards_[shard_index]->log == nullptr) {
    return 0;
  }
  return shards_[shard_index]->log->log_bytes();
}

uint32_t WriteAheadStore::shard_window_us(size_t shard_index) const {
  std::shared_lock<std::shared_mutex> structure(structure_mutex_);
  if (shard_index >= shards_.size()) {
    return 0;
  }
  return shards_[shard_index]->window_us.load(std::memory_order_relaxed);
}

Status WriteAheadStore::ExportHeapFiles(const std::string& destination_dir) {
  if (!inner_.persist_enabled()) {
    return Status(Code::kUnsupported, "heap export requires --persist-heap");
  }
  // Checkpoint under the full log lock: no mutation lands between a
  // partition's checkpoint and its file copy, so every copied arena is a
  // committed generation whose sealed metadata verifies on the replica.
  return WithCommittedLog([&] {
    if (Status st = inner_.CheckpointAll(sealer_, counters_); !st.ok()) {
      return st;
    }
    std::error_code ec;
    std::filesystem::create_directories(destination_dir, ec);
    if (ec) {
      return Status(Code::kIoError, "cannot create " + destination_dir);
    }
    const std::string& src = inner_.persist_dir();
    std::vector<std::string> names;
    for (size_t p = 0; p < inner_.num_partitions(); ++p) {
      names.push_back("p" + std::to_string(p) + ".heap");
    }
    names.push_back("route.seal");
    for (const std::string& name : names) {
      std::filesystem::copy_file(src + "/" + name, destination_dir + "/" + name,
                                 std::filesystem::copy_options::overwrite_existing, ec);
      if (ec) {
        return Status(Code::kIoError, "cannot export " + name + ": " + ec.message());
      }
    }
    return Status::Ok();
  });
}

const OpLogOptions& WriteAheadStore::shard_log_options(size_t shard_index) const {
  std::shared_lock<std::shared_mutex> structure(structure_mutex_);
  return shards_[shard_index]->options;
}

WalStats WriteAheadStore::Stats() const {
  std::shared_lock<std::shared_mutex> structure(structure_mutex_);
  WalStats total;
  total.shards = shards_.size();
  total.compactions = compactions_.load(std::memory_order_relaxed);
  total.shipped_records = shipped_records_.load(std::memory_order_relaxed);
  total.ship_failures = ship_failures_.load(std::memory_order_relaxed);
  for (const auto& shard_ptr : shards_) {
    if (shard_ptr->log == nullptr) {
      continue;
    }
    total.records_logged += shard_ptr->log->records_logged();
    total.commits += shard_ptr->log->commits();
    total.fsyncs += shard_ptr->log->fsyncs();
    total.log_bytes += shard_ptr->log->log_bytes();
  }
  return total;
}

void WriteAheadStore::BridgeStats(obs::MetricsSnapshot& snap) const {
  const WalStats ws = Stats();
  snap.SetCounter("wal.records", ws.records_logged);
  snap.SetCounter("wal.commits", ws.commits);
  snap.SetCounter("wal.fsyncs", ws.fsyncs);
  snap.SetCounter("wal.compactions", ws.compactions);
  snap.SetGauge("wal.log_bytes", static_cast<int64_t>(ws.log_bytes));
  snap.SetGauge("wal.shards", static_cast<int64_t>(ws.shards));
  snap.SetCounter("wal.shipped_records", ws.shipped_records);
  snap.SetCounter("wal.ship_failures", ws.ship_failures);
  snap.SetGauge("wal.replication_attached",
                sink_.load(std::memory_order_acquire) != nullptr ? 1 : 0);
  {
    // Widest current adaptive window across shards (0 in legacy mode).
    std::shared_lock<std::shared_mutex> structure(structure_mutex_);
    uint32_t widest = 0;
    for (const auto& shard_ptr : shards_) {
      widest = std::max(widest, shard_ptr->window_us.load(std::memory_order_relaxed));
    }
    snap.SetGauge("wal.window_us", static_cast<int64_t>(widest));
  }
}

SelfHealer::SelfHealer(WriteAheadStore& wal, const sgx::SealingService& sealer,
                       sgx::MonotonicCounterService& counters, SelfHealOptions options)
    : wal_(wal), sealer_(sealer), counters_(counters), options_(std::move(options)),
      attempts_(wal_.inner().num_partitions(), 0) {}

Status SelfHealer::Restore() {
  return wal_.RestoreFromDisk(options_.directory);
}

Status SelfHealer::Start() {
  if (wal_.inner().persist_enabled()) {
    // Persist mode: the arenas are the baseline. Checkpoint them (first boot
    // binds each arena's monotonic counter; a restart folds the replayed
    // WAL tail in) and start the logs fresh — snapshots are never written.
    if (Status st = wal_.inner().CheckpointAll(sealer_, counters_); !st.ok()) {
      return st;
    }
    return wal_.ResetAllLogs();
  }
  if (Status st = wal_.inner().SnapshotAll(sealer_, counters_, options_.directory); !st.ok()) {
    return st;
  }
  // The baseline generation subsumes everything the logs held (including a
  // legacy unsharded log from before this code): start every shard fresh.
  return wal_.ResetAllLogs();
}

Status SelfHealer::Repartition(size_t new_partitions) {
  const Status st = wal_.Repartition(new_partitions, [&] {
    return wal_.inner().SnapshotAll(sealer_, counters_, options_.directory);
  });
  if (st.ok()) {
    attempts_.assign(wal_.inner().num_partitions(), 0);
  }
  return st;
}

Status SelfHealer::last_error() const {
  std::lock_guard<std::mutex> lock(error_mutex_);
  return last_error_;
}

Status SelfHealer::RecoverOne(size_t p) {
  // Commit, then replay inside the SHARD's lock: the replay's rollback check
  // compares the shard log's final commit against the live counter, so no
  // commit on this shard may land in between. Mutations to this shard's
  // partitions queue for the few milliseconds the replay takes; every other
  // shard — and all reads — keep serving.
  const size_t shard = wal_.ShardOfPartition(p);
  return wal_.WithCommittedShard(shard, [&] {
    if (wal_.inner().persist_enabled()) {
      // Persist mode has no snapshot to rebuild from — the arena IS the
      // state. Recovery is a full integrity scrub of the partition; clean
      // lifts the quarantine, tampered stays quarantined for a replica
      // restore (ExportHeapFiles on a healthy peer).
      return wal_.inner().RecoverPersistPartition(p);
    }
    return wal_.inner().RecoverPartition(p, sealer_, counters_, options_.directory,
                                         &wal_.shard_log_options(shard));
  });
}

bool SelfHealer::CompactOne() {
  if (options_.compact_log_bytes == 0) {
    return false;
  }
  const size_t shards = wal_.num_shards();
  for (size_t i = 0; i < shards; ++i) {
    const size_t s = (compact_cursor_.load(std::memory_order_relaxed) + i) % shards;
    if (wal_.ShardLogBytes(s) <= options_.compact_log_bytes) {
      continue;
    }
    compact_cursor_.store(s + 1, std::memory_order_relaxed);
    const Status st = wal_.CompactShard(s, options_.directory);
    if (st.ok()) {
      compactions_.fetch_add(1, std::memory_order_relaxed);
    } else if (st.code() != Code::kPartitionRecovering) {
      // Deferred-behind-recovery is expected; anything else is operator news.
      std::lock_guard<std::mutex> lock(error_mutex_);
      last_error_ = st;
    }
    return true;  // one unit of maintenance work per tick
  }
  return false;
}

void SelfHealer::Tick() {
  ticks_.fetch_add(1, std::memory_order_relaxed);
  PartitionedStore& store = wal_.inner();
  for (size_t p = 0; p < store.num_partitions(); ++p) {
    if (!store.IsQuarantined(p)) {
      if (p < attempts_.size()) {
        attempts_[p] = 0;
      }
      continue;
    }
    if (p < attempts_.size() && attempts_[p] >= options_.max_recovery_attempts) {
      continue;  // gave up on this partition; operator intervention needed
    }
    const Status s = RecoverOne(p);
    if (s.ok()) {
      recoveries_.fetch_add(1, std::memory_order_relaxed);
      if (p < attempts_.size()) {
        attempts_[p] = 0;
      }
      char detail[64];
      std::snprintf(detail, sizeof(detail), "partition %zu recovered and re-admitted", p);
      obs::AuditEvent(obs::AuditType::kRecovery, detail);
      SHIELD_LOG(Info) << "partition " << p << " recovered and re-admitted";
    } else {
      failed_recoveries_.fetch_add(1, std::memory_order_relaxed);
      if (p < attempts_.size()) {
        ++attempts_[p];
      }
      std::lock_guard<std::mutex> lock(error_mutex_);
      last_error_ = s;
    }
    return;  // one recovery attempt per tick keeps the pacing predictable
  }
  if (CompactOne()) {
    return;
  }
  if (options_.scrub) {
    const Status s = store.ScrubTick(options_.scrub_budget_buckets);
    if (!s.ok()) {
      violations_detected_.fetch_add(1, std::memory_order_relaxed);
      obs::AuditEvent(obs::AuditType::kScrubFinding, s.message());
      std::lock_guard<std::mutex> lock(error_mutex_);
      last_error_ = s;
    }
  }
}

void SelfHealer::BridgeStats(obs::MetricsSnapshot& snap) const {
  snap.SetCounter("heal.ticks", ticks());
  snap.SetCounter("heal.recoveries", recoveries());
  snap.SetCounter("heal.failed_recoveries", failed_recoveries());
  snap.SetCounter("heal.violations_detected", violations_detected());
  snap.SetCounter("heal.compactions", compactions());
}

}  // namespace shield::shieldstore
