#include "src/shieldstore/selfheal.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <utility>

#include "src/common/cycles.h"
#include "src/common/logging.h"
#include "src/obs/audit.h"
#include "src/obs/tracer.h"

namespace shield::shieldstore {
WriteAheadStore::WriteAheadStore(PartitionedStore& inner, const sgx::SealingService& sealer,
                                 sgx::MonotonicCounterService& counters,
                                 const OpLogOptions& options)
    : inner_(inner), sealer_(sealer), counters_(counters), options_(options) {
  metrics_ = options_.metrics != nullptr ? options_.metrics : &obs::Registry::Global();
  commit_batch_hist_ = &metrics_->GetHistogram("wal.commit_batch_ops");
  group_commits_ = &metrics_->GetCounter("wal.group_commits");
  compacted_bytes_ = &metrics_->GetCounter("wal.compacted_bytes");
  compactions_ = &metrics_->GetCounter("wal.compactions");
  shipped_records_ = &metrics_->GetCounter("wal.shipped_records");
  ship_failures_ = &metrics_->GetCounter("wal.ship_failures");
  replication_attached_ = &metrics_->GetGauge("wal.replication_attached");
  epochs_ = &metrics_->GetCounter("wal.epochs");
  epoch_records_ = &metrics_->GetHistogram("wal.epoch_records");
  epoch_fsync_ = &metrics_->GetHistogram("wal.epoch_fsync_ns");
  counter_bump_ = &metrics_->GetHistogram("wal.counter_bump_ns");
  metrics_->GetGauge("wal.window_us").Set(static_cast<int64_t>(options_.group_commit_window_us));
  BuildShards();
  metrics_->GetGauge("wal.shards").Set(static_cast<int64_t>(shards_.size()));
}

WriteAheadStore::~WriteAheadStore() { Close(); }

void WriteAheadStore::BuildShards() {
  const size_t parts = inner_.num_partitions();
  const size_t n =
      std::max<size_t>(options_.num_shards == 0 ? parts : std::min(options_.num_shards, parts), 1);
  for (size_t i = 0; i < n; ++i) {
    OpLogOptions per_shard = options_;
    per_shard.path = EpochLog::ShardPath(options_.path, i);
    per_shard.shard_index = static_cast<int>(i);
    auto s = std::make_unique<Shard>(std::move(per_shard));
    s->index = i;
    const std::string prefix = "wal.shard" + std::to_string(i) + ".";
    s->ctr_commit_waits = &metrics_->GetCounter(prefix + "commit_waits");
    s->ctr_compactions = &metrics_->GetCounter(prefix + "compactions");
    shards_.push_back(std::move(s));
  }
  watch_.Reset(n);
}

void WriteAheadStore::SetReplicationSink(ReplicationSink* sink) {
  sink_.store(sink, std::memory_order_release);
  replication_attached_->Set(sink != nullptr ? 1 : 0);
}

Status WriteAheadStore::Open() {
  Close();
  epoch_log_ = std::make_unique<EpochLog>(sealer_, counters_, options_.path);
  Result<Epoch> recovered = epoch_log_->Open();
  Status opened = recovered.status();
  const std::string route_path = options_.path + ".route";
  if (opened.ok() && !recovered->heads.empty() && !std::filesystem::exists(route_path)) {
    // Shard logs this release did not write: their records were routed by a
    // key nobody sealed, and their baseline was a snapshot it no longer reads.
    opened = Status(Code::kUnsupported, "WAL at " + options_.path +
                                            " has no sealed route key " + route_path +
                                            "; it is from a release before one durable format");
  }
  if (opened.ok()) {
    opened = inner_.LoadOrCreateRouteKey(sealer_, route_path);
  }
  if (opened.ok() && !recovered->heads.empty() && recovered->heads.size() != shards_.size()) {
    opened = Status(Code::kInvalidArgument,
                    "WAL at " + options_.path + " was written with " +
                        std::to_string(recovered->heads.size()) + " shards, this store has " +
                        std::to_string(shards_.size()));
  }
  for (auto& shard_ptr : shards_) {
    Shard& s = *shard_ptr;
    s.log.reset();
    s.prepared = s.appended;
    s.durable = s.appended.load();
    s.committing = false;
    s.failed = Status::Ok();
    if (!opened.ok()) {
      continue;
    }
    // Resume at the recovered head (dropping what the epoch never covered);
    // a first boot starts every shard fresh.
    s.log = std::make_unique<OperationLog>(sealer_, s.options);
    opened = recovered->heads.empty() ? s.log->Open() : s.log->Resume(recovered->heads[s.index]);
  }
  if (!opened.ok()) {
    for (auto& shard_ptr : shards_) {
      shard_ptr->log.reset();  // nothing may append, commit or wait on epochs
    }
    epoch_log_.reset();
    return opened;
  }
  std::vector<uint64_t> marks;
  {
    std::lock_guard<std::mutex> lock(epoch_mutex_);
    // Every head as reopened counts as covered: the first epoch names them.
    ready_ = std::move(*recovered);
    ready_.heads.resize(shards_.size());
    for (auto& shard_ptr : shards_) {
      ready_.heads[shard_ptr->index] = shard_ptr->log->head();
      marks.push_back(shard_ptr->appended);
    }
    ready_marks_ = marks;
    ready_ticket_ = 0;
    staged_ = covered_ = StagedEpoch{ready_, marks, 0};
    writing_ = bumping_ = writer_done_ = epochs_stop_ = false;
    epoch_failed_ = Status::Ok();
  }
  watch_.Reset(shards_.size());
  watch_.Publish(marks);
  epoch_writer_ = std::thread([this] { EpochWriterLoop(); });
  bumper_ = std::thread([this] { BumperLoop(); });
  StartCommitters();
  return Status::Ok();
}

void WriteAheadStore::Close() {
  StopCommitters();
  if (epoch_log_ == nullptr) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(epoch_mutex_);
    epochs_stop_ = true;
  }
  epoch_cv_.notify_all();
  epoch_writer_.join();
  bumper_.join();
  epoch_log_.reset();
}

Status WriteAheadStore::AppendLocked(Shard& s, bool is_delete, std::string_view key,
                                     std::string_view value) {
  if (s.log == nullptr) {
    return Status(Code::kInvalidArgument, "log not open");
  }
  obs::ScopedStage stage(metrics_, obs::Stage::kWalAppend);
  obs::TraceScope span("wal.append");
  if (s.appended == s.prepared) {
    s.batch_start = std::chrono::steady_clock::now();  // this record opens a group
  }
  if (Status st = is_delete ? s.log->AppendDelete(key) : s.log->AppendSet(key, value);
      !st.ok()) {
    return st;
  }
  ++s.appended;
  if (sink_.load(std::memory_order_acquire) != nullptr) {
    // Captured now, shipped by the commit that closes the record's group
    // once it fsyncs — the record order in pending_ship is the shard's
    // apply order.
    s.pending_ship.push_back({is_delete ? kv::BatchOpType::kDelete : kv::BatchOpType::kSet,
                              std::string(key), std::string(value)});
    // The committer has no trace of its own: a sampled writer's context
    // rides along so the ship (and the follower's apply) join its trace.
    if (const obs::TraceContext trace = obs::CurrentTrace(); trace.active()) {
      s.ship_trace = trace;
    }
  }
  // The committer's two wake conditions: a group opened, or it filled up
  // (it may then close the window early).
  const uint64_t pending = s.appended - s.prepared;
  if (pending == 1 || pending == options_.group_commit_ops) {
    s.commit_cv.notify_one();
  }
  return Status::Ok();
}

void WriteAheadStore::StartCommitters() {
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
    s.commit_cv.wait(lock, [&] { return s.stop || (s.appended > s.prepared && s.failed.ok()); });
    if (s.appended == s.prepared || !s.failed.ok()) {
      return;  // stopping with nothing (more) that can be committed
    }
    if (!s.stop) {
      // Wait out the configured window (or a full group) from the group's
      // first record. No other shard's commit is waited for: the bumper
      // covers every shard's ready groups with one counter bump.
      const auto deadline =
          s.batch_start + std::chrono::microseconds(options_.group_commit_window_us);
      s.commit_cv.wait_until(lock, deadline, [&] {
        return s.stop || !s.failed.ok() || s.appended - s.prepared >= options_.group_commit_ops;
      });
    }
    // A maintenance commit may have taken the group while the lock was free.
    if (s.appended > s.prepared && s.failed.ok()) {
      CommitGroupLocked(s, lock, /*release_lock=*/true);
    }
  }
}

void WriteAheadStore::CommitGroupLocked(Shard& s, std::unique_lock<std::mutex>& lock,
                                        bool release_lock) {
  // 1. Close, under the lock: records appended from now on open the next
  // group. `committing` keeps maintenance commits out until step 3.
  s.committing = true;
  const uint64_t upto = s.appended;
  const LogHead head = s.log->head();
  commit_batch_hist_->Record(upto - s.prepared);
  s.prepared = upto;
  Status st = s.log->CommitPrepare();
  // The lock was held continuously since `upto` was read, so the ship buffer
  // holds exactly this group's records; ship sequences assigned here keep
  // each shard's stream contiguous whichever path commits.
  std::vector<kv::BatchOp> ship;
  uint64_t ship_first = 0;
  const obs::TraceContext ship_trace = std::exchange(s.ship_trace, {});
  if (st.ok() && sink_.load(std::memory_order_acquire) != nullptr) {
    ship = std::move(s.pending_ship);
    ship_first = s.ship_seq + 1;
    s.ship_seq += ship.size();
  }
  s.pending_ship.clear();  // taken above, or no sink to resume: dropped
  // 2. Sync and ship. The committer releases the lock so writers append
  // into the next group meanwhile; maintenance keeps it.
  if (st.ok()) {
    if (release_lock) {
      lock.unlock();
    }
    st = InjectedCrash(CommitCrash::kBeforeShardFsync);
    if (st.ok()) {
      st = s.log->CommitSync();  // a WAL shard log: the fsync alone
    }
    if (st.ok()) {
      st = InjectedCrash(CommitCrash::kAfterShardFsync);
    }
    if (!ship.empty()) {
      // Shipped strictly before the group is marked ready, which is what
      // makes every ack in it "fsync'd AND shipped". Shipped even if the
      // fsync failed: the seqs are already claimed, the mutations DID apply
      // in memory, and a follower running ahead of a latched-dead primary
      // is harmless — a gap in the stream is not.
      obs::TraceScope span("wal.group_commit", ship_trace);
      ReplicationSink* sink = sink_.load(std::memory_order_acquire);
      const size_t n = ship.size();
      if (sink != nullptr && sink->ShipCommitted(s.index, ship_first, std::move(ship)).ok()) {
        shipped_records_->Inc(n);
      } else {
        // Sink rejected (or vanished): the invariant degrades to acked ⇒
        // logged ∧ recoverable-from-local-WAL; the primary keeps serving.
        ship_failures_->Inc();
      }
    }
    if (release_lock) {
      lock.lock();
    }
  }
  // 3. Finish, under the lock.
  s.committing = false;
  s.idle_cv.notify_all();
  if (!st.ok()) {
    // A failed commit leaves durability unknowable for every record at or
    // beyond this group: latch the shard so nothing further is acked.
    LatchLocked(s, st);
    return;
  }
  group_commits_->Inc();
  MarkReadyLocked(s, head, upto);
}

void WriteAheadStore::LatchLocked(Shard& s, const Status& failure) {
  s.failed = failure;
  s.commit_cv.notify_all();
  watch_.Latch(s.index, failure);
}

Status WriteAheadStore::AwaitDurable(Shard& s, uint64_t seq) {
  obs::ScopedStage stage(metrics_, obs::Stage::kCommitWait);
  obs::TraceScope span("wal.commit_wait");
  if (s.durable < seq) {
    s.ctr_commit_waits->Inc();
  }
  return watch_.Wait(s.index, seq);
}

std::vector<kv::BatchOpResult> WriteAheadStore::ExecuteBatch(
    const std::vector<kv::BatchOp>& ops) {
  kv::DurabilityRequirement requirement;
  std::vector<kv::BatchOpResult> results = SubmitBatch(ops, requirement);
  for (const auto& [sh, seq] : requirement.shards) {
    if (Status st = AwaitDurable(shard(sh), seq); !st.ok()) {
      // The shard latched first: nothing this batch saw or wrote there is
      // durable, so none of it may be reported as a success.
      for (size_t i = 0; i < ops.size(); ++i) {
        if (results[i].status.ok() && ShardOfPartition(inner_.PartitionOf(ops[i].key)) == sh) {
          results[i].status = st;
        }
      }
    }
  }
  return results;
}

std::vector<kv::BatchOpResult> WriteAheadStore::SubmitBatch(
    const std::vector<kv::BatchOp>& ops, kv::DurabilityRequirement& requirement) {
  requirement.shards.clear();
  std::vector<kv::BatchOpResult> results(ops.size());
  // Group op indices by shard, preserving original order within a group —
  // a key maps to one partition, a partition to one shard, so per-key order
  // survives the grouping and the replay invariant (each log's record order
  // is its partitions' apply order) holds per partition within the group.
  std::vector<std::vector<size_t>> groups(shards_.size());
  std::vector<size_t> mutations(shards_.size(), 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    const size_t sh = ShardOfPartition(inner_.PartitionOf(ops[i].key));
    groups[sh].push_back(i);
    if (ops[i].type != kv::BatchOpType::kGet) {
      ++mutations[sh];
    }
  }
  // A touched shard's results depend on every record it had appended: its
  // own mutations, and whatever its gets could have observed. A latched
  // shard's gets are served against its durable watermark, requiring nothing.
  const auto require_appended = [&](Shard& s, size_t sh) {
    if (s.failed.ok() && s.appended > s.durable) {
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
      // Taken AFTER the reads: a writer holds the lock from its apply to
      // its append, so any value these gets saw is covered by `appended`.
      std::lock_guard<std::mutex> lock(s.mutex);
      require_appended(s, sh);
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

Result<uint64_t> WriteAheadStore::CommitShardLocked(Shard& s,
                                                   std::unique_lock<std::mutex>& lock) {
  if (s.log == nullptr) {
    return Status(Code::kInvalidArgument, "log not open");
  }
  s.idle_cv.wait(lock, [&] { return !s.committing; });
  if (s.failed.ok() && s.appended > s.prepared) {
    CommitGroupLocked(s, lock, /*release_lock=*/false);
  }
  if (!s.failed.ok()) {
    return s.failed;
  }
  // The ticket of the shard's newest ready head (the group just finished, or
  // the committer's last one when nothing was pending).
  return MarkReadyLocked(s, s.log->head(), s.appended);
}

Status WriteAheadStore::WithCommittedShard(size_t shard_index,
                                           const std::function<Status()>& fn) {
  if (shard_index >= shards_.size()) {
    return Status(Code::kInvalidArgument, "no such shard");
  }
  Shard& s = shard(shard_index);
  std::unique_lock<std::mutex> lock(s.mutex);
  Result<uint64_t> ticket = CommitShardLocked(s, lock);
  if (!ticket.ok()) {
    return ticket.status();
  }
  if (Status st = WaitCovered(*ticket); !st.ok()) {
    return st;
  }
  return fn();
}

Status WriteAheadStore::ReplayCommittedShard(size_t shard_index, kv::KeyValueStore& target) {
  Shard& s = shard(shard_index);
  return OperationLog::ReplayPrefix(sealer_, s.options.path, s.log->head(), &target);
}

Status WriteAheadStore::NewGenerationLocked(Shard& s, CompactionCrash crash) {
  // The old generation stays the log's file until an epoch binding the new
  // one is durable: a crash before recovers the old, after it the new.
  Status st = s.log->Reset();
  if (st.ok() && crash == CompactionCrash::kGenerationSwitch) {
    st = Status(Code::kIoError, "injected crash inside the generation switch");
  }
  if (st.ok()) {
    st = WaitCovered(MarkReadyLocked(s, s.log->head(), s.appended));
  }
  if (st.ok()) {
    st = s.log->Promote();
  }
  if (!st.ok()) {
    LatchLocked(s, st);  // log state unknown: stop acking against this shard
  }
  return st;
}

Status WriteAheadStore::CompactShard(size_t shard_index, const std::string& cold_dir,
                                     CompactionCrash crash) {
  if (shard_index >= shards_.size()) {
    return Status(Code::kInvalidArgument, "no such shard");
  }
  if (!inner_.persist_enabled()) {
    return Status(Code::kUnsupported, "a heap-only WAL has no baseline to fold its log into");
  }
  Shard& s = shard(shard_index);
  std::unique_lock<std::mutex> lock(s.mutex);
  const size_t parts = inner_.num_partitions();
  for (size_t p = shard_index; p < parts; p += shards_.size()) {
    if (inner_.IsQuarantined(p)) {
      // The in-memory state is untrusted and the log suffix is exactly what
      // recovery will replay: leave both alone until the partition heals.
      return Status(Code::kPartitionRecovering,
                    "partition " + std::to_string(p) + " quarantined; compaction deferred");
    }
  }
  // 1. Commit: the log and the in-memory state now agree exactly. The epoch
  // that binds the new generation (step 3) covers this group too.
  if (Result<uint64_t> committed = CommitShardLocked(s, lock); !committed.ok()) {
    return committed.status();
  }
  // 2. Fold each served partition into an audited arena checkpoint (dirty
  // buckets + superblock) and a fresh cold copy. Crash anywhere here: the
  // log is untouched, so old-or-new baseline + the log prefix its epoch
  // names converge on every acked value.
  PartitionedStore::ColdCopyCrash cold_crash = PartitionedStore::ColdCopyCrash::kNone;
  if (crash == CompactionCrash::kColdCopyTempWrite) {
    cold_crash = PartitionedStore::ColdCopyCrash::kAfterTempWrite;
  } else if (crash == CompactionCrash::kColdCopyRename) {
    cold_crash = PartitionedStore::ColdCopyCrash::kAfterRename;
  }
  for (size_t p = shard_index; p < parts; p += shards_.size()) {
    if (Status st = inner_.CheckpointPartition(p, sealer_, counters_, cold_dir, cold_crash);
        !st.ok()) {
      return st;
    }
  }
  if (crash == CompactionCrash::kBeforeTruncate) {
    return Status(Code::kIoError, "injected crash before log truncate");
  }
  // 3. Truncate: the new generation subsumes everything the log held.
  compacted_bytes_->Inc(s.log->log_bytes());
  if (Status st = NewGenerationLocked(s, crash); !st.ok()) {
    return st;
  }
  // `appended`/`durable` (and ship_seq) run on across the generations: held
  // requirements and parked waiters name sequences in that space.
  s.ctr_compactions->Inc();
  compactions_->Inc();
  return Status::Ok();
}

// ------------------------------------------------------------ counter epochs

uint64_t WriteAheadStore::MarkReadyLocked(Shard& s, const LogHead& head, uint64_t upto) {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  ready_marks_[s.index] = upto;
  if (ready_.heads[s.index] != head) {
    ready_.heads[s.index] = head;
    ++ready_ticket_;
    epoch_cv_.notify_all();
  }
  return ready_ticket_;
}

Status WriteAheadStore::WaitCovered(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(epoch_mutex_);
  epoch_cv_.wait(lock, [&] { return covered_.ticket >= ticket || !epoch_failed_.ok(); });
  return covered_.ticket >= ticket ? Status::Ok() : epoch_failed_;
}

void WriteAheadStore::EpochWriterLoop() {
  std::unique_lock<std::mutex> lock(epoch_mutex_);
  for (;;) {
    epoch_cv_.wait(lock, [&] {
      return epochs_stop_ || !epoch_failed_.ok() || ready_ticket_ > staged_.ticket;
    });
    if (!epoch_failed_.ok() || ready_ticket_ == staged_.ticket) {
      writer_done_ = true;  // stopping, with every ready group written
      epoch_cv_.notify_all();
      return;
    }
    // The epoch window: with the bumper idle, groups already appended get
    // up to one group-commit window to turn ready and ride the next bump,
    // rather than a whole bump later (DESIGN.md §17).
    if (!bumping_ && staged_.epoch.value == covered_.epoch.value) {
      std::vector<uint64_t> appended;
      for (auto& shard_ptr : shards_) {
        appended.push_back(shard_ptr->appended);
      }
      epoch_cv_.wait_for(lock, std::chrono::microseconds(options_.group_commit_window_us), [&] {
        return !epoch_failed_.ok() ||
               std::equal(appended.begin(), appended.end(), ready_marks_.begin(),
                          std::less_equal<uint64_t>());
      });
    }
    // One record names every shard's newest ready head. While a bump spins
    // it goes to the other slot, so the record being bumped stays intact;
    // rewriting the next one as groups turn ready is safe, since its value
    // is bumped only after the last write to it finished.
    StagedEpoch next{ready_, ready_marks_, ready_ticket_};
    next.epoch.value = covered_.epoch.value + (bumping_ ? 2 : 1);
    writing_ = true;
    lock.unlock();
    const uint64_t start = obs::TimerStart();
    const Status st = epoch_log_->Write(next.epoch);
    epoch_fsync_->RecordCycles(obs::TimerStart() - start);
    lock.lock();
    writing_ = false;
    if (!st.ok()) {
      writer_done_ = true;
      FailEpochs(st, lock);
      return;
    }
    staged_ = std::move(next);
    epoch_cv_.notify_all();
  }
}

void WriteAheadStore::BumperLoop() {
  std::unique_lock<std::mutex> lock(epoch_mutex_);
  for (;;) {
    const auto due = [&] { return staged_.epoch.value > covered_.epoch.value && !writing_; };
    epoch_cv_.wait(lock, [&] { return !epoch_failed_.ok() || due() || writer_done_; });
    if (!epoch_failed_.ok() || !due()) {
      return;  // failed, or stopping with every record bumped
    }
    // The bump: every group the record names becomes durable.
    StagedEpoch done = staged_;
    bumping_ = true;
    lock.unlock();
    Status st = InjectedCrash(CommitCrash::kBetweenEpochFsyncAndBump);
    const uint64_t start = obs::TimerStart();
    if (st.ok()) {
      st = epoch_log_->Bump(done.epoch.value);
    }
    counter_bump_->RecordCycles(obs::TimerStart() - start);
    lock.lock();
    bumping_ = false;
    if (!st.ok()) {
      FailEpochs(st, lock);
      return;
    }
    uint64_t records = 0;
    for (size_t i = 0; i < done.marks.size(); ++i) {
      records += done.marks[i] - covered_.marks[i];
      shards_[i]->durable = done.marks[i];
    }
    covered_ = std::move(done);
    epochs_->Inc();
    epoch_records_->Record(records);
    epoch_cv_.notify_all();
    // One wake publishes every covered shard's watermark. Watch subscribers
    // (reactor loops) run on this thread: not under the lock.
    const std::vector<uint64_t> marks = covered_.marks;
    lock.unlock();
    watch_.Publish(marks);
    lock.lock();
  }
}

void WriteAheadStore::FailEpochs(const Status& failure, std::unique_lock<std::mutex>& lock) {
  epoch_failed_ = failure;
  epoch_cv_.notify_all();
  lock.unlock();
  for (auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> guard(shard_ptr->mutex);
    LatchLocked(*shard_ptr, failure);
  }
}

Status WriteAheadStore::RestoreFromDisk() {
  if (std::filesystem::exists(options_.path)) {
    // The unsharded log predates the shard split and may hold acked records
    // of any key: refuse rather than boot without them.
    return Status(Code::kUnsupported,
                  "unsharded log " + options_.path +
                      " is from a pre-sharding release; restore it with that release");
  }
  // The epoch names the shard logs to replay (its writer's geometry) and
  // each one's head; a rollback of any of them fails here.
  Result<Epoch> epoch = EpochLog::Recover(sealer_, counters_, options_.path);
  if (!epoch.ok() && epoch.status().code() != Code::kNotFound) {
    return epoch.status();
  }
  const std::vector<LogHead> heads = epoch.ok() ? std::move(epoch->heads) : std::vector<LogHead>{};
  const auto restore_start = std::chrono::steady_clock::now();
  if (inner_.persist_enabled()) {
    // The baseline rule: a compacted shard's log holds only what followed
    // its partitions' arena commits, so each must still hold one.
    for (size_t p = 0; p < inner_.num_partitions() && !heads.empty(); ++p) {
      const alloc::PersistentArena* arena = inner_.partition_arena(p);
      if (heads[ShardOfPartition(p)].compacted() && arena != nullptr && !arena->attached()) {
        return Status(Code::kRollbackDetected,
                      "heap file " + arena->path() + " holds no committed baseline, but shard " +
                          std::to_string(ShardOfPartition(p)) + " has compacted");
      }
    }
    // Phase 1: attach the mmap'd heap files, routed under the route key Open
    // loaded. O(1) in entry count (superblock + sealed metadata, no entry
    // decrypt); per-entry MACs re-verify lazily on first touch.
    if (Status st = inner_.AttachPersistent(sealer_, counters_); !st.ok()) {
      return st;
    }
  }
  // Phase 2: every named shard log up to its head, straight to the inner
  // store (not re-logged). Each partition's arena precedes its log records
  // because phase 1 ran first; logs never cross partitions, so any
  // inter-log order converges.
  const auto replay_one = [&](size_t i) {
    const std::string path = EpochLog::ShardPath(options_.path, i);
    Status st = OperationLog::ReplayPrefix(sealer_, path, heads[i], &inner_);
    return st.ok() ? st : Status(st.code(), "replaying " + path + ": " + st.message());
  };
  // Shard logs of one epoch hold disjoint key sets, and cross-epoch
  // leftovers converge (each log's last record per key is that key's final
  // state) — so they can replay concurrently: the facade's partition locks
  // serialize same-key application, and differently-keyed records commute.
  const size_t threads = std::min<size_t>(
      {std::max<size_t>(std::thread::hardware_concurrency(), 1), 8, heads.size()});
  std::atomic<size_t> next{0};
  std::mutex error_mutex;
  Status first_error;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= heads.size()) {
          return;
        }
        if (Status st = replay_one(i); !st.ok()) {
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
  if (first_error.ok()) {
    // The whole baseline-plus-tail restore: the number the arena shrinks.
    metrics_->GetGauge("heap.restart_ns")
        .Set(std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - restore_start)
                 .count());
  }
  return first_error;
}

uint64_t WriteAheadStore::ShardLogBytes(size_t shard_index) const {
  if (shard_index >= shards_.size() || shards_[shard_index]->log == nullptr) {
    return 0;
  }
  return shards_[shard_index]->log->log_bytes();
}

WalStats WriteAheadStore::Stats() const {
  WalStats total;
  // The logs own these three (registered in the same registry).
  total.records_logged = metrics_->GetCounter("wal.records").Value();
  total.commits = metrics_->GetCounter("wal.commits").Value();
  total.fsyncs = metrics_->GetCounter("wal.fsyncs").Value();
  total.compactions = compactions_->Value();
  total.shipped_records = shipped_records_->Value();
  total.ship_failures = ship_failures_->Value();
  total.shards = shards_.size();
  for (size_t s = 0; s < shards_.size(); ++s) {
    total.log_bytes += ShardLogBytes(s);
  }
  return total;
}

SelfHealer::SelfHealer(WriteAheadStore& wal, const sgx::SealingService& sealer,
                       sgx::MonotonicCounterService& counters, SelfHealOptions options)
    : wal_(wal), sealer_(sealer), counters_(counters), options_(std::move(options)),
      attempts_(wal_.inner().num_partitions(), 0),
      recoveries_(&wal_.metrics().GetCounter("heal.recoveries")),
      failed_recoveries_(&wal_.metrics().GetCounter("heal.failed_recoveries")),
      violations_(&wal_.metrics().GetCounter("heal.violations_detected")) {}

Status SelfHealer::Restore() { return wal_.RestoreFromDisk(); }

Status SelfHealer::Start() {
  PartitionedStore& store = wal_.inner();
  if (!store.persist_enabled()) {
    return Status::Ok();  // heap-only: no cold copies
  }
  for (size_t p = 0; p < store.num_partitions(); ++p) {
    // A quarantined partition is left to heal from its cold copy.
    if (!store.IsQuarantined(p) && store.ColdCopyBehind(p, options_.directory)) {
      if (Status st = store.CheckpointPartition(p, sealer_, counters_, options_.directory);
          !st.ok()) {
        return st;
      }
    }
  }
  return Status::Ok();
}

Status SelfHealer::last_error() const {
  std::lock_guard<std::mutex> lock(error_mutex_);
  return last_error_;
}

Status SelfHealer::RecoverOne(size_t p) {
  // Commit, then replay inside the SHARD's lock up to the head an epoch
  // covers (a shard file rolled back behind it is kRollbackDetected), so no
  // commit on this shard may land in between. Mutations to this shard's
  // partitions queue for the few milliseconds the replay takes; every other
  // shard — and all reads — keep serving.
  // The baseline is the partition's last cold copy, or the empty store if
  // its shard never compacted (then the log holds the whole history).
  const size_t shard = wal_.ShardOfPartition(p);
  return wal_.WithCommittedShard(shard, [&] {
    return wal_.inner().RecoverPartition(
        p, sealer_, counters_, wal_.ShardCompacted(shard) ? options_.directory : std::string(),
        [&](kv::KeyValueStore& target) { return wal_.ReplayCommittedShard(shard, target); });
  });
}

bool SelfHealer::CompactOne() {
  if (options_.compact_log_bytes == 0 || !wal_.inner().persist_enabled()) {
    return false;  // a heap-only WAL keeps its whole history
  }
  const size_t shards = wal_.num_shards();
  for (size_t i = 0; i < shards; ++i) {
    const size_t s = (compact_cursor_.load(std::memory_order_relaxed) + i) % shards;
    if (wal_.ShardLogBytes(s) <= options_.compact_log_bytes) {
      continue;
    }
    compact_cursor_.store(s + 1, std::memory_order_relaxed);
    const Status st = wal_.CompactShard(s, options_.directory);
    if (!st.ok() && st.code() != Code::kPartitionRecovering) {
      // Deferred-behind-recovery is expected; anything else is operator news.
      std::lock_guard<std::mutex> lock(error_mutex_);
      last_error_ = st;
    }
    return true;  // one unit of maintenance work per tick
  }
  return false;
}

void SelfHealer::Tick() {
  // Stop retrying a partition after this many consecutive failed recovery
  // attempts (it stays quarantined; operators see heal.failed_recoveries).
  constexpr int kMaxRecoveryAttempts = 8;
  PartitionedStore& store = wal_.inner();
  for (size_t p = 0; p < store.num_partitions(); ++p) {
    if (!store.IsQuarantined(p)) {
      attempts_[p] = 0;
      continue;
    }
    if (attempts_[p] >= kMaxRecoveryAttempts) {
      continue;  // gave up on this partition; operator intervention needed
    }
    const Status s = RecoverOne(p);
    if (s.ok()) {
      recoveries_->Inc();
      attempts_[p] = 0;
      char detail[64];
      std::snprintf(detail, sizeof(detail), "partition %zu recovered and re-admitted", p);
      obs::AuditEvent(obs::AuditType::kRecovery, detail);
      SHIELD_LOG(Info) << "partition " << p << " recovered and re-admitted";
    } else {
      failed_recoveries_->Inc();
      ++attempts_[p];
      std::lock_guard<std::mutex> lock(error_mutex_);
      last_error_ = s;
    }
    return;  // one recovery attempt per tick keeps the pacing predictable
  }
  if (CompactOne()) {
    return;
  }
  if (options_.scrub) {
    const Status s = store.ScrubTick();
    if (!s.ok()) {
      violations_->Inc();
      obs::AuditEvent(obs::AuditType::kScrubFinding, s.message());
      std::lock_guard<std::mutex> lock(error_mutex_);
      last_error_ = s;
    }
  }
}

}  // namespace shield::shieldstore
