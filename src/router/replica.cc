#include "src/router/replica.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/audit.h"

namespace shield::router {
namespace {

// Applies entries[from..] through ONE store batch — on a WriteAheadStore
// standby, one group per shard and about one counter bump for the frame.
// Returns how many applied before the first failure, and that failure. A
// delete that finds nothing counts as applied: a retransmitted delete, or
// one racing the bootstrap snapshot (the key was already gone when the dump
// read its partition), leaves the intended end state either way.
std::pair<size_t, Status> ApplyBatch(kv::KeyValueStore& store,
                                     const std::vector<net::ReplicateEntry>& entries,
                                     size_t from) {
  std::vector<kv::BatchOp> ops;
  ops.reserve(entries.size() - from);
  for (size_t i = from; i < entries.size(); ++i) {
    const net::ReplicateEntry& e = entries[i];
    ops.push_back({e.is_delete ? kv::BatchOpType::kDelete : kv::BatchOpType::kSet, e.key,
                   e.value});
  }
  const std::vector<kv::BatchOpResult> results = store.ExecuteBatch(ops);
  for (size_t i = 0; i < results.size(); ++i) {
    const Status& st = results[i].status;
    if (!st.ok() && !(ops[i].type == kv::BatchOpType::kDelete && st.code() == Code::kNotFound)) {
      return {i, st};
    }
  }
  return {results.size(), Status::Ok()};
}

}  // namespace

ReplicaNode::ReplicaNode(kv::KeyValueStore& store, obs::Registry* metrics)
    : store_(store) {
  obs::Registry* reg = metrics != nullptr ? metrics : &obs::Registry::Global();
  frames_ = &reg->GetCounter("repl.frames");
  applied_ = &reg->GetCounter("repl.applied_entries");
  snapshot_entries_ = &reg->GetCounter("repl.snapshot_entries");
  rejected_ = &reg->GetCounter("repl.rejected_frames");
  role_gauge_ = &reg->GetGauge("repl.role");
  role_gauge_->Set(static_cast<int64_t>(role_));
}

net::Response ReplicaNode::ReplyLocked(Code code) const {
  net::ReplicaStatusFrame status;
  status.role = role_;
  status.epoch = epoch_;
  status.watermarks = watermarks_;
  net::Response response;
  response.status = code;
  const Bytes encoded = net::EncodeReplicaStatus(status);
  response.value.assign(AsString(encoded));
  return response;
}

net::Response ReplicaNode::Reply(Code code) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ReplyLocked(code);
}

net::Response ReplicaNode::HandleReplicate(const net::Request& request) {
  frames_->Inc();
  Result<net::ReplicateFrame> decoded = net::DecodeReplicateFrame(AsBytes(request.value));
  if (!decoded.ok()) {
    rejected_->Inc();
    return Reply(Code::kProtocolError);
  }
  const net::ReplicateFrame& frame = *decoded;

  std::lock_guard<std::mutex> lock(mutex_);
  switch (frame.type) {
    case net::ReplicateType::kQuery:
      return ReplyLocked(Code::kOk);

    case net::ReplicateType::kPromote:
      if (role_ != net::ReplicaRole::kPrimary) {
        role_ = net::ReplicaRole::kPrimary;
        role_gauge_->Set(static_cast<int64_t>(role_));
        obs::AuditEvent(obs::AuditType::kPromotion,
                        "promoted to primary by wire request (epoch " +
                            std::to_string(epoch_) + ")");
        SHIELD_LOG(Info) << "replica promoted to primary (epoch " << epoch_ << ")";
      }
      return ReplyLocked(Code::kOk);

    case net::ReplicateType::kHello: {
      if (role_ == net::ReplicaRole::kPrimary) {
        rejected_->Inc();
        return ReplyLocked(Code::kUnsupported);
      }
      if (frame.num_shards == 0) {
        rejected_->Inc();
        return ReplyLocked(Code::kProtocolError);
      }
      // A re-Hello (same or new epoch) restarts the bootstrap: the dump that
      // follows subsumes everything shipped so far, so the watermarks reset
      // and every shard's next kEntries frame re-bases.
      epoch_ = frame.epoch;
      bootstrapping_ = true;
      watermarks_.assign(frame.num_shards, 0);
      fresh_.assign(frame.num_shards, true);
      return ReplyLocked(Code::kOk);
    }

    case net::ReplicateType::kSnapshotChunk: {
      if (role_ == net::ReplicaRole::kPrimary) {
        rejected_->Inc();
        return ReplyLocked(Code::kUnsupported);
      }
      if (!bootstrapping_ || frame.epoch != epoch_) {
        rejected_->Inc();
        obs::AuditEvent(obs::AuditType::kEpochFenceReject,
                        "snapshot chunk fenced: frame epoch " + std::to_string(frame.epoch) +
                            " vs replica epoch " + std::to_string(epoch_));
        return ReplyLocked(Code::kInvalidArgument);
      }
      const auto [applied, st] = ApplyBatch(store_, frame.entries, 0);
      snapshot_entries_->Inc(applied);
      if (!st.ok()) {
        rejected_->Inc();
        return ReplyLocked(st.code());
      }
      return ReplyLocked(Code::kOk);
    }

    case net::ReplicateType::kSnapshotDone:
      if (role_ == net::ReplicaRole::kPrimary) {
        rejected_->Inc();
        return ReplyLocked(Code::kUnsupported);
      }
      if (!bootstrapping_ || frame.epoch != epoch_) {
        rejected_->Inc();
        obs::AuditEvent(obs::AuditType::kEpochFenceReject,
                        "snapshot done fenced: frame epoch " + std::to_string(frame.epoch) +
                            " vs replica epoch " + std::to_string(epoch_));
        return ReplyLocked(Code::kInvalidArgument);
      }
      bootstrapping_ = false;
      return ReplyLocked(Code::kOk);

    case net::ReplicateType::kEntries: {
      if (role_ == net::ReplicaRole::kPrimary) {
        rejected_->Inc();
        return ReplyLocked(Code::kUnsupported);
      }
      if (frame.entries.empty() || frame.first_seq == 0 ||
          frame.first_seq > UINT64_MAX - frame.entries.size()) {
        rejected_->Inc();
        return ReplyLocked(Code::kProtocolError);
      }
      if (epoch_ == 0 || frame.epoch != epoch_ || bootstrapping_ ||
          frame.shard >= watermarks_.size()) {
        rejected_->Inc();
        obs::AuditEvent(obs::AuditType::kEpochFenceReject,
                        "entries fenced: frame epoch " + std::to_string(frame.epoch) +
                            " vs replica epoch " + std::to_string(epoch_));
        return ReplyLocked(Code::kInvalidArgument);
      }
      uint64_t& w = watermarks_[frame.shard];
      uint64_t apply_from = frame.first_seq;  // first seq we still need
      if (fresh_[frame.shard]) {
        // First frame after a bootstrap sets the shard's base: the snapshot
        // dump subsumed every earlier sequence.
        w = frame.first_seq - 1;
      } else if (frame.first_seq > w + 1) {
        // Gap: records between w and first_seq are missing here and may be
        // gone from the shipper's backlog too — only a fresh bootstrap can
        // close it. Never apply across a gap.
        rejected_->Inc();
        obs::AuditEvent(obs::AuditType::kEpochFenceReject,
                        "sequence gap fenced: shard " + std::to_string(frame.shard) +
                            " watermark " + std::to_string(w) + " got first_seq " +
                            std::to_string(frame.first_seq));
        return ReplyLocked(Code::kInvalidArgument);
      } else {
        apply_from = std::max(apply_from, w + 1);  // skip retransmitted prefix
      }
      const uint64_t last = frame.first_seq + frame.entries.size() - 1;
      fresh_[frame.shard] = false;
      if (apply_from > last) {
        return ReplyLocked(Code::kOk);  // a retransmit of what already applied
      }
      const auto [applied, st] = ApplyBatch(store_, frame.entries, apply_from - frame.first_seq);
      applied_->Inc(applied);
      applied_entries_.fetch_add(applied, std::memory_order_relaxed);
      if (!st.ok()) {
        // Partial application is safe: w stops just before the first failed
        // record, so the shipper's retransmit resumes there (and re-applying
        // any later record the batch did apply converges: each carries its
        // resulting state).
        w = apply_from + applied - 1;
        rejected_->Inc();
        return ReplyLocked(st.code());
      }
      w = std::max(w, last);
      return ReplyLocked(Code::kOk);
    }
  }
  rejected_->Inc();
  return ReplyLocked(Code::kProtocolError);  // unreachable: decode bounds the type
}

void ReplicaNode::Promote() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (role_ != net::ReplicaRole::kPrimary) {
    role_ = net::ReplicaRole::kPrimary;
    role_gauge_->Set(static_cast<int64_t>(role_));
    obs::AuditEvent(obs::AuditType::kPromotion,
                    "promoted to primary locally (epoch " + std::to_string(epoch_) + ")");
    SHIELD_LOG(Info) << "replica promoted to primary (epoch " << epoch_ << ")";
  }
}

net::ReplicaRole ReplicaNode::role() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return role_;
}

uint64_t ReplicaNode::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

std::vector<uint64_t> ReplicaNode::watermarks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return watermarks_;
}

}  // namespace shield::router
