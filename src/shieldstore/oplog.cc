#include "src/shieldstore/oplog.h"

#include <unistd.h>

#include <cstring>
#include <vector>

namespace shield::shieldstore {
namespace {

constexpr char kLogMagic[4] = {'S', 'S', 'L', '1'};
constexpr uint8_t kOpSet = 1;
constexpr uint8_t kOpDelete = 2;
constexpr uint8_t kOpCommit = 0xC0;

// AAD binding a record to its position: previous record's seal tag (the
// chain) plus the record sequence number.
Bytes ChainAad(const crypto::Mac& prev, uint64_t sequence) {
  Bytes aad(24);
  std::memcpy(aad.data(), prev.data(), 16);
  StoreLe64(aad.data() + 16, sequence);
  return aad;
}

Bytes EncodeRecord(uint8_t op, std::string_view key, std::string_view value) {
  Bytes plain(1 + 4 + 4 + key.size() + value.size());
  plain[0] = op;
  StoreLe32(plain.data() + 1, static_cast<uint32_t>(key.size()));
  StoreLe32(plain.data() + 5, static_cast<uint32_t>(value.size()));
  std::memcpy(plain.data() + 9, key.data(), key.size());
  std::memcpy(plain.data() + 9 + key.size(), value.data(), value.size());
  return plain;
}

struct DecodedRecord {
  uint8_t op;
  std::string key;
  std::string value;
};

Result<DecodedRecord> DecodeRecord(ByteSpan plain) {
  if (plain.size() < 9) {
    return Status(Code::kIntegrityFailure, "log record too short");
  }
  DecodedRecord r;
  r.op = plain[0];
  const uint32_t key_len = LoadLe32(plain.data() + 1);
  const uint32_t val_len = LoadLe32(plain.data() + 5);
  if (plain.size() != 9 + size_t{key_len} + val_len) {
    return Status(Code::kIntegrityFailure, "log record length corrupted");
  }
  r.key.assign(reinterpret_cast<const char*>(plain.data() + 9), key_len);
  r.value.assign(reinterpret_cast<const char*>(plain.data() + 9 + key_len), val_len);
  return r;
}

// Streams authenticated records, stopping cleanly at a torn/truncated tail.
// `cb` returns false to abort. Outputs the final chain state.
Status ScanLog(const std::string& path, const sgx::SealingService& sealer,
               int32_t* counter_id, crypto::Mac* final_chain, uint64_t* final_seq,
               const std::function<bool(const DecodedRecord&)>& cb) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status(Code::kNotFound, "no log at " + path);
  }
  char magic[4];
  uint8_t id_bytes[4];
  const size_t magic_read = std::fread(magic, 1, 4, f);
  if (magic_read == 0 && std::feof(f)) {
    // Empty file: a process killed before its first group commit leaves the
    // buffered header unwritten. Commits fsync the whole file, so an empty
    // log proves no record was ever durable — safe to start fresh.
    std::fclose(f);
    return Status(Code::kNotFound, "empty log at " + path);
  }
  if (magic_read != 4 || std::memcmp(magic, kLogMagic, 4) != 0 ||
      std::fread(id_bytes, 1, 4, f) != 4) {
    std::fclose(f);
    return Status(Code::kIntegrityFailure, "log header corrupted");
  }
  *counter_id = static_cast<int32_t>(LoadLe32(id_bytes));
  crypto::Mac chain{};
  uint64_t seq = 0;
  std::vector<uint8_t> frame;
  for (;;) {
    uint8_t len_bytes[4];
    if (std::fread(len_bytes, 1, 4, f) != 4) {
      break;  // clean end (or torn tail at a frame boundary)
    }
    const uint32_t len = LoadLe32(len_bytes);
    if (len > (64u << 20)) {
      std::fclose(f);
      return Status(Code::kIntegrityFailure, "log frame length corrupted");
    }
    frame.resize(len);
    if (std::fread(frame.data(), 1, len, f) != len) {
      break;  // torn tail: ignore, like a crash mid-append
    }
    Result<Bytes> plain = sealer.Unseal(ByteSpan(frame.data(), frame.size()),
                                        ChainAad(chain, seq));
    if (!plain.ok()) {
      std::fclose(f);
      return Status(Code::kIntegrityFailure,
                    "log record " + std::to_string(seq) + " fails authentication");
    }
    Result<DecodedRecord> record = DecodeRecord(*plain);
    if (!record.ok()) {
      std::fclose(f);
      return record.status();
    }
    // Advance the chain: the next record is bound to this frame's seal tag.
    std::memcpy(chain.data(), frame.data() + frame.size() - 16, 16);
    ++seq;
    if (!cb(*record)) {
      break;
    }
  }
  std::fclose(f);
  *final_chain = chain;
  *final_seq = seq;
  return Status::Ok();
}

}  // namespace

OperationLog::OperationLog(const sgx::SealingService& sealer,
                           sgx::MonotonicCounterService& counters, const OpLogOptions& options)
    : sealer_(sealer), counters_(counters), options_(options) {
  obs::Registry* reg =
      options_.metrics != nullptr ? options_.metrics : &obs::Registry::Global();
  records_ = &reg->GetCounter("wal.records");
  commits_ = &reg->GetCounter("wal.commits");
  fsyncs_ = &reg->GetCounter("wal.fsyncs");
  log_bytes_gauge_ = &reg->GetGauge("wal.log_bytes");
  fsync_latency_ = &reg->GetHistogram("wal.fsync_ns");
  counter_bump_latency_ = &reg->GetHistogram("wal.counter_bump_ns");
  if (options_.shard_index >= 0) {
    const std::string prefix = "wal.shard" + std::to_string(options_.shard_index) + ".";
    shard_records_ = &reg->GetCounter(prefix + "records");
    shard_log_bytes_ = &reg->GetGauge(prefix + "log_bytes");
  }
}

OperationLog::~OperationLog() {
  if (file_ != nullptr) {
    if (uncommitted_ > 0) {
      (void)Commit();
    }
    std::fclose(file_);
  }
  log_bytes_gauge_->Add(-published_log_bytes_);
}

void OperationLog::PublishLogBytes() {
  const auto bytes = static_cast<int64_t>(log_bytes_.load(std::memory_order_relaxed));
  log_bytes_gauge_->Add(bytes - published_log_bytes_);
  published_log_bytes_ = bytes;
  if (shard_log_bytes_ != nullptr) {
    shard_log_bytes_->Set(bytes);
  }
}

Status OperationLog::Open() {
  counter_known_ = false;
  // Recover chain state from an existing log, or start a fresh one.
  int32_t existing_id = -1;
  crypto::Mac chain{};
  uint64_t seq = 0;
  const Status scanned = ScanLog(options_.path, sealer_, &existing_id, &chain, &seq,
                                 [](const DecodedRecord&) { return true; });
  if (scanned.ok()) {
    counter_id_ = existing_id;
    chain_mac_ = chain;
    sequence_ = seq;
    file_ = std::fopen(options_.path.c_str(), "ab");
    if (file_ == nullptr) {
      return Status(Code::kIoError, "cannot append to log");
    }
    std::fseek(file_, 0, SEEK_END);
    const long size = std::ftell(file_);
    log_bytes_.store(size > 0 ? static_cast<uint64_t>(size) : 0, std::memory_order_relaxed);
    PublishLogBytes();
    return Status::Ok();
  }
  if (scanned.code() != Code::kNotFound) {
    return scanned;  // corrupted log: refuse to continue on top of it
  }
  Result<uint32_t> id = counters_.CreateCounter();
  if (!id.ok()) {
    return id.status();
  }
  counter_id_ = static_cast<int32_t>(id.value());
  file_ = std::fopen(options_.path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status(Code::kIoError, "cannot create log");
  }
  uint8_t header[8];
  std::memcpy(header, kLogMagic, 4);
  StoreLe32(header + 4, static_cast<uint32_t>(counter_id_));
  if (std::fwrite(header, 1, 8, file_) != 8) {
    return Status(Code::kIoError, "cannot write log header");
  }
  // Make the header durable immediately: after any crash the log is either
  // empty (fresh start) or begins with a valid header — never a torn one.
  if (std::fflush(file_) != 0 || fsync(fileno(file_)) != 0) {
    return Status(Code::kIoError, "cannot flush log header");
  }
  log_bytes_.store(8, std::memory_order_relaxed);
  PublishLogBytes();
  return Status::Ok();
}

Status OperationLog::AppendRecord(uint8_t op, std::string_view key, std::string_view value) {
  if (file_ == nullptr) {
    return Status(Code::kInvalidArgument, "log not open");
  }
  const Bytes plain = EncodeRecord(op, key, value);
  const Bytes sealed = sealer_.Seal(plain, ChainAad(chain_mac_, sequence_));
  uint8_t len[4];
  StoreLe32(len, static_cast<uint32_t>(sealed.size()));
  if (std::fwrite(len, 1, 4, file_) != 4 ||
      std::fwrite(sealed.data(), 1, sealed.size(), file_) != sealed.size()) {
    return Status(Code::kIoError, "log append failed");
  }
  std::memcpy(chain_mac_.data(), sealed.data() + sealed.size() - 16, 16);
  ++sequence_;
  log_bytes_.fetch_add(4 + sealed.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Status OperationLog::AppendMutation(uint8_t op, std::string_view key,
                                    std::string_view value) {
  if (Status s = AppendRecord(op, key, value); !s.ok()) {
    return s;
  }
  records_->Inc();
  if (shard_records_ != nullptr) {
    shard_records_->Inc();
  }
  ++uncommitted_;
  return Status::Ok();
}

Status OperationLog::AppendSet(std::string_view key, std::string_view value) {
  return AppendMutation(kOpSet, key, value);
}

Status OperationLog::AppendDelete(std::string_view key) {
  return AppendMutation(kOpDelete, key, "");
}

Status OperationLog::LogSet(std::string_view key, std::string_view value) {
  if (Status s = AppendSet(key, value); !s.ok()) {
    return s;
  }
  if (uncommitted_ >= options_.group_commit_ops) {
    return Commit();
  }
  return Status::Ok();
}

Status OperationLog::LogDelete(std::string_view key) {
  if (Status s = AppendDelete(key); !s.ok()) {
    return s;
  }
  if (uncommitted_ >= options_.group_commit_ops) {
    return Commit();
  }
  return Status::Ok();
}

Status OperationLog::CommitPrepare() {
  if (file_ == nullptr) {
    return Status(Code::kInvalidArgument, "log not open");
  }
  // The commit record carries live+1; the counter is bumped only after the
  // record is durable (CommitSync). A crash between the two leaves the log
  // one ahead of the counter — Replay treats that like the snapshot
  // machinery's pending generation and rolls the counter forward. (Bumping
  // first, as earlier revisions did, made that crash window unrecoverable:
  // the lost commit record left the live counter ahead of every commit in
  // the log, indistinguishable from a rollback attack.)
  //
  // The live value is read from the counter service once and then tracked
  // here: this log is the only writer of its counter, and the service
  // serializes every counter behind one slow mutex that a caller holding
  // its shard lock must not queue on. A counter moved behind our back still
  // fails CommitSync's check.
  if (!counter_known_) {
    Result<uint64_t> live = counters_.Read(static_cast<uint32_t>(counter_id_));
    if (!live.ok()) {
      return live.status();
    }
    counter_value_ = live.value();
    counter_known_ = true;
  }
  pending_commit_value_ = counter_value_ + 1;
  uint8_t v[8];
  StoreLe64(v, pending_commit_value_);
  if (Status s = AppendRecord(kOpCommit, "", std::string_view(reinterpret_cast<char*>(v), 8));
      !s.ok()) {
    return s;
  }
  if (std::fflush(file_) != 0) {
    return Status(Code::kIoError, "log flush failed");
  }
  uncommitted_ = 0;
  commits_->Inc();
  // Commit cadence keeps the gauges off the per-append hot path.
  PublishLogBytes();
  return Status::Ok();
}

Status OperationLog::CommitSync() {
  if (file_ == nullptr) {
    return Status(Code::kInvalidArgument, "log not open");
  }
  // A commit that only reached the page cache is not a commit: fsync so the
  // group is durable before the caller acks anything to a client.
  counter_known_ = false;  // until this commit's bump lands as expected
  const uint64_t t_fsync = obs::TimerStart();
  if (fsync(fileno(file_)) != 0) {
    return Status(Code::kIoError, "log fsync failed");
  }
  const uint64_t t_bump = obs::TimerStart();
  fsync_latency_->RecordCycles(t_bump - t_fsync);
  fsyncs_->Inc();
  // One counter bump per group — the amortization that makes fine-grained
  // logging viable (§7). Only now does the group become the one true
  // committed state.
  Result<uint64_t> bumped = counters_.Increment(static_cast<uint32_t>(counter_id_));
  counter_bump_latency_->RecordCycles(obs::TimerStart() - t_bump);
  if (!bumped.ok()) {
    return bumped.status();
  }
  if (bumped.value() != pending_commit_value_) {
    return Status(Code::kInternal, "log counter advanced outside a commit");
  }
  counter_value_ = bumped.value();
  counter_known_ = true;
  return Status::Ok();
}

Status OperationLog::Commit() {
  if (Status s = CommitPrepare(); !s.ok()) {
    return s;
  }
  return CommitSync();
}

Status OperationLog::Reset() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  std::remove(options_.path.c_str());
  chain_mac_ = crypto::Mac{};
  sequence_ = 0;
  uncommitted_ = 0;
  const int32_t keep_id = counter_id_;
  counter_id_ = -1;
  file_ = std::fopen(options_.path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status(Code::kIoError, "cannot recreate log");
  }
  counter_id_ = keep_id;
  uint8_t header[8];
  std::memcpy(header, kLogMagic, 4);
  StoreLe32(header + 4, static_cast<uint32_t>(counter_id_));
  if (std::fwrite(header, 1, 8, file_) != 8) {
    return Status(Code::kIoError, "cannot write log header");
  }
  log_bytes_.store(8, std::memory_order_relaxed);
  PublishLogBytes();
  // Bind the fresh epoch immediately so a replay of the *previous* log epoch
  // fails the counter check.
  return Commit();
}

Status OperationLog::Replay(const sgx::SealingService& sealer,
                            sgx::MonotonicCounterService& counters, const OpLogOptions& options,
                            kv::KeyValueStore& store) {
  int32_t counter_id = -1;
  crypto::Mac chain{};
  uint64_t seq = 0;
  // Buffer mutations between commits; only committed groups apply.
  std::vector<DecodedRecord> pending;
  uint64_t last_commit_value = 0;
  bool saw_commit = false;
  Status apply_status = Status::Ok();
  const Status scanned = ScanLog(
      options.path, sealer, &counter_id, &chain, &seq, [&](const DecodedRecord& record) {
        if (record.op == kOpCommit) {
          if (record.value.size() != 8) {
            apply_status = Status(Code::kIntegrityFailure, "commit record malformed");
            return false;
          }
          last_commit_value = LoadLe64(reinterpret_cast<const uint8_t*>(record.value.data()));
          saw_commit = true;
          for (const DecodedRecord& op : pending) {
            const Status s = op.op == kOpSet ? store.Set(op.key, op.value)
                                             : store.Delete(op.key);
            if (!s.ok() && s.code() != Code::kNotFound) {
              apply_status = s;
              return false;
            }
          }
          pending.clear();
          return true;
        }
        pending.push_back(record);
        return true;
      });
  if (!scanned.ok()) {
    return scanned;
  }
  if (!apply_status.ok()) {
    return apply_status;
  }
  // Rollback check: the newest committed group must match the live counter.
  Result<uint64_t> live = counters.Read(static_cast<uint32_t>(counter_id));
  if (!live.ok()) {
    return Status(Code::kRollbackDetected, "log counter missing");
  }
  const uint64_t expected = saw_commit ? last_commit_value : 0;
  if (live.value() == expected) {
    return Status::Ok();
  }
  if (saw_commit && live.value() + 1 == expected) {
    // The final commit record is durable but its counter bump was lost to a
    // crash between fsync and increment: complete the commit (roll forward),
    // exactly like Snapshotter::Recover's promotable pending pair. A stale
    // log cannot take this path — its commits are all at or below the live
    // counter — and a forged one cannot seal a valid record at all.
    Result<uint64_t> bumped = counters.Increment(static_cast<uint32_t>(counter_id));
    if (bumped.ok() && bumped.value() == expected) {
      return Status::Ok();
    }
  }
  return Status(Code::kRollbackDetected,
                "log commit value " + std::to_string(expected) + " != live counter " +
                    std::to_string(live.value()));
}

}  // namespace shield::shieldstore
