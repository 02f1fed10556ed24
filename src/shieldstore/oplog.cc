#include "src/shieldstore/oplog.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <vector>

#include "src/shieldstore/persist.h"

namespace shield::shieldstore {
namespace {

// Header: magic + the log's 32-bit generation, which also seeds its chain.
constexpr char kLogMagic[4] = {'S', 'S', 'L', '2'};
constexpr size_t kLogHeaderBytes = 8;
constexpr uint8_t kOpSet = 1;
constexpr uint8_t kOpDelete = 2;
constexpr char kEpochMagic[4] = {'S', 'S', 'E', '1'};
constexpr size_t kEpochHeaderBytes = 8;       // magic + counter id
constexpr size_t kEpochSlotBytes = 32 << 10;  // ~1000 shard heads per record

// AAD binding a record to its position: previous record's seal tag (the
// chain) plus the record sequence number.
Bytes ChainAad(const crypto::Mac& prev, uint64_t sequence) {
  Bytes aad(24);
  std::memcpy(aad.data(), prev.data(), 16);
  StoreLe64(aad.data() + 16, sequence);
  return aad;
}

// The chain before the first record: a header edited to another generation
// fails that record's authentication.
crypto::Mac ChainSeed(uint64_t generation) {
  crypto::Mac seed{};
  StoreLe64(seed.data(), generation);
  return seed;
}

Bytes EpochAad(uint32_t counter_id) {
  Bytes aad(8);
  std::memcpy(aad.data(), kEpochMagic, 4);
  StoreLe32(aad.data() + 4, counter_id);
  return aad;
}

// Makes a new directory entry under `path`'s parent durable.
void SyncParentDir(const std::string& path) {
  FsyncDirectory(std::filesystem::path(path).parent_path().string());
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

Status ApplyMutation(const DecodedRecord& r, kv::KeyValueStore& store) {
  const Status s = r.op == kOpSet ? store.Set(r.key, r.value) : store.Delete(r.key);
  return s.code() == Code::kNotFound ? Status::Ok() : s;
}

// What a scan read: the header, then the chain state and byte length of
// the authenticated prefix.
struct LogScan {
  uint64_t generation = 0;
  crypto::Mac chain{};
  uint64_t sequence = 0;
  uint64_t bytes = 0;
};

// Streams authenticated records, stopping cleanly at a torn/truncated tail
// or after `limit` records. `cb` returns false to abort; `scan->generation`
// is set before the first call.
Status ScanLog(const std::string& path, const sgx::SealingService& sealer, uint64_t limit,
               LogScan* scan, const std::function<bool(const DecodedRecord&)>& cb) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status(Code::kNotFound, "no log at " + path);
  }
  uint8_t header[kLogHeaderBytes];
  const size_t header_read = std::fread(header, 1, sizeof(header), f);
  if (header_read == 0 && std::feof(f)) {
    // Empty file: a process killed before its first group commit leaves the
    // buffered header unwritten. Commits fsync the whole file, so an empty
    // log proves no record was ever durable — safe to start fresh.
    std::fclose(f);
    return Status(Code::kNotFound, "empty log at " + path);
  }
  if (header_read != sizeof(header) || std::memcmp(header, kLogMagic, 4) != 0) {
    std::fclose(f);
    return Status(Code::kIntegrityFailure, "log header corrupted in " + path);
  }
  scan->generation = LoadLe32(header + 4);
  crypto::Mac chain = ChainSeed(scan->generation);
  uint64_t seq = 0;
  uint64_t bytes = kLogHeaderBytes;
  std::vector<uint8_t> frame;
  while (seq < limit) {
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
    bytes += 4 + len;
    if (!cb(*record)) {
      break;
    }
  }
  std::fclose(f);
  scan->chain = chain;
  scan->sequence = seq;
  scan->bytes = bytes;
  return Status::Ok();
}

// The file holding `head` — `path`, or the unpromoted `<path>.next` of a
// generation switch — after applying its first head.sequence records to
// `store` (nullptr: check only). `*prefix_bytes` gets their length.
Result<std::string> FindPrefix(const sgx::SealingService& sealer, const std::string& path,
                               const LogHead& head, kv::KeyValueStore* store,
                               uint64_t* prefix_bytes) {
  for (const std::string& candidate : {path, path + ".next"}) {
    LogScan scan;
    Status applied;
    const Status scanned =
        ScanLog(candidate, sealer, head.sequence, &scan, [&](const DecodedRecord& r) {
          applied = scan.generation != head.generation ? Status(Code::kRollbackDetected, "")
                    : store != nullptr                 ? ApplyMutation(r, *store)
                                                       : Status::Ok();
          return applied.ok();
        });
    if (scanned.code() == Code::kNotFound ||
        (scanned.ok() && scan.generation != head.generation)) {
      continue;
    }
    if (!scanned.ok() || !applied.ok()) {
      return !scanned.ok() ? scanned : applied;
    }
    if (scan.sequence < head.sequence || scan.chain != head.mac) {
      return Status(Code::kRollbackDetected, "shard log " + candidate + " is behind its epoch (" +
                                                 std::to_string(head.sequence) + " records)");
    }
    if (prefix_bytes != nullptr) {
      *prefix_bytes = scan.bytes;
    }
    return candidate;
  }
  return Status(Code::kRollbackDetected, "shard log " + path + " does not hold generation " +
                                             std::to_string(head.generation));
}

}  // namespace

OperationLog::OperationLog(const sgx::SealingService& sealer,
                           sgx::MonotonicCounterService& counters, const OpLogOptions& options)
    : OperationLog(sealer, options) {
  path_ = EpochLog::ShardPath(options.path, 0);
  epoch_log_ = std::make_unique<EpochLog>(sealer, counters, options.path);
}

OperationLog::OperationLog(const sgx::SealingService& sealer, const OpLogOptions& options)
    : sealer_(sealer), path_(options.path) {
  obs::Registry* reg = options.metrics != nullptr ? options.metrics : &obs::Registry::Global();
  records_ = &reg->GetCounter("wal.records");
  commits_ = &reg->GetCounter("wal.commits");
  fsyncs_ = &reg->GetCounter("wal.fsyncs");
  log_bytes_gauge_ = &reg->GetGauge("wal.log_bytes");
  fsync_latency_ = &reg->GetHistogram("wal.fsync_ns");
  if (options.shard_index >= 0) {
    const std::string prefix = "wal.shard" + std::to_string(options.shard_index) + ".";
    shard_records_ = &reg->GetCounter(prefix + "records");
    shard_log_bytes_ = &reg->GetGauge(prefix + "log_bytes");
  }
}

OperationLog::~OperationLog() {
  if (file_ != nullptr) {
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

Status OperationLog::CreateFile(const std::string& path) {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status(Code::kIoError, "cannot create log " + path);
  }
  uint8_t header[kLogHeaderBytes];
  std::memcpy(header, kLogMagic, 4);
  StoreLe32(header + 4, static_cast<uint32_t>(generation_));
  // Make the header durable immediately: after any crash the log is either
  // empty (fresh start) or begins with a valid header — never a torn one.
  if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header) ||
      std::fflush(file_) != 0 || fsync(fileno(file_)) != 0) {
    return Status(Code::kIoError, "cannot write log header");
  }
  SyncParentDir(path);  // an epoch may name this file next
  chain_mac_ = ChainSeed(generation_);
  sequence_ = 0;
  uncommitted_ = 0;
  log_bytes_.store(kLogHeaderBytes, std::memory_order_relaxed);
  PublishLogBytes();
  return Status::Ok();
}

Status OperationLog::Open() {
  if (epoch_log_ != nullptr) {
    Result<Epoch> epoch = epoch_log_->Open();
    if (!epoch.ok()) {
      return epoch.status();
    }
    epoch_ = epoch->value;
    if (!epoch->heads.empty()) {
      return Resume(epoch->heads[0]);
    }
  }
  generation_ = 1;
  std::remove((path_ + ".next").c_str());
  return CreateFile(path_);
}

Status OperationLog::Resume(const LogHead& head) {
  uint64_t prefix_bytes = 0;
  Result<std::string> held = FindPrefix(sealer_, path_, head, nullptr, &prefix_bytes);
  if (!held.ok()) {
    return held.status();
  }
  // A `.next` the epoch binds becomes the log (a crash before Promote); one
  // it does not bind is dropped. So is every record past the head.
  if (*held == path_) {
    std::remove((path_ + ".next").c_str());
  } else if (std::rename(held->c_str(), path_.c_str()) != 0) {
    return Status(Code::kIoError, "cannot promote " + *held);
  }
  if (::truncate(path_.c_str(), static_cast<off_t>(prefix_bytes)) != 0 ||
      (file_ = std::fopen(path_.c_str(), "ab")) == nullptr) {
    return Status(Code::kIoError, "cannot reopen " + path_);
  }
  generation_ = head.generation;
  chain_mac_ = head.mac;
  sequence_ = head.sequence;
  log_bytes_.store(prefix_bytes, std::memory_order_relaxed);
  PublishLogBytes();
  return Status::Ok();
}

Status OperationLog::AppendMutation(uint8_t op, std::string_view key, std::string_view value) {
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

Status OperationLog::CommitPrepare() {
  if (file_ == nullptr) {
    return Status(Code::kInvalidArgument, "log not open");
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
  const uint64_t t_fsync = obs::TimerStart();
  if (fsync(fileno(file_)) != 0) {
    return Status(Code::kIoError, "log fsync failed");
  }
  fsync_latency_->RecordCycles(obs::TimerStart() - t_fsync);
  fsyncs_->Inc();
  if (epoch_log_ == nullptr) {
    return Status::Ok();  // the WAL's epoch binds this group
  }
  // One counter bump per group — the amortization that makes fine-grained
  // logging viable (§7). The epoch is durable before its bump, so a crash
  // between the two rolls forward (EpochLog::Recover).
  const Epoch next{epoch_ + 1, {head()}};
  if (Status s = epoch_log_->Write(next); !s.ok()) {
    return s;
  }
  if (Status s = epoch_log_->Bump(next.value); !s.ok()) {
    return s;
  }
  epoch_ = next.value;
  return Status::Ok();
}

Status OperationLog::Commit() {
  if (Status s = CommitPrepare(); !s.ok()) {
    return s;
  }
  return CommitSync();
}

Status OperationLog::Reset() {
  if (file_ == nullptr) {
    return Status(Code::kInvalidArgument, "log not open");
  }
  // The old generation stays in place until an epoch binds the new one.
  ++generation_;
  if (Status s = CreateFile(path_ + ".next"); !s.ok()) {
    return s;
  }
  if (Status s = Commit(); !s.ok() || epoch_log_ == nullptr) {
    return s;
  }
  return Promote();
}

Status OperationLog::Promote() {
  const std::string next = path_ + ".next";
  if (std::rename(next.c_str(), path_.c_str()) != 0) {
    return Status(Code::kIoError, "cannot promote " + next);
  }
  return Status::Ok();
}

Status OperationLog::Replay(const sgx::SealingService& sealer,
                            sgx::MonotonicCounterService& counters, const OpLogOptions& options,
                            kv::KeyValueStore& store) {
  Result<Epoch> epoch = EpochLog::Recover(sealer, counters, options.path);
  if (!epoch.ok() || epoch->heads.empty()) {
    return epoch.status();  // no epoch names a record yet: nothing to replay
  }
  return ReplayPrefix(sealer, EpochLog::ShardPath(options.path, 0), epoch->heads[0], &store);
}

Status OperationLog::ReplayPrefix(const sgx::SealingService& sealer, const std::string& path,
                                  const LogHead& head, kv::KeyValueStore* store) {
  return FindPrefix(sealer, path, head, store, nullptr).status();
}

// ------------------------------------------------------------ counter epochs

EpochLog::EpochLog(const sgx::SealingService& sealer, sgx::MonotonicCounterService& counters,
                   std::string wal_path)
    : sealer_(sealer), counters_(counters), wal_path_(std::move(wal_path)) {}

EpochLog::~EpochLog() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Result<Epoch> EpochLog::Open() {
  const std::string path = wal_path_ + ".epoch";
  Result<Epoch> epoch = Recover(sealer_, counters_, wal_path_, &counter_id_);
  const bool fresh = epoch.status().code() == Code::kNotFound;
  if (fresh) {
    // A fresh WAL: its counter (at 0) and epoch 0 exist before any shard log.
    Result<uint32_t> id = counters_.CreateCounter();
    if (!id.ok()) {
      return id.status();
    }
    counter_id_ = *id;
    epoch = Epoch{};
  }
  if (!epoch.ok()) {
    return epoch.status();
  }
  uint8_t header[kEpochHeaderBytes];
  std::memcpy(header, kEpochMagic, 4);
  StoreLe32(header + 4, counter_id_);
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  const bool written = !fresh || (::pwrite(fd_, header, sizeof(header), 0) == sizeof(header) &&
                                  Write(*epoch).ok());
  if (fd_ < 0 || !written) {
    return Status(Code::kIoError, "cannot open " + path);
  }
  SyncParentDir(path);
  return epoch;
}

Status EpochLog::Write(const Epoch& epoch) {
  Bytes plain(12 + epoch.heads.size() * 32);
  StoreLe64(plain.data(), epoch.value);
  StoreLe32(plain.data() + 8, static_cast<uint32_t>(epoch.heads.size()));
  for (size_t i = 0; i < epoch.heads.size(); ++i) {
    uint8_t* p = plain.data() + 12 + i * 32;
    StoreLe64(p, epoch.heads[i].generation);
    StoreLe64(p + 8, epoch.heads[i].sequence);
    std::memcpy(p + 16, epoch.heads[i].mac.data(), 16);
  }
  Bytes slot(4);
  StoreLe32(slot.data(), static_cast<uint32_t>(plain.size()));
  const Bytes sealed = sealer_.Seal(plain, EpochAad(counter_id_));
  slot.insert(slot.end(), sealed.begin(), sealed.end());
  if (slot.size() > kEpochSlotBytes) {
    return Status(Code::kInvalidArgument, "too many shards for one epoch record");
  }
  const auto offset = static_cast<off_t>(kEpochHeaderBytes + (epoch.value % 2) * kEpochSlotBytes);
  if (::pwrite(fd_, slot.data(), slot.size(), offset) != static_cast<ssize_t>(slot.size()) ||
      ::fdatasync(fd_) != 0) {
    return Status(Code::kIoError, "epoch record write failed");
  }
  return Status::Ok();
}

Status EpochLog::Bump(uint64_t value) {
  Result<uint64_t> bumped = counters_.Increment(counter_id_);
  if (bumped.ok() && *bumped != value) {
    return Status(Code::kInternal, "epoch counter advanced outside the bumper");
  }
  return bumped.status();
}

Result<Epoch> EpochLog::Recover(const sgx::SealingService& sealer,
                                sgx::MonotonicCounterService& counters,
                                const std::string& wal_path, uint32_t* counter_id) {
  std::vector<uint8_t> file(kEpochHeaderBytes + 2 * kEpochSlotBytes);
  FILE* f = std::fopen((wal_path + ".epoch").c_str(), "rb");
  file.resize(f != nullptr ? std::fread(file.data(), 1, file.size(), f) : 0);
  if (f != nullptr) {
    std::fclose(f);
  }
  const bool header_ok =
      file.size() >= kEpochHeaderBytes && std::memcmp(file.data(), kEpochMagic, 4) == 0;
  const uint32_t id = header_ok ? LoadLe32(file.data() + 4) : 0;
  std::vector<Epoch> records;  // both slots; a torn or forged one does not count
  for (size_t at = kEpochHeaderBytes; header_ok && at + 4 <= file.size(); at += kEpochSlotBytes) {
    const size_t len = std::min<size_t>(LoadLe32(file.data() + at) + sgx::SealingService::kOverhead,
                                        file.size() - at - 4);
    Result<Bytes> plain = sealer.Unseal(ByteSpan(file.data() + at + 4, len), EpochAad(id));
    if (!plain.ok() || plain->size() != 12 + size_t{LoadLe32(plain->data() + 8)} * 32) {
      continue;
    }
    Epoch& epoch = records.emplace_back();
    epoch.value = LoadLe64(plain->data());
    for (const uint8_t* p = plain->data() + 12; p < plain->data() + plain->size(); p += 32) {
      epoch.heads.push_back({LoadLe64(p), LoadLe64(p + 8), {}});
      std::memcpy(epoch.heads.back().mac.data(), p + 16, 16);
    }
  }
  if (records.empty()) {
    // No epoch: a fresh WAL — unless a shard log exists (a release before
    // counter epochs, or its epoch file removed): its acked records must
    // never be dropped silently.
    const std::string shard = ShardPath(wal_path, 0);
    return std::filesystem::exists(shard)
               ? Status(Code::kUnsupported, "shard log " + shard +
                                                " has no counter epoch (a release before "
                                                "counter epochs, or its epoch file removed)")
               : Status(Code::kNotFound, "no epoch file for " + wal_path);
  }
  Result<uint64_t> live = counters.Read(id);
  if (!live.ok()) {
    return Status(Code::kRollbackDetected, "epoch counter missing");
  }
  std::sort(records.begin(), records.end(),
            [](const Epoch& a, const Epoch& b) { return a.value > b.value; });
  for (Epoch& epoch : records) {
    Status held = epoch.value <= *live + 1 ? Status::Ok()
                                           : Status(Code::kRollbackDetected, "never bumped");
    for (size_t i = 0; i < epoch.heads.size() && held.ok(); ++i) {
      held = OperationLog::ReplayPrefix(sealer, ShardPath(wal_path, i), epoch.heads[i], nullptr);
    }
    if (held.code() == Code::kRollbackDetected) {
      continue;  // written, but never acked
    }
    if (!held.ok() || epoch.value < *live) {
      return held.ok() ? Status(Code::kRollbackDetected,
                                "epoch " + std::to_string(epoch.value) +
                                    " is behind the live counter " + std::to_string(*live))
                       : held;  // tampered inside a prefix
    }
    if (epoch.value > *live) {
      // Fsync'd, but its bump was lost to a crash: complete it.
      Result<uint64_t> bumped = counters.Increment(id);
      if (!bumped.ok() || *bumped != epoch.value) {
        return Status(Code::kRollbackDetected, "epoch counter moved during recovery");
      }
    }
    if (counter_id != nullptr) {
      *counter_id = id;
    }
    return std::move(epoch);
  }
  return Status(Code::kRollbackDetected, "no epoch at the live counter " +
                                             std::to_string(*live) + " held by the shard logs");
}

}  // namespace shield::shieldstore
