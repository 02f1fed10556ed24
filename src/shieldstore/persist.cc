#include "src/shieldstore/persist.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <functional>

#include "src/crypto/sha256.h"

namespace shield::shieldstore {
namespace {

constexpr char kMetaMagic[4] = {'S', 'S', 'P', '2'};
constexpr char kDataMagic[4] = {'S', 'S', 'D', '2'};
// Trailing footer on both files: [sha256 of all prior bytes:32]['SSF1':4].
constexpr char kFooterMagic[4] = {'S', 'S', 'F', '1'};
constexpr size_t kFooterBytes = crypto::kSha256Size + 4;

// AAD binding the sealed metadata to a specific counter, value, AND data
// file: mixing a metadata file with a data file from another generation
// fails to unseal instead of producing a frankenstein snapshot.
Bytes SnapshotAad(uint32_t id, uint64_t value, const crypto::Sha256Digest& data_sha) {
  Bytes aad(12 + crypto::kSha256Size);
  StoreLe32(aad.data(), id);
  StoreLe64(aad.data() + 4, value);
  std::memcpy(aad.data() + 12, data_sha.data(), data_sha.size());
  return aad;
}

// Streams writes through a SHA-256 accumulator so the footer can be appended
// without a second pass over the file.
class FooterWriter {
 public:
  explicit FooterWriter(FILE* f) : f_(f) {}

  bool Write(const void* p, size_t n) {
    if (!ok_) {
      return false;
    }
    ok_ = std::fwrite(p, 1, n, f_) == n;
    if (ok_ && n > 0) {
      hasher_.Update(ByteSpan(static_cast<const uint8_t*>(p), n));
    }
    return ok_;
  }

  bool FinishFooter(crypto::Sha256Digest* digest_out) {
    if (!ok_) {
      return false;
    }
    const crypto::Sha256Digest digest = hasher_.Finalize();
    ok_ = std::fwrite(digest.data(), 1, digest.size(), f_) == digest.size() &&
          std::fwrite(kFooterMagic, 1, 4, f_) == 4;
    if (digest_out != nullptr) {
      *digest_out = digest;
    }
    return ok_;
  }

 private:
  FILE* f_;
  crypto::Sha256 hasher_;
  bool ok_ = true;
};

// Writes `fill`'s output plus footer to `path` and makes it durable (fflush
// + fsync) before returning. Removes the file on any failure.
Status WriteDurableFile(const std::string& path,
                        const std::function<bool(FooterWriter&)>& fill,
                        crypto::Sha256Digest* digest_out) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status(Code::kIoError, "cannot open " + path);
  }
  FooterWriter writer(f);
  bool ok = fill(writer) && writer.FinishFooter(digest_out);
  ok = std::fflush(f) == 0 && ok;
  ok = fsync(fileno(f)) == 0 && ok;
  std::fclose(f);
  if (!ok) {
    std::remove(path.c_str());
    return Status(Code::kIoError, "cannot write " + path);
  }
  return Status::Ok();
}

Result<Bytes> ReadWholeFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status(Code::kNotFound, "no snapshot at " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  Bytes data(size > 0 ? static_cast<size_t>(size) : 0);
  const size_t got = data.empty() ? 0 : std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (got != data.size()) {
    return Status(Code::kIoError, "short read of " + path);
  }
  return data;
}

struct FooteredFile {
  Bytes content;                 // footer stripped
  crypto::Sha256Digest digest;   // verified hash of `content`
};

// Reads and authenticates a footered file. Distinguishes a torn/truncated
// write (kIoError: the footer itself is absent or incomplete) from content
// corruption under an intact footer (kIntegrityFailure).
Result<FooteredFile> LoadFooteredFile(const std::string& path) {
  Result<Bytes> raw = ReadWholeFile(path);
  if (!raw.ok()) {
    return raw.status();
  }
  Bytes& bytes = raw.value();
  if (bytes.size() < kFooterBytes ||
      std::memcmp(bytes.data() + bytes.size() - 4, kFooterMagic, 4) != 0) {
    return Status(Code::kIoError, "torn snapshot file (footer missing): " + path);
  }
  FooteredFile file;
  const size_t content_size = bytes.size() - kFooterBytes;
  file.digest = crypto::Sha256Hash(ByteSpan(bytes.data(), content_size));
  if (!ConstantTimeEqual(ByteSpan(file.digest.data(), crypto::kSha256Size),
                         ByteSpan(bytes.data() + content_size, crypto::kSha256Size))) {
    return Status(Code::kIntegrityFailure, "snapshot file content corrupted: " + path);
  }
  bytes.resize(content_size);
  file.content = std::move(bytes);
  return file;
}

// Reads just [magic][counter_id] off a metadata file, for counter adoption.
// Unauthenticated by design: a forged id only yields an unrecoverable
// snapshot later (denial of service an attacker with file access has anyway).
Result<uint32_t> PeekCounterId(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status(Code::kNotFound, "no file at " + path);
  }
  uint8_t header[8];
  const size_t got = std::fread(header, 1, sizeof(header), f);
  std::fclose(f);
  if (got != sizeof(header) || std::memcmp(header, kMetaMagic, 4) != 0) {
    return Status(Code::kInvalidArgument, "not a snapshot metadata file");
  }
  return LoadLe32(header + 4);
}

struct LoadedSnapshot {
  std::unique_ptr<Store> store;
  uint32_t counter_id = 0;
  bool pending = false;  // sealed == live + 1: commit increment was lost
};

// Attempts a full restore from one (meta, data) candidate pair.
Result<LoadedSnapshot> TryLoadPair(sgx::Enclave& enclave, const Options& options,
                                   const sgx::SealingService& sealer,
                                   sgx::MonotonicCounterService& counters,
                                   const std::string& meta_path,
                                   const std::string& data_path) {
  Result<FooteredFile> meta_file = LoadFooteredFile(meta_path);
  if (!meta_file.ok()) {
    return meta_file.status();
  }
  const Bytes& meta = meta_file->content;
  if (meta.size() < 16 || std::memcmp(meta.data(), kMetaMagic, 4) != 0) {
    return Status(Code::kIntegrityFailure, "metadata file corrupted");
  }
  const uint32_t counter_id = LoadLe32(meta.data() + 4);
  const uint64_t sealed_value = LoadLe64(meta.data() + 8);

  // Rollback check BEFORE trusting anything else: committed snapshots seal
  // the exact live value; live+1 marks a commit whose counter increment was
  // lost to a crash (decided by the caller after a full restore).
  Result<uint64_t> live = counters.Read(counter_id);
  if (!live.ok()) {
    return Status(Code::kRollbackDetected, "monotonic counter missing");
  }
  if (sealed_value != live.value() && sealed_value != live.value() + 1) {
    return Status(Code::kRollbackDetected, "snapshot counter value " +
                                               std::to_string(sealed_value) +
                                               " != live counter " +
                                               std::to_string(live.value()));
  }

  Result<FooteredFile> data_file = LoadFooteredFile(data_path);
  if (!data_file.ok()) {
    return data_file.status();
  }

  const Bytes aad = SnapshotAad(counter_id, sealed_value, data_file->digest);
  Result<Bytes> metadata = sealer.Unseal(ByteSpan(meta.data() + 16, meta.size() - 16), aad);
  if (!metadata.ok()) {
    return metadata.status();
  }

  LoadedSnapshot loaded;
  loaded.counter_id = counter_id;
  loaded.pending = sealed_value == live.value() + 1;
  loaded.store = std::make_unique<Store>(enclave, options);
  if (Status s = loaded.store->ImportSecureMetadata(metadata.value()); !s.ok()) {
    return s;
  }

  const Bytes& data = data_file->content;
  if (data.size() < 12 || std::memcmp(data.data(), kDataMagic, 4) != 0) {
    return Status(Code::kIntegrityFailure, "data file corrupted");
  }
  const uint64_t count = LoadLe64(data.data() + data.size() - 8);
  const size_t records_end = data.size() - 8;
  size_t offset = 4;
  for (uint64_t i = 0; i < count; ++i) {
    if (offset + 4 > records_end) {
      return Status(Code::kIntegrityFailure, "data file truncated");
    }
    const uint32_t len = LoadLe32(data.data() + offset);
    offset += 4;
    if (offset + len > records_end) {
      return Status(Code::kIntegrityFailure, "data file truncated");
    }
    if (Status s = loaded.store->RestoreEntry(ByteSpan(data.data() + offset, len)); !s.ok()) {
      return s;
    }
    offset += len;
  }
  if (offset != records_end) {
    return Status(Code::kIntegrityFailure, "trailing garbage in data file");
  }
  if (Status s = loaded.store->FinishRestore(); !s.ok()) {
    return s;
  }
  return loaded;
}

}  // namespace

void FsyncDirectory(const std::string& dir) {
  const int fd = open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    (void)fsync(fd);
    close(fd);
  }
}

Snapshotter::Snapshotter(Store& store, const sgx::SealingService& sealer,
                         sgx::MonotonicCounterService& counters, PersistOptions options)
    : store_(store), sealer_(sealer), counters_(counters), options_(std::move(options)) {
  CleanupTempArtifacts();
}

Snapshotter::~Snapshotter() {
  if (writer_.joinable()) {
    writer_.join();
  }
}

std::string Snapshotter::MetaPath() const {
  return options_.directory + "/shieldstore.meta";
}

std::string Snapshotter::DataPath() const {
  return options_.directory + "/shieldstore.data";
}

void Snapshotter::CleanupTempArtifacts() {
  // Stale .tmp twins from a crashed writer: by the time a Snapshotter exists
  // recovery has already run, so these are never the best generation.
  std::remove((MetaPath() + ".tmp").c_str());
  std::remove((DataPath() + ".tmp").c_str());
}

Status Snapshotter::WriteSnapshotFiles(uint64_t counter_value) {
  const std::string data_tmp = DataPath() + ".tmp";
  const std::string meta_tmp = MetaPath() + ".tmp";

  // 1. Data file first: its content hash is bound into the metadata seal.
  // §4.4: entries are already ciphertext in untrusted memory — stream them
  // out verbatim, no re-encryption.
  crypto::Sha256Digest data_sha{};
  Status written = WriteDurableFile(
      data_tmp,
      [&](FooterWriter& w) {
        bool ok = w.Write(kDataMagic, 4);
        uint64_t count = 0;
        store_.ForEachEntryRecord([&](ByteSpan record) {
          if (!ok) {
            return;
          }
          uint8_t len[4];
          StoreLe32(len, static_cast<uint32_t>(record.size()));
          ok = w.Write(len, 4) && w.Write(record.data(), record.size());
          ++count;
        });
        uint8_t count_bytes[8];
        StoreLe64(count_bytes, count);
        return ok && w.Write(count_bytes, 8);
      },
      &data_sha);
  if (!written.ok()) {
    return written;
  }

  // 2. Metadata, sealed against counter value and the data file's hash.
  const Bytes metadata = store_.ExportSecureMetadata();
  const Bytes sealed =
      sealer_.Seal(metadata, SnapshotAad(static_cast<uint32_t>(counter_id_), counter_value,
                                         data_sha));
  written = WriteDurableFile(
      meta_tmp,
      [&](FooterWriter& w) {
        bool ok = w.Write(kMetaMagic, 4);
        uint8_t header[12];
        StoreLe32(header, static_cast<uint32_t>(counter_id_));
        StoreLe64(header + 4, counter_value);
        ok = ok && w.Write(header, 12);
        return ok && w.Write(sealed.data(), sealed.size());
      },
      nullptr);
  if (!written.ok()) {
    std::remove(data_tmp.c_str());
    return written;
  }

  if (crash_point_ == CrashPoint::kAfterTempWrite) {
    // Simulated power loss: leave the durable .tmp pair in place, commit
    // nothing. (Real failures above clean up after themselves; a crash
    // cannot.)
    crash_point_ = CrashPoint::kNone;
    return Status(Code::kIoError, "injected crash after temp write");
  }

  // 3. Commit: demote the current generation to .prev, promote the .tmp
  // pair. A crash between any two renames leaves a state Recover() handles
  // via its candidate pairs.
  std::rename(DataPath().c_str(), (DataPath() + ".prev").c_str());
  std::rename(MetaPath().c_str(), (MetaPath() + ".prev").c_str());
  if (std::rename(data_tmp.c_str(), DataPath().c_str()) != 0 ||
      std::rename(meta_tmp.c_str(), MetaPath().c_str()) != 0) {
    std::remove(data_tmp.c_str());
    std::remove(meta_tmp.c_str());
    return Status(Code::kIoError, "cannot commit snapshot in " + options_.directory);
  }
  FsyncDirectory(options_.directory);

  if (crash_point_ == CrashPoint::kAfterRename) {
    // Simulated power loss between the rename commit and the counter bump:
    // the new generation is in place but sealed at live+1.
    crash_point_ = CrashPoint::kNone;
    return Status(Code::kIoError, "injected crash before counter increment");
  }

  // 4. Only now does the snapshot become the one true generation.
  Result<uint64_t> incremented = counters_.Increment(static_cast<uint32_t>(counter_id_));
  if (!incremented.ok()) {
    return incremented.status();
  }
  if (incremented.value() != counter_value) {
    return Status(Code::kInternal, "monotonic counter advanced unexpectedly");
  }
  return Status::Ok();
}

Status Snapshotter::StartSnapshot() {
  if (in_progress_) {
    return Status(Code::kInvalidArgument, "snapshot already in progress");
  }
  if (counter_id_ < 0) {
    // Adopt the counter bound to any existing snapshot in this directory:
    // creating a fresh counter per snapshotter would let an attacker replay
    // a stale snapshot against a counter that never advanced.
    Result<uint32_t> existing = PeekCounterId(MetaPath());
    if (!existing.ok()) {
      existing = PeekCounterId(MetaPath() + ".prev");
    }
    if (existing.ok()) {
      counter_id_ = static_cast<int32_t>(existing.value());
    } else {
      Result<uint32_t> id = counters_.CreateCounter();
      if (!id.ok()) {
        return id.status();
      }
      counter_id_ = static_cast<int32_t>(id.value());
    }
  }

  // The value this generation will commit: sealed before the increment so a
  // crash mid-snapshot is recoverable (see Recover's pending rule).
  Result<uint64_t> live = counters_.Read(static_cast<uint32_t>(counter_id_));
  if (!live.ok()) {
    return live.status();
  }
  const uint64_t pending_value = live.value() + 1;

  if (!options_.optimized) {
    // Naive persistence: the owner writes the data file inline; every
    // request issued meanwhile is simply stalled behind this call.
    Status s = WriteSnapshotFiles(pending_value);
    // Injected crashes leave artifacts on purpose; real failures must not.
    if (!s.ok() && s.message().find("injected crash") == std::string::npos) {
      CleanupTempArtifacts();
    }
    return s;
  }

  // Algorithm 1: freeze the main table behind a snapshot epoch first, then
  // stream data + seal metadata consistent with the frozen table from the
  // background writer.
  if (Status s = store_.BeginSnapshotEpoch(); !s.ok()) {
    return s;
  }
  in_progress_ = true;
  writer_done_.store(false, std::memory_order_release);
  writer_ = std::thread([this, pending_value] {
    writer_status_ = WriteSnapshotFiles(pending_value);
    writer_done_.store(true, std::memory_order_release);
  });
  return Status::Ok();
}

bool Snapshotter::WriterDone() const {
  return writer_done_.load(std::memory_order_acquire);
}

Status Snapshotter::FinishSnapshot(bool wait) {
  if (!in_progress_) {
    return Status::Ok();
  }
  if (!wait && !WriterDone()) {
    return Status(Code::kInvalidArgument, "writer still running");
  }
  writer_.join();
  in_progress_ = false;
  const Status writer_status = writer_status_;
  // Merge the epoch's temporary table back into the main table (Alg. 1
  // step: "update the main table with the temporary table").
  const Status merge = store_.EndSnapshotEpoch();
  if (!writer_status.ok()) {
    // Injected crashes leave artifacts on purpose; real failures must not.
    if (writer_status.message().find("injected crash") == std::string::npos) {
      CleanupTempArtifacts();
    }
    return writer_status;
  }
  return merge;
}

Status Snapshotter::SnapshotNow() {
  if (Status s = StartSnapshot(); !s.ok()) {
    return s;
  }
  return FinishSnapshot(/*wait=*/true);
}

Result<std::unique_ptr<Store>> Snapshotter::Recover(sgx::Enclave& enclave,
                                                    const Options& options,
                                                    const sgx::SealingService& sealer,
                                                    sgx::MonotonicCounterService& counters,
                                                    const PersistOptions& persist) {
  const std::string meta = persist.directory + "/shieldstore.meta";
  const std::string data = persist.directory + "/shieldstore.data";
  // Candidate generations, best first. Cross pairs cover crashes between the
  // two rename steps; the seal's data-hash AAD rejects any mismatched pair.
  const struct {
    std::string meta_path;
    std::string data_path;
    bool promotable;  // a pending current pair may be rolled forward
  } candidates[] = {
      {meta, data, true},
      {meta, data + ".prev", false},
      {meta + ".prev", data, false},
      {meta + ".prev", data + ".prev", false},
  };

  Status first_error;
  for (const auto& candidate : candidates) {
    Result<LoadedSnapshot> loaded = TryLoadPair(enclave, options, sealer, counters,
                                                candidate.meta_path, candidate.data_path);
    Status failure = loaded.ok() ? Status::Ok() : loaded.status();
    if (loaded.ok()) {
      if (!loaded->pending) {
        return std::move(loaded->store);
      }
      if (candidate.promotable) {
        // The generation is fully durable; only the commit increment was
        // lost. Complete the commit (roll forward) rather than discarding
        // a good snapshot.
        Result<uint64_t> bumped = counters.Increment(loaded->counter_id);
        if (bumped.ok()) {
          return std::move(loaded->store);
        }
        failure = bumped.status();
      } else {
        failure = Status(Code::kIoError, "snapshot never committed (crash before "
                                         "counter increment): " + candidate.meta_path);
      }
    }
    if (first_error.ok() && failure.code() != Code::kNotFound) {
      first_error = failure;
    }
  }
  if (!first_error.ok()) {
    return first_error;
  }
  return Status(Code::kNotFound, "no snapshot at " + persist.directory);
}

}  // namespace shield::shieldstore
