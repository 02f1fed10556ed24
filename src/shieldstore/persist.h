// Snapshot persistence (§4.4, Algorithm 1), crash-safe edition.
//
// Snapshotter is the paper's persistence artifact: bench_fig19, the examples
// and the crash-safety tests drive it. The durable daemon does not: its one
// durable format is the mmap'd arena with sealed cold copies plus the WAL
// (PartitionedStore::CheckpointPartition, selfheal.h).
//
// A snapshot consists of:
//  * a metadata file: the sealed secure metadata (store keys + MAC hash
//    array). The seal's AAD binds the monotonic-counter id, the counter
//    value, and the SHA-256 of the data file's content — so a stale sealed
//    value fails the rollback check AND mixing metadata with a data file
//    from a different generation fails to unseal; and
//  * a data file: the encrypted entries copied VERBATIM from untrusted
//    memory. This is the paper's headline persistence win: the key-value
//    data is already encrypted and integrity-protected, so the snapshot
//    writes it without any re-encryption.
//
// Crash safety: both files are written to `.tmp` twins, fsync'd, and carry a
// trailing footer [sha256 of all prior bytes | 'SSF1'] so a torn write is
// distinguishable (kIoError) from malicious corruption (kIntegrityFailure).
// Commit then renames current -> .prev and .tmp -> current, fsyncs the
// directory, and only then increments the monotonic counter. Recover() walks
// the candidate (meta, data) pairs — current, then current/previous cross
// pairs, then previous — and accepts the first one whose footers verify,
// whose seal opens, and whose sealed counter value matches the live counter.
// A pair sealed at live+1 is a snapshot whose commit increment was lost to a
// crash: if the current pair restores fully, Recover completes the commit
// (increments the counter — roll-forward); otherwise recovery falls back to
// the previous generation, which is equivalent to the interrupted snapshot
// never having happened. Committed generations can never be rolled back:
// their sealed value is below the live counter forever after.
//
// Two modes reproduce Figure 19:
//  * naive: the owner thread writes everything inline; requests stall.
//  * optimized (Algorithm 1): the owner opens a snapshot epoch (writes are
//    absorbed by a temporary table, §4.4), a background writer streams the
//    now-immutable main table to disk, and the epoch is merged back on
//    completion. The paper forks for copy-on-write isolation; the epoch's
//    temporary table provides the same isolation in one address space
//    (substitution documented in DESIGN.md).
#ifndef SHIELDSTORE_SRC_SHIELDSTORE_PERSIST_H_
#define SHIELDSTORE_SRC_SHIELDSTORE_PERSIST_H_

#include <memory>
#include <string>
#include <thread>

#include "src/sgx/counter.h"
#include "src/sgx/seal.h"
#include "src/shieldstore/store.h"

namespace shield::shieldstore {

// Makes the directory entries created or renamed under `dir` durable
// (best effort: an unopenable directory is skipped).
void FsyncDirectory(const std::string& dir);

struct PersistOptions {
  std::string directory;  // must exist
  bool optimized = true;  // Algorithm 1 vs blocking writes
};

class Snapshotter {
 public:
  // The counter id is created on first snapshot and stored in the metadata
  // file alongside its sealed blob. Construction also removes stale `.tmp`
  // artifacts a crashed writer may have left in the directory.
  Snapshotter(Store& store, const sgx::SealingService& sealer,
              sgx::MonotonicCounterService& counters, PersistOptions options);
  ~Snapshotter();

  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  // Owner-thread API. In optimized mode StartSnapshot returns as soon as the
  // epoch is open and the writer is running; call FinishSnapshot(wait) from
  // the owner thread to merge once done. In naive mode StartSnapshot blocks
  // until everything is on disk.
  Status StartSnapshot();
  bool WriterDone() const;
  Status FinishSnapshot(bool wait);
  bool InProgress() const { return in_progress_; }

  // Convenience: full blocking cycle in either mode.
  Status SnapshotNow();

  // Fault injection (tests): abort the next snapshot at a crash point, as if
  // the process died there — temp/renamed files are left behind exactly as a
  // real crash would leave them. One-shot; cleared after it fires.
  enum class CrashPoint {
    kNone,
    kAfterTempWrite,  // durable .tmp pair written; no rename, no increment
    kAfterRename,     // files renamed into place; counter never incremented
  };
  void InjectCrash(CrashPoint point) { crash_point_ = point; }

  // Rebuilds a store from the latest recoverable snapshot generation.
  // Fails with kRollbackDetected when every candidate's sealed counter value
  // is stale, kIntegrityFailure when content fails its footer hash, MAC, or
  // seal, and kIoError when a file is torn/truncated with no good fallback.
  static Result<std::unique_ptr<Store>> Recover(sgx::Enclave& enclave, const Options& options,
                                                const sgx::SealingService& sealer,
                                                sgx::MonotonicCounterService& counters,
                                                const PersistOptions& persist);

  std::string MetaPath() const;
  std::string DataPath() const;

 private:
  // Writes the .tmp pair, commits via renames, then increments the counter.
  // Honors crash_point_ between the stages.
  Status WriteSnapshotFiles(uint64_t counter_value);
  void CleanupTempArtifacts();

  Store& store_;
  const sgx::SealingService& sealer_;
  sgx::MonotonicCounterService& counters_;
  PersistOptions options_;
  int32_t counter_id_ = -1;
  CrashPoint crash_point_ = CrashPoint::kNone;

  bool in_progress_ = false;
  std::thread writer_;
  std::atomic<bool> writer_done_{false};
  Status writer_status_;
};

}  // namespace shield::shieldstore

#endif  // SHIELDSTORE_SRC_SHIELDSTORE_PERSIST_H_
