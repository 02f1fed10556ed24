#include "src/shieldstore/partitioned.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>

#include "src/obs/audit.h"
#include "src/shieldstore/persist.h"

namespace shield::shieldstore {
namespace {

// Replays a full-keyspace operation log into one partition: forwards only
// the keys the partition owns, silently accepting the rest.
class PartitionFilterStore : public kv::KeyValueStore {
 public:
  PartitionFilterStore(kv::KeyValueStore& target, std::function<bool(std::string_view)> owns)
      : target_(target), owns_(std::move(owns)) {}

  Status Set(std::string_view key, std::string_view value) override {
    return owns_(key) ? target_.Set(key, value) : Status::Ok();
  }
  Result<std::string> Get(std::string_view key) override { return target_.Get(key); }
  Status Delete(std::string_view key) override {
    return owns_(key) ? target_.Delete(key) : Status::Ok();
  }
  Status Append(std::string_view key, std::string_view suffix) override {
    return owns_(key) ? target_.Append(key, suffix) : Status::Ok();
  }
  size_t Size() const override { return target_.Size(); }
  std::string Name() const override { return "partition-filter"; }

 private:
  kv::KeyValueStore& target_;
  std::function<bool(std::string_view)> owns_;
};

// AAD binding an arena checkpoint's sealed metadata to its partition, its
// monotonic counter and the counter value the commit will hold (V+1) — the
// same live/live+1 window Snapshotter uses for roll-forward vs rollback.
Bytes ArenaAad(uint64_t partition, uint32_t counter_id, uint64_t value) {
  Bytes aad(4 + 8 + 4 + 8);
  std::memcpy(aad.data(), "SSA1", 4);
  StoreLe64(aad.data() + 4, partition);
  StoreLe32(aad.data() + 12, counter_id);
  StoreLe64(aad.data() + 16, value);
  return aad;
}

// AAD for the sealed route key and partition count (`<wal path>.route`).
constexpr char kRouteAad[] = "SSRT2";

// Writes `data` as the first bytes of a `file_bytes`-long file at `path`
// (the rest stays a hole): a temp file, fsync, rename, directory fsync, so a
// crash leaves the old file or the new one. The one writer of cold copies,
// of their restore over a live heap file and of the sealed route key.
Status WriteExtent(const std::string& path, ByteSpan data, uint64_t file_bytes,
                   PartitionedStore::ColdCopyCrash crash = PartitionedStore::ColdCopyCrash::kNone) {
  const std::string tmp = path + ".tmp";
  const int fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status(Code::kIoError, "cannot create " + tmp);
  }
  bool ok = ftruncate(fd, static_cast<off_t>(file_bytes)) == 0;
  for (size_t done = 0; ok && done < data.size();) {
    const ssize_t n = pwrite(fd, data.data() + done, data.size() - done, static_cast<off_t>(done));
    ok = n > 0;
    done += ok ? static_cast<size_t>(n) : 0;
  }
  ok = ok && fsync(fd) == 0;
  close(fd);
  if (!ok) {
    return Status(Code::kIoError, "cannot write " + tmp);
  }
  if (crash == PartitionedStore::ColdCopyCrash::kAfterTempWrite) {
    return Status(Code::kIoError, "injected crash after the cold-copy temp write");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status(Code::kIoError, "cannot rename " + tmp);
  }
  FsyncDirectory(std::filesystem::path(path).parent_path().string());
  if (crash == PartitionedStore::ColdCopyCrash::kAfterRename) {
    return Status(Code::kIoError, "injected crash after the cold-copy rename");
  }
  return Status::Ok();
}

// Lays the cold copy at `cold` over the live heap file `live`. The copy's
// data ends at its first hole (WriteExtent wrote one contiguous extent); a
// file system without holes reports the file's end, and the whole file is
// copied.
Status RestoreColdCopy(const std::string& cold, const std::string& live) {
  const int fd = open(cold.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status(Code::kNotFound, "no cold copy at " + cold);
  }
  struct stat st{};
  const off_t extent = fstat(fd, &st) == 0 ? lseek(fd, 0, SEEK_HOLE) : -1;
  void* map = extent > 0 ? mmap(nullptr, static_cast<size_t>(extent), PROT_READ, MAP_PRIVATE, fd, 0)
                         : MAP_FAILED;
  close(fd);
  if (map == MAP_FAILED) {
    return Status(Code::kIntegrityFailure, "cold copy unreadable: " + cold);
  }
  const Status written =
      WriteExtent(live, ByteSpan(static_cast<const uint8_t*>(map), static_cast<size_t>(extent)),
                  static_cast<uint64_t>(st.st_size));
  munmap(map, static_cast<size_t>(extent));
  return written;
}

}  // namespace

PartitionedStore::PartitionedStore(sgx::Enclave& enclave, const Options& options,
                                   size_t partitions)
    : enclave_(enclave), base_options_(options), persist_(!options.persist_dir.empty()) {
  enclave_.ReadRand(MutableByteSpan(route_key_.data(), route_key_.size()));
  metrics_ = options.metrics != nullptr ? options.metrics : &obs::Registry::Global();
  scrub_cycles_ = &metrics_->GetCounter("store.scrub_cycles");
  quarantined_count_ = &metrics_->GetGauge("store.quarantined");
  const size_t count = std::max<size_t>(partitions, 1);
  Options per_partition = PartitionOptions(count);
  if (persist_) {
    std::error_code ec;
    std::filesystem::create_directories(base_options_.persist_dir, ec);
  }
  for (size_t i = 0; i < count; ++i) {
    bool usable = true;
    per_partition.arena = nullptr;
    if (persist_) {
      auto arena = std::make_unique<alloc::PersistentArena>();
      usable = arena->Open(HeapPath(i), base_options_.persist_capacity_bytes, i,
                           per_partition.num_buckets)
                   .ok();
      // An unusable heap file (corrupt superblock, geometry drift, IO error)
      // leaves the partition volatile and quarantined: it serves again only
      // once RecoverPartition has laid its cold copy over the file.
      per_partition.arena = usable ? arena.get() : nullptr;
      arenas_.push_back(usable ? std::move(arena) : nullptr);
    }
    partitions_.push_back(std::make_unique<Store>(enclave_, per_partition));
    locks_.push_back(std::make_unique<std::mutex>());
    quarantined_.push_back(std::make_unique<std::atomic<bool>>(false));
    if (!usable) {
      SetQuarantined(i, true);
    }
  }
  metrics_->GetGauge("store.partitions").Set(static_cast<int64_t>(count));
}

Options PartitionedStore::PartitionOptions(size_t count) const {
  Options per_partition = base_options_;
  per_partition.num_buckets = std::max<size_t>(base_options_.num_buckets / count, 1);
  per_partition.num_mac_hashes =
      base_options_.num_mac_hashes == 0
          ? 0
          : std::max<size_t>(base_options_.num_mac_hashes / count, 1);
  per_partition.cache_bytes = base_options_.cache_bytes / count;
  per_partition.cache_slots = base_options_.cache_slots / count;
  return per_partition;
}

std::string PartitionedStore::HeapPath(size_t p) const {
  return base_options_.persist_dir + "/p" + std::to_string(p) + ".heap";
}

std::string PartitionedStore::ColdPath(const std::string& cold_dir, size_t p) {
  return cold_dir + "/p" + std::to_string(p) + ".heap";
}

Status PartitionedStore::LoadOrCreateRouteKey(const sgx::SealingService& sealer,
                                              const std::string& path) {
  const ByteSpan aad(reinterpret_cast<const uint8_t*>(kRouteAad), sizeof(kRouteAad) - 1);
  if (std::filesystem::exists(path)) {
    std::ifstream in(path, std::ios::binary);
    const Bytes blob((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    Result<Bytes> sealed = sealer.Unseal(blob, aad);
    if (!sealed.ok()) {
      return sealed.status();
    }
    if (sealed.value().size() != route_key_.size() + 8) {
      return Status(Code::kIntegrityFailure, "sealed route key malformed: " + path);
    }
    const uint64_t sealed_count = LoadLe64(sealed.value().data() + route_key_.size());
    if (sealed_count != partitions_.size()) {
      // The chains (and every shard log's records) were placed for that
      // count: serving with another one would route keys into chains that
      // do not hold them.
      return Status(Code::kInvalidArgument,
                    "heal directory was written with " + std::to_string(sealed_count) +
                        " partitions, this store has " + std::to_string(partitions_.size()) +
                        "; restart with --partitions " + std::to_string(sealed_count));
    }
    std::memcpy(route_key_.data(), sealed.value().data(), route_key_.size());
    return Status::Ok();
  }
  // First boot: persist this process's random route key, bound to the
  // partition count, so later boots route identically.
  Bytes sealed(route_key_.size() + 8);
  std::memcpy(sealed.data(), route_key_.data(), route_key_.size());
  StoreLe64(sealed.data() + route_key_.size(), partitions_.size());
  const Bytes blob_out = sealer.Seal(sealed, aad);
  return WriteExtent(path, blob_out, blob_out.size());
}

size_t PartitionedStore::PartitionOf(std::string_view key) const {
  const uint64_t h = crypto::SipHash24(route_key_, AsBytes(key));
  // Contiguous division of the hash space: hash / (2^64 / P).
  return static_cast<size_t>(
      (static_cast<unsigned __int128>(h) * partitions_.size()) >> 64);
}

void PartitionedStore::NoteOutcome(size_t p, const Status& s) {
  if (IsTamperEvidence(s)) {
    if (SetQuarantined(p, true)) {
      // Transition only: a quarantined partition fast-fails every op, so
      // auditing each outcome would flood the chain with duplicates.
      obs::AuditEvent(obs::AuditType::kQuarantineEnter,
                      "partition " + std::to_string(p) + " quarantined: " + s.message());
    }
  }
}

Status PartitionedStore::QuarantineGuard(size_t p) const {
  if (quarantined_[p]->load(std::memory_order_acquire)) {
    // Typed fast-fail: the partition is quarantined and (in a self-healing
    // deployment) being rebuilt; the operation was not applied and is safe
    // to retry once recovery re-admits the partition.
    return Status(Code::kPartitionRecovering,
                  "partition " + std::to_string(p) + " is quarantined pending recovery");
  }
  return Status::Ok();
}

bool PartitionedStore::IsQuarantined(size_t p) const {
  return p < quarantined_.size() && quarantined_[p]->load(std::memory_order_acquire);
}

size_t PartitionedStore::QuarantinedCount() const {
  size_t count = 0;
  for (const auto& flag : quarantined_) {
    count += flag->load(std::memory_order_acquire) ? 1 : 0;
  }
  return count;
}

bool PartitionedStore::SetQuarantined(size_t p, bool quarantined) {
  if (quarantined_[p]->exchange(quarantined, std::memory_order_release) == quarantined) {
    return false;
  }
  quarantined_count_->Add(quarantined ? 1 : -1);
  // One gauge per partition ever quarantined: operators see WHICH partition
  // is recovering, not just how many. Never-quarantined partitions emit
  // nothing. Registered here, on the rare transition path.
  metrics_->GetGauge("store.partition." + std::to_string(p) + ".quarantined")
      .Set(quarantined ? 1 : 0);
  return true;
}

Status PartitionedStore::ScrubAll() {
  Status first;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    std::lock_guard<std::mutex> lock(*locks_[p]);
    if (Status g = QuarantineGuard(p); !g.ok()) {
      if (first.ok()) {
        first = g;
      }
      continue;
    }
    const Store::ScrubReport report = partitions_[p]->Scrub();
    NoteOutcome(p, report.status);
    if (!report.status.ok() && first.ok()) {
      first = report.status;
    }
  }
  return first;
}

Status PartitionedStore::ScrubTick(size_t bucket_budget) {
  if (bucket_budget == 0) {
    bucket_budget = base_options_.scrub_budget_buckets;
  }
  bucket_budget = std::max<size_t>(bucket_budget, 1);
  Status first;
  size_t remaining = bucket_budget;
  // Resume at the partition the previous tick stopped in; a tick whose
  // budget outlives one partition's remaining buckets rolls over into the
  // next, so every bucket in the store is audited once per scrub cycle no
  // matter how budget and geometry divide.
  for (size_t visited = 0; visited < partitions_.size() && remaining > 0; ++visited) {
    const size_t p = scrub_partition_.load(std::memory_order_relaxed) % partitions_.size();
    std::lock_guard<std::mutex> lock(*locks_[p]);
    if (quarantined_[p]->load(std::memory_order_acquire)) {
      // Untrusted state pending recovery: nothing to audit here.
      scrub_partition_.store(p + 1, std::memory_order_relaxed);
      continue;
    }
    const Store::ScrubReport report = partitions_[p]->ScrubStep(remaining);
    NoteOutcome(p, report.status);
    remaining -= std::min(report.buckets_verified, remaining);
    if (!report.status.ok()) {
      if (first.ok()) {
        first = report.status;
      }
      scrub_partition_.store(p + 1, std::memory_order_relaxed);
      continue;  // partition is quarantined now; spend the rest elsewhere
    }
    if (report.cycle_complete) {
      if (p + 1 == partitions_.size()) {
        scrub_cycles_->Inc();
      }
      scrub_partition_.store(p + 1, std::memory_order_relaxed);
    }
  }
  return first;
}

Status PartitionedStore::WithPartitionLocked(size_t p,
                                             const std::function<Status(Store&)>& fn) {
  if (p >= partitions_.size()) {
    return Status(Code::kInvalidArgument, "no such partition");
  }
  std::lock_guard<std::mutex> lock(*locks_[p]);
  if (Status g = QuarantineGuard(p); !g.ok()) {
    return g;
  }
  const Status s = fn(*partitions_[p]);
  NoteOutcome(p, s);
  return s;
}

// ------------------------------------------------------- persistent heap

Status PartitionedStore::CheckpointPartition(size_t p, const sgx::SealingService& sealer,
                                             sgx::MonotonicCounterService& counters,
                                             const std::string& cold_dir, ColdCopyCrash crash) {
  if (p >= partitions_.size() || !persist_) {
    return Status(Code::kInvalidArgument, "partition has no persistent arena");
  }
  std::lock_guard<std::mutex> lock(*locks_[p]);
  if (arenas_[p] == nullptr || quarantined_[p]->load(std::memory_order_acquire)) {
    // Never commit state that failed integrity as the trusted generation.
    return Status(Code::kIntegrityFailure,
                  "partition " + std::to_string(p) + " quarantined; checkpoint skipped");
  }
  // A silent tamper no operation has hit yet would otherwise become the heal
  // baseline; on a violation the partition quarantines instead, and heals
  // from the previous cold copy plus the untruncated log.
  const Store::ScrubReport report = partitions_[p]->Scrub();
  NoteOutcome(p, report.status);
  if (!report.status.ok()) {
    return report.status;
  }
  alloc::PersistentArena& arena = *arenas_[p];
  uint32_t id = arena.counter_id();
  if (id == 0) {
    // 0 marks an unbound arena, so the service's first counter (id 0) is
    // never bound: attach would read it as no binding at all.
    while (id == 0) {
      Result<uint32_t> created = counters.CreateCounter();
      if (!created.ok()) {
        return created.status();
      }
      id = created.value();
    }
    if (Status s = arena.SetCounterId(id); !s.ok()) {
      return s;
    }
  }
  Result<uint64_t> value = counters.Read(id);
  if (!value.ok()) {
    return value.status();
  }
  // Seal against V+1 (the generation this commit becomes), commit, copy,
  // then increment: a crash between commit and increment is recoverable
  // (attach accepts live+1 and rolls the counter forward), while re-attaching
  // an older heap file or cold copy matches neither V nor V+1 and fails typed.
  const Bytes sealed =
      sealer.Seal(partitions_[p]->ExportSecureMetadata(), ArenaAad(p, id, value.value() + 1));
  if (Status s = partitions_[p]->PersistCheckpoint(sealed); !s.ok()) {
    return s;
  }
  // The committed extent, straight from the mapping: nothing has touched it
  // since the commit (the partition lock is held).
  std::error_code ec;
  std::filesystem::create_directories(cold_dir, ec);
  if (Status s = WriteExtent(ColdPath(cold_dir, p),
                             ByteSpan(arena.base(), arena.committed_extent()), arena.capacity(),
                             crash);
      !s.ok()) {
    return s;
  }
  if (Result<uint64_t> inc = counters.Increment(id); !inc.ok()) {
    return inc.status();
  }
  return Status::Ok();
}

bool PartitionedStore::ColdCopyBehind(size_t p, const std::string& cold_dir) const {
  std::lock_guard<std::mutex> lock(*locks_[p]);
  const alloc::PersistentArena* arena = persist_ ? arenas_[p].get() : nullptr;
  if (arena == nullptr || !arena->attached()) {
    return false;  // no committed generation to copy
  }
  uint8_t super[alloc::PersistentArena::kSuperblockBytes];
  const int fd = open(ColdPath(cold_dir, p).c_str(), O_RDONLY | O_CLOEXEC);
  const bool read = fd >= 0 && pread(fd, super, sizeof(super), 0) == sizeof(super);
  if (fd >= 0) {
    close(fd);
  }
  return !read || std::memcmp(super, arena->base(), sizeof(super)) != 0;
}

Status PartitionedStore::AttachArena(size_t p, alloc::PersistentArena& arena, Store& store,
                                     const sgx::SealingService& sealer,
                                     sgx::MonotonicCounterService& counters) {
  const uint32_t id = arena.counter_id();
  if (id == 0) {
    return Status(Code::kIntegrityFailure, "arena holds commits but no counter binding");
  }
  // Copy the sealed metadata OUT of the mapped file before unsealing: the
  // file is attacker-writable, and unsealing in place would be a TOCTOU.
  const ByteSpan mapped = arena.committed_meta();
  const Bytes sealed(mapped.begin(), mapped.end());
  Result<uint64_t> value = counters.Read(id);
  if (!value.ok()) {
    return value.status();
  }
  Result<Bytes> meta = sealer.Unseal(sealed, ArenaAad(p, id, value.value()));
  if (!meta.ok()) {
    meta = sealer.Unseal(sealed, ArenaAad(p, id, value.value() + 1));
    if (!meta.ok()) {
      return Status(Code::kRollbackDetected,
                    "heap file for partition " + std::to_string(p) +
                        " is not the latest committed generation");
    }
    // The commit landed but its counter increment was lost: roll forward.
    if (Result<uint64_t> inc = counters.Increment(id); !inc.ok()) {
      return inc.status();
    }
  }
  return store.AttachPersistent(meta.value());
}

Status PartitionedStore::AttachPersistent(const sgx::SealingService& sealer,
                                          sgx::MonotonicCounterService& counters) {
  if (!persist_) {
    return Status(Code::kInvalidArgument, "store has no persistent heap");
  }
  Status first;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    std::lock_guard<std::mutex> lock(*locks_[p]);
    if (arenas_[p] == nullptr || !arenas_[p]->attached()) {
      continue;  // unusable (quarantined at build time), or never committed
    }
    if (Status s = AttachArena(p, *arenas_[p], *partitions_[p], sealer, counters); !s.ok()) {
      if (SetQuarantined(p, true)) {
        obs::AuditEvent(obs::AuditType::kQuarantineEnter,
                        "partition " + std::to_string(p) + " attach refused: " + s.message());
      }
      if (first.ok()) {
        first = s;
      }
    }
  }
  return first;
}

Status PartitionedStore::RecoverPartition(
    size_t p, const sgx::SealingService& sealer, sgx::MonotonicCounterService& counters,
    const std::string& cold_dir, const std::function<Status(kv::KeyValueStore&)>& replay_log) {
  if (p >= partitions_.size()) {
    return Status(Code::kInvalidArgument, "no such partition");
  }
  const bool from_cold_copy = !cold_dir.empty();
  if (from_cold_copy && !persist_) {
    return Status(Code::kInvalidArgument, "a heap-only store has no cold copies");
  }
  std::lock_guard<std::mutex> lock(*locks_[p]);
  Options options = PartitionOptions(partitions_.size());
  std::unique_ptr<alloc::PersistentArena> arena;
  Status st;
  if (persist_) {
    // The old Store's chains point into the old mapping: release both
    // (Store first) before the baseline replaces the file under them. Until
    // a rebuilt store is swapped in, the partition serves from an empty
    // volatile one — it is quarantined, so nothing reaches it.
    options.arena = nullptr;
    partitions_[p] = std::make_unique<Store>(enclave_, options);
    arenas_[p].reset();
    if (from_cold_copy) {
      st = RestoreColdCopy(ColdPath(cold_dir, p), HeapPath(p));
    } else if (std::error_code ec; !std::filesystem::remove(HeapPath(p), ec) && ec) {
      st = Status(Code::kIoError, "cannot remove " + HeapPath(p));  // else: a fresh arena
    }
    if (st.ok()) {
      arena = std::make_unique<alloc::PersistentArena>();
      st = arena->Open(HeapPath(p), base_options_.persist_capacity_bytes, p, options.num_buckets);
    }
    if (st.ok() && from_cold_copy && !arena->attached()) {
      st = Status(Code::kRollbackDetected,
                  "cold copy " + ColdPath(cold_dir, p) + " holds no committed generation");
    }
    options.arena = arena.get();
  }
  auto rebuilt = std::make_unique<Store>(enclave_, options);
  if (st.ok() && from_cold_copy) {
    st = AttachArena(p, *arena, *rebuilt, sealer, counters);
    // Attach defers entry verification; a heal re-admits nothing unchecked.
    st = st.ok() ? rebuilt->Scrub().status : st;
  }
  if (st.ok() && replay_log) {
    PartitionFilterStore scoped(*rebuilt, [this, p](std::string_view key) {
      return PartitionOf(key) == p;
    });
    st = replay_log(scoped);
  }
  if (!st.ok()) {
    return st;  // still quarantined; the next attempt starts over from the file
  }
  partitions_[p] = std::move(rebuilt);
  if (persist_) {
    arenas_[p] = std::move(arena);
  }
  if (SetQuarantined(p, false)) {
    obs::AuditEvent(obs::AuditType::kQuarantineExit,
                    "partition " + std::to_string(p) + " rebuilt from baseline+log");
  }
  return Status::Ok();
}

std::vector<kv::BatchOpResult> PartitionedStore::ExecuteBatch(
    const std::vector<kv::BatchOp>& ops) {
  std::vector<kv::BatchOpResult> results(ops.size());
  // Group ops by partition, preserving original order within each group.
  // Cross-partition ops commute (a key maps to one partition), so
  // ascending-partition execution yields the sequential final state. The
  // groups are the calling thread's scratch, reused from batch to batch.
  thread_local std::vector<std::vector<Store::OpSlot>> groups;
  if (groups.size() < partitions_.size()) {
    groups.resize(partitions_.size());
  }
  for (size_t p = 0; p < partitions_.size(); ++p) {
    groups[p].clear();
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    groups[PartitionOf(ops[i].key)].push_back(Store::OpSlot{&ops[i], &results[i]});
  }
  for (size_t p = 0; p < partitions_.size(); ++p) {
    if (groups[p].empty()) {
      continue;
    }
    std::lock_guard<std::mutex> lock(*locks_[p]);
    Store& store = *partitions_[p];
    store.BeginMacBatch();
    std::span<const Store::OpSlot> pending(groups[p]);
    while (!pending.empty()) {
      // An op that detects tampering quarantines the partition, and the REST
      // of its group fails fast, exactly as sequential calls through the
      // facade would: nothing after it applies.
      if (Status g = QuarantineGuard(p); !g.ok()) {
        for (const Store::OpSlot& slot : pending) {
          *slot.result = kv::BatchOpResult{g, {}};
        }
        break;
      }
      const size_t ran = store.ExecuteOps(pending);
      NoteOutcome(p, pending[ran - 1].result->status);
      pending = pending.subspan(ran);
    }
    // Recompute each dirty bucket-set hash once for the whole group. Runs
    // even after a mid-group failure: the dirty sets belong to the ops that
    // DID succeed, whose hashes must not be left stale.
    store.EndMacBatch();
  }
  return results;
}

size_t PartitionedStore::Size() const {
  size_t total = 0;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    std::lock_guard<std::mutex> lock(*locks_[p]);
    total += partitions_[p]->Size();
  }
  return total;
}

kv::StoreStats PartitionedStore::stats() const {
  kv::StoreStats total;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    std::lock_guard<std::mutex> lock(*locks_[p]);
    const kv::StoreStats s = partitions_[p]->stats();
    total.gets += s.gets;
    total.sets += s.sets;
    total.deletes += s.deletes;
    total.appends += s.appends;
    total.hits += s.hits;
    total.misses += s.misses;
    total.decryptions += s.decryptions;
    total.mac_verifications += s.mac_verifications;
    total.cache_hits += s.cache_hits;
    total.cache_lookups += s.cache_lookups;
    total.cache_bytes += s.cache_bytes;
    total.crypto_ctr_bytes += s.crypto_ctr_bytes;
    total.crypto_cmac_bytes += s.crypto_cmac_bytes;
  }
  return total;
}

}  // namespace shield::shieldstore
