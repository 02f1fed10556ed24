#include "src/shieldstore/partitioned.h"

#include "src/obs/audit.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>

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

// AAD for the sealed route key (persist_dir/route.seal).
constexpr char kRouteAad[] = "SSRT1";

Result<Bytes> ReadAllBytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status(Code::kNotFound, "no file at " + path);
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

Status WriteAllBytes(const std::string& path, const Bytes& data) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status(Code::kIoError, "cannot open " + path);
  }
  const size_t put = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  const bool ok = put == data.size() && std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  std::fclose(f);
  if (!ok) {
    return Status(Code::kIoError, "cannot write " + path);
  }
  return Status::Ok();
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
      const std::string path =
          base_options_.persist_dir + "/p" + std::to_string(i) + ".heap";
      usable = arena->Open(path, base_options_.persist_capacity_bytes, i,
                           per_partition.num_buckets)
                   .ok();
      if (usable) {
        per_partition.arena = arena.get();
        arenas_.push_back(std::move(arena));
      } else {
        // Unusable heap file (corrupt superblock, geometry drift, IO error):
        // its durable state is unreachable, so the partition is built
        // volatile, starts quarantined and attach is latched failed — it
        // never serves until the file is restored.
        arenas_.push_back(nullptr);
        attach_failed_.store(true, std::memory_order_release);
      }
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

Status PartitionedStore::LoadOrCreateRouteKey(const sgx::SealingService& sealer) {
  if (!persist_) {
    return Status::Ok();
  }
  const std::string path = base_options_.persist_dir + "/route.seal";
  const ByteSpan aad(reinterpret_cast<const uint8_t*>(kRouteAad), sizeof(kRouteAad) - 1);
  Result<Bytes> blob = ReadAllBytes(path);
  if (blob.ok()) {
    Result<Bytes> key = sealer.Unseal(blob.value(), aad);
    if (!key.ok()) {
      return key.status();
    }
    if (key.value().size() != route_key_.size()) {
      return Status(Code::kIntegrityFailure, "sealed route key malformed");
    }
    std::memcpy(route_key_.data(), key.value().data(), route_key_.size());
    return Status::Ok();
  }
  if (blob.status().code() != Code::kNotFound) {
    return blob.status();
  }
  // First boot: persist this process's random route key so later boots route
  // identically (persisted chains are attached, never re-routed).
  Bytes key(route_key_.begin(), route_key_.end());
  return WriteAllBytes(path, sealer.Seal(key, aad));
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

Status PartitionedStore::WritePartitionSnapshot(size_t p, const sgx::SealingService& sealer,
                                                sgx::MonotonicCounterService& counters,
                                                const std::string& directory,
                                                Snapshotter::CrashPoint crash) {
  std::lock_guard<std::mutex> lock(*locks_[p]);
  if (quarantined_[p]->load(std::memory_order_acquire)) {
    // Never persist state that failed integrity: the previous generation
    // in this partition's directory is the last trustworthy one.
    return Status(Code::kIntegrityFailure,
                  "partition " + std::to_string(p) + " quarantined; snapshot skipped");
  }
  // Audit before persisting, under the SAME lock hold: a silent tamper that
  // has not yet hit a detecting operation would otherwise be sealed into
  // the new generation as trusted state, poisoning every later recovery.
  // On a violation the partition quarantines instead, and the healer
  // rebuilds it from the previous generation plus the log suffix.
  const Store::ScrubReport audit = partitions_[p]->Scrub();
  NoteOutcome(p, audit.status);
  if (!audit.status.ok()) {
    return audit.status;
  }
  const std::string subdir = directory + "/p" + std::to_string(p);
  std::error_code ec;
  std::filesystem::create_directories(subdir, ec);
  Snapshotter snap(*partitions_[p], sealer, counters, {subdir, /*optimized=*/false});
  if (crash != Snapshotter::CrashPoint::kNone) {
    snap.InjectCrash(crash);
  }
  return snap.SnapshotNow();
}

Status PartitionedStore::WriteManifest(const std::string& directory) const {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  // Manifest pins the partition count: recovery against a store with a
  // different layout would silently drop or duplicate keys.
  FILE* manifest = std::fopen((directory + "/manifest").c_str(), "w");
  if (manifest == nullptr) {
    return Status(Code::kIoError, "cannot write snapshot manifest in " + directory);
  }
  std::fprintf(manifest, "partitions %zu\n", partitions_.size());
  std::fflush(manifest);
  fsync(fileno(manifest));
  std::fclose(manifest);
  return Status::Ok();
}

Status PartitionedStore::EnsureManifest(const std::string& directory) const {
  FILE* existing = std::fopen((directory + "/manifest").c_str(), "r");
  if (existing == nullptr) {
    return WriteManifest(directory);
  }
  size_t recorded = 0;
  const bool parsed = std::fscanf(existing, "partitions %zu", &recorded) == 1;
  std::fclose(existing);
  if (!parsed || recorded != partitions_.size()) {
    return Status(Code::kInvalidArgument, "snapshot manifest partition count mismatch");
  }
  return Status::Ok();
}

Status PartitionedStore::SnapshotAll(const sgx::SealingService& sealer,
                                     sgx::MonotonicCounterService& counters,
                                     const std::string& directory) {
  // Rewrite the manifest unconditionally: a full snapshot is the geometry
  // authority (a restart may have changed the partition count).
  if (Status s = WriteManifest(directory); !s.ok()) {
    return s;
  }
  Status first;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    if (Status s = WritePartitionSnapshot(p, sealer, counters, directory,
                                           Snapshotter::CrashPoint::kNone);
        !s.ok() && first.ok()) {
      first = s;
    }
  }
  return first;
}

Status PartitionedStore::SnapshotPartition(size_t p, const sgx::SealingService& sealer,
                                           sgx::MonotonicCounterService& counters,
                                           const std::string& directory,
                                           Snapshotter::CrashPoint crash) {
  if (p >= partitions_.size()) {
    return Status(Code::kInvalidArgument, "no such partition");
  }
  if (Status s = EnsureManifest(directory); !s.ok()) {
    return s;
  }
  return WritePartitionSnapshot(p, sealer, counters, directory, crash);
}

Status PartitionedStore::RestoreSnapshots(const sgx::SealingService& sealer,
                                          sgx::MonotonicCounterService& counters,
                                          const std::string& directory) {
  FILE* manifest = std::fopen((directory + "/manifest").c_str(), "r");
  if (manifest == nullptr) {
    return Status::Ok();  // nothing was ever snapshotted here
  }
  size_t recorded = 0;
  const bool parsed = std::fscanf(manifest, "partitions %zu", &recorded) == 1;
  std::fclose(manifest);
  if (!parsed || recorded == 0) {
    return Status(Code::kIntegrityFailure, "snapshot manifest unreadable in " + directory);
  }
  // Recover each on-disk partition in the geometry it was snapshotted under,
  // then re-apply its entries through the facade: this run's route key (and
  // possibly partition count) differ, so every key is re-routed and
  // re-encrypted under its new partition's keys.
  const Options snapshotted = PartitionOptions(recorded);
  for (size_t i = 0; i < recorded; ++i) {
    const PersistOptions persist{directory + "/p" + std::to_string(i), /*optimized=*/false};
    Result<std::unique_ptr<Store>> restored =
        Snapshotter::Recover(enclave_, snapshotted, sealer, counters, persist);
    if (!restored.ok()) {
      if (restored.status().code() == Code::kNotFound) {
        // No generation ever committed for this partition (crash before its
        // first snapshot): its operation log holds its full history.
        continue;
      }
      return restored.status();
    }
    const Status applied = restored.value()->ForEachDecrypted(
        [&](std::string_view key, std::string_view value) { return Set(key, value); });
    if (!applied.ok()) {
      return applied;
    }
  }
  return Status::Ok();
}

Status PartitionedStore::RecoverPartition(
    size_t p, const sgx::SealingService& sealer, sgx::MonotonicCounterService& counters,
    const std::string& directory, const std::function<Status(kv::KeyValueStore&)>& replay_log) {
  if (p >= partitions_.size()) {
    return Status(Code::kInvalidArgument, "no such partition");
  }
  if (persist_) {
    return Status(Code::kUnsupported,
                  "snapshot-based partition recovery unsupported with a persistent heap; "
                  "use RecoverPersistPartition");
  }
  FILE* manifest = std::fopen((directory + "/manifest").c_str(), "r");
  if (manifest == nullptr) {
    return Status(Code::kNotFound, "no snapshot manifest in " + directory);
  }
  size_t recorded = 0;
  const bool parsed = std::fscanf(manifest, "partitions %zu", &recorded) == 1;
  std::fclose(manifest);
  if (!parsed || recorded != partitions_.size()) {
    return Status(Code::kInvalidArgument, "snapshot manifest partition count mismatch");
  }

  std::lock_guard<std::mutex> lock(*locks_[p]);
  const PersistOptions persist{directory + "/p" + std::to_string(p), /*optimized=*/false};
  Result<std::unique_ptr<Store>> restored = Snapshotter::Recover(
      enclave_, PartitionOptions(partitions_.size()), sealer, counters, persist);
  if (!restored.ok()) {
    return restored.status();
  }
  if (replay_log) {
    PartitionFilterStore scoped(*restored.value(), [this, p](std::string_view key) {
      return PartitionOf(key) == p;
    });
    if (Status s = replay_log(scoped); !s.ok()) {
      return s;
    }
  }
  partitions_[p] = std::move(restored.value());
  if (SetQuarantined(p, false)) {
    obs::AuditEvent(obs::AuditType::kQuarantineExit,
                    "partition " + std::to_string(p) + " rebuilt from snapshot+log");
  }
  return Status::Ok();
}

// ------------------------------------------------------- persistent heap

Status PartitionedStore::CheckpointPartitionLocked(size_t p, const sgx::SealingService& sealer,
                                                   sgx::MonotonicCounterService& counters) {
  if (!persist_ || arenas_[p] == nullptr) {
    return Status(Code::kInvalidArgument, "partition has no persistent arena");
  }
  if (quarantined_[p]->load(std::memory_order_acquire)) {
    // Never commit state that failed integrity as the trusted generation.
    return Status(Code::kIntegrityFailure,
                  "partition " + std::to_string(p) + " quarantined; checkpoint skipped");
  }
  alloc::PersistentArena& arena = *arenas_[p];
  uint32_t id = arena.counter_id();
  if (id == 0) {
    Result<uint32_t> created = counters.CreateCounter();
    if (!created.ok()) {
      return created.status();
    }
    id = created.value();
    if (Status s = arena.SetCounterId(id); !s.ok()) {
      return s;
    }
  }
  Result<uint64_t> value = counters.Read(id);
  if (!value.ok()) {
    return value.status();
  }
  // Seal against V+1 (the generation this commit becomes), commit, then
  // increment: a crash between commit and increment is recoverable (attach
  // accepts live+1 and rolls the counter forward), while re-attaching an
  // older heap file matches neither V nor V+1 and fails typed.
  const Bytes sealed =
      sealer.Seal(partitions_[p]->ExportSecureMetadata(), ArenaAad(p, id, value.value() + 1));
  if (Status s = partitions_[p]->PersistCheckpoint(sealed); !s.ok()) {
    return s;
  }
  if (Result<uint64_t> inc = counters.Increment(id); !inc.ok()) {
    return inc.status();
  }
  return Status::Ok();
}

Status PartitionedStore::CheckpointPartition(size_t p, const sgx::SealingService& sealer,
                                             sgx::MonotonicCounterService& counters) {
  if (p >= partitions_.size()) {
    return Status(Code::kInvalidArgument, "no such partition");
  }
  std::lock_guard<std::mutex> lock(*locks_[p]);
  return CheckpointPartitionLocked(p, sealer, counters);
}

Status PartitionedStore::CheckpointAll(const sgx::SealingService& sealer,
                                       sgx::MonotonicCounterService& counters) {
  if (!persist_) {
    return Status(Code::kInvalidArgument, "store has no persistent heap");
  }
  Status first;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    std::lock_guard<std::mutex> lock(*locks_[p]);
    if (Status s = CheckpointPartitionLocked(p, sealer, counters); !s.ok() && first.ok()) {
      first = s;
    }
  }
  return first;
}

Status PartitionedStore::AttachPartitionLocked(size_t p, const sgx::SealingService& sealer,
                                               sgx::MonotonicCounterService& counters) {
  alloc::PersistentArena& arena = *arenas_[p];
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
  return partitions_[p]->AttachPersistent(meta.value());
}

Status PartitionedStore::AttachPersistent(const sgx::SealingService& sealer,
                                          sgx::MonotonicCounterService& counters) {
  if (!persist_) {
    return Status(Code::kInvalidArgument, "store has no persistent heap");
  }
  Status first;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    std::lock_guard<std::mutex> lock(*locks_[p]);
    if (arenas_[p] == nullptr) {
      continue;  // already latched failed + quarantined at build time
    }
    if (!arenas_[p]->attached()) {
      continue;  // fresh arena: nothing committed yet (first boot)
    }
    if (Status s = AttachPartitionLocked(p, sealer, counters); !s.ok()) {
      attach_failed_.store(true, std::memory_order_release);
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

Status PartitionedStore::RecoverPersistPartition(size_t p) {
  if (!persist_) {
    return Status(Code::kInvalidArgument, "store has no persistent heap");
  }
  if (p >= partitions_.size()) {
    return Status(Code::kInvalidArgument, "no such partition");
  }
  if (attach_failed_.load(std::memory_order_acquire)) {
    return Status(Code::kIntegrityFailure,
                  "persistent attach failed; restore the heap files from a replica");
  }
  std::lock_guard<std::mutex> lock(*locks_[p]);
  // No clean disk baseline exists apart from the heap file itself (page
  // writeback persists tampers too), so recovery is a full audit: clean
  // chains re-admit the partition, anything else keeps it fenced.
  const Store::ScrubReport report = partitions_[p]->Scrub();
  if (!report.status.ok()) {
    return report.status;
  }
  if (SetQuarantined(p, false)) {
    obs::AuditEvent(obs::AuditType::kQuarantineExit,
                    "partition " + std::to_string(p) + " persistent scrub clean");
  }
  return Status::Ok();
}

std::vector<kv::BatchOpResult> PartitionedStore::ExecuteBatch(
    const std::vector<kv::BatchOp>& ops) {
  std::vector<kv::BatchOpResult> results(ops.size());
  // Group ops by partition, preserving original order within each group.
  // Cross-partition ops commute (a key maps to one partition), so
  // ascending-partition execution yields the sequential final state.
  std::vector<std::vector<Store::OpSlot>> groups(partitions_.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    groups[PartitionOf(ops[i].key)].push_back(Store::OpSlot{&ops[i], &results[i]});
  }
  for (size_t p = 0; p < groups.size(); ++p) {
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
