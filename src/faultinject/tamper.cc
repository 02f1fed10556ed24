#include "src/faultinject/tamper.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/obs/audit.h"

namespace shield::faultinject {
namespace {

namespace fs = std::filesystem;

// The snapshot generation files Snapshotter manages in a directory.
const char* const kSnapshotFiles[] = {
    "/shieldstore.meta",
    "/shieldstore.data",
    "/shieldstore.meta.prev",
    "/shieldstore.data.prev",
};

Result<Bytes> ReadFileBytes(const std::string& path) {
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

Status WriteFileBytes(const std::string& path, const Bytes& data) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status(Code::kIoError, "cannot open " + path);
  }
  const size_t put = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  const bool ok = put == data.size() && std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) {
    return Status(Code::kIoError, "cannot write " + path);
  }
  return Status::Ok();
}

}  // namespace

std::string_view TamperModeName(TamperMode mode) {
  switch (mode) {
    case TamperMode::kBitFlipCiphertext:
      return "BitFlipCiphertext";
    case TamperMode::kMacForge:
      return "MacForge";
    case TamperMode::kEntrySplice:
      return "EntrySplice";
    case TamperMode::kEntryReplay:
      return "EntryReplay";
    case TamperMode::kChainTruncate:
      return "ChainTruncate";
    case TamperMode::kChainCycle:
      return "ChainCycle";
    case TamperMode::kKeyHintCorrupt:
      return "KeyHintCorrupt";
    case TamperMode::kMacBucketTamper:
      return "MacBucketTamper";
  }
  return "Unknown";
}

Code ExpectedDetection(TamperMode mode) {
  // Every in-memory attack must surface as an integrity violation — never a
  // crash, hang, or silently wrong (or silently missing) answer.
  (void)mode;
  return Code::kIntegrityFailure;
}

Result<TamperAgent::Target> TamperAgent::PickEntry(shieldstore::Store& store,
                                                   bool prefer_value) {
  // Two passes: prefer entries with a non-empty value region when asked.
  for (int pass = prefer_value ? 0 : 1; pass < 2; ++pass) {
    std::vector<Target> candidates;
    for (size_t b = 0; b < store.options_.num_buckets; ++b) {
      kv::EntryHeader* prev = nullptr;
      size_t steps = 0;
      for (uint64_t ref = store.buckets_[b].head_ref; ref != 0 && steps++ <= store.entry_count_;) {
        kv::EntryHeader* e = store.Deref(ref);
        ref = e->next_ref;
        if (pass == 0 && e->val_size == 0) {
          prev = e;
          continue;
        }
        candidates.push_back(Target{b, e, prev});
        prev = e;
      }
    }
    if (!candidates.empty()) {
      Target t = candidates[rng_.NextBelow(candidates.size())];
      store.TouchKeys();
      last_target_key_ = kv::OpenEntryKey(*store.cipher_, *t.entry);
      return t;
    }
  }
  return Status(Code::kInvalidArgument, "store holds no entry to tamper with");
}

Status TamperAgent::CaptureEntry(shieldstore::Store& store) {
  Result<Target> target = PickEntry(store, /*prefer_value=*/false);
  if (!target.ok()) {
    return target.status();
  }
  const kv::EntryHeader* e = target->entry;
  const size_t bytes = sizeof(kv::EntryHeader) + e->CiphertextSize();
  captured_bytes_.assign(reinterpret_cast<const uint8_t*>(e),
                         reinterpret_cast<const uint8_t*>(e) + bytes);
  captured_key_ = last_target_key_;
  captured_bucket_ = target->bucket;
  have_capture_ = true;
  return Status::Ok();
}

Status TamperAgent::Tamper(shieldstore::Store& store, TamperMode mode) {
  // Tamper activations are themselves integrity-relevant events: the audit
  // chain must show the injection that explains the findings that follow.
  obs::AuditEvent(obs::AuditType::kTamperInject,
                  std::string("tamper injection: ") + std::string(TamperModeName(mode)));
  switch (mode) {
    case TamperMode::kBitFlipCiphertext: {
      Result<Target> target = PickEntry(store, /*prefer_value=*/true);
      if (!target.ok()) {
        return target.status();
      }
      kv::EntryHeader* e = target->entry;
      // Land in the value region when there is one: a key-region flip only
      // makes the key unfindable (availability), which Get cannot observe.
      size_t offset;
      if (e->val_size > 0) {
        offset = e->key_size + rng_.NextBelow(e->val_size);
      } else {
        offset = rng_.NextBelow(e->CiphertextSize());
      }
      e->Ciphertext()[offset] ^= static_cast<uint8_t>(1u << rng_.NextBelow(8));
      return Status::Ok();
    }

    case TamperMode::kMacForge: {
      Result<Target> target = PickEntry(store, /*prefer_value=*/false);
      if (!target.ok()) {
        return target.status();
      }
      uint8_t forged[16];
      for (uint8_t& b : forged) {
        b = static_cast<uint8_t>(rng_.Next());
      }
      if (std::memcmp(forged, target->entry->mac, 16) == 0) {
        forged[0] ^= 0x01;
      }
      std::memcpy(target->entry->mac, forged, 16);
      return Status::Ok();
    }

    case TamperMode::kEntrySplice: {
      if (store.options_.num_buckets < 2) {
        return Status(Code::kInvalidArgument, "splice needs at least two buckets");
      }
      Result<Target> target = PickEntry(store, /*prefer_value=*/false);
      if (!target.ok()) {
        return target.status();
      }
      size_t dest = rng_.NextBelow(store.options_.num_buckets);
      if (dest == target->bucket) {
        dest = (dest + 1) % store.options_.num_buckets;
      }
      // Unlink from the source chain, relink at the destination head. The
      // entry itself stays validly MAC'd — only the trusted hashes notice.
      kv::EntryHeader* e = target->entry;
      if (target->prev != nullptr) {
        target->prev->next_ref = e->next_ref;
      } else {
        store.buckets_[target->bucket].head_ref = e->next_ref;
      }
      e->next_ref = store.buckets_[dest].head_ref;
      store.buckets_[dest].head_ref = store.Ref(e);
      return Status::Ok();
    }

    case TamperMode::kEntryReplay: {
      if (!have_capture_) {
        return Status(Code::kInvalidArgument, "no captured entry: call CaptureEntry first");
      }
      const size_t max_steps = store.entry_count_ + 8;
      size_t steps = 0;
      for (uint64_t ref = store.buckets_[captured_bucket_].head_ref;
           ref != 0 && steps++ < max_steps;) {
        kv::EntryHeader* e = store.Deref(ref);
        ref = e->next_ref;
        store.TouchKeys();
        if (!kv::EntryKeyEquals(*store.cipher_, *e, captured_key_)) {
          continue;
        }
        if (store.EntryUsableSize(e) < captured_bytes_.size()) {
          return Status(Code::kInvalidArgument, "captured version no longer fits in place");
        }
        const kv::EntryHeader* old =
            reinterpret_cast<const kv::EntryHeader*>(captured_bytes_.data());
        if (e->CiphertextSize() == old->CiphertextSize() &&
            std::memcmp(e, captured_bytes_.data(), captured_bytes_.size()) == 0) {
          return Status(Code::kInvalidArgument,
                        "replay target unchanged: update the key between capture and replay");
        }
        const uint64_t live_next = e->next_ref;
        std::memcpy(e, captured_bytes_.data(), captured_bytes_.size());
        e->next_ref = live_next;  // keep the live chain shape; only content is stale
        last_target_key_ = captured_key_;
        return Status::Ok();
      }
      return Status(Code::kInvalidArgument, "captured key no longer present");
    }

    case TamperMode::kChainTruncate: {
      Result<Target> target = PickEntry(store, /*prefer_value=*/false);
      if (!target.ok()) {
        return target.status();
      }
      // Hide the chain head of the target's bucket (the paper's unlinking
      // attack): the trusted hashes still cover the vanished entry.
      kv::EntryHeader* head = store.Deref(store.buckets_[target->bucket].head_ref);
      store.TouchKeys();
      last_target_key_ = kv::OpenEntryKey(*store.cipher_, *head);
      store.buckets_[target->bucket].head_ref = head->next_ref;
      return Status::Ok();
    }

    case TamperMode::kChainCycle: {
      Result<Target> target = PickEntry(store, /*prefer_value=*/false);
      if (!target.ok()) {
        return target.status();
      }
      kv::EntryHeader* head = store.Deref(store.buckets_[target->bucket].head_ref);
      kv::EntryHeader* tail = head;
      size_t steps = 0;
      while (tail->next_ref != 0 && steps++ <= store.entry_count_) {
        tail = store.Deref(tail->next_ref);
      }
      tail->next_ref = store.Ref(head);  // the walk must terminate via the cycle guard
      store.TouchKeys();
      last_target_key_ = kv::OpenEntryKey(*store.cipher_, *head);
      return Status::Ok();
    }

    case TamperMode::kKeyHintCorrupt: {
      Result<Target> target = PickEntry(store, /*prefer_value=*/false);
      if (!target.ok()) {
        return target.status();
      }
      // XOR with a nonzero byte: always changes the hint. The MAC covers the
      // hint, so the two-step search still finds the key and then fails
      // authentication instead of degrading into a silent miss.
      target->entry->key_hint ^= static_cast<uint8_t>(1 + rng_.NextBelow(255));
      return Status::Ok();
    }

    case TamperMode::kMacBucketTamper: {
      if (!store.options_.mac_bucketing) {
        return Status(Code::kUnsupported, "store runs without MAC bucketing");
      }
      std::vector<size_t> candidates;
      for (size_t b = 0; b < store.options_.num_buckets; ++b) {
        const auto* mb = store.buckets_[b].macs;
        if (mb != nullptr && mb->count > 0) {
          candidates.push_back(b);
        }
      }
      if (candidates.empty()) {
        return Status(Code::kInvalidArgument, "no MAC bucket to tamper with");
      }
      const size_t b = candidates[rng_.NextBelow(candidates.size())];
      size_t total = 0;
      for (const auto* mb = store.buckets_[b].macs; mb != nullptr; mb = mb->next) {
        total += mb->count;
      }
      const size_t slot = rng_.NextBelow(total);
      auto* mb = store.buckets_[b].macs;
      size_t hop = slot / shieldstore::Store::MacBucket::kCapacity;
      while (hop-- > 0) {
        mb = mb->next;
      }
      mb->macs[slot % shieldstore::Store::MacBucket::kCapacity][rng_.NextBelow(16)] ^=
          static_cast<uint8_t>(1u << rng_.NextBelow(8));
      // The entry whose copy was hit sits at chain position `slot`.
      kv::EntryHeader* e = store.Deref(store.buckets_[b].head_ref);
      for (size_t i = 0; i < slot && e != nullptr; ++i) {
        e = store.Deref(e->next_ref);
      }
      if (e != nullptr) {
        store.TouchKeys();
        last_target_key_ = kv::OpenEntryKey(*store.cipher_, *e);
      }
      return Status::Ok();
    }
  }
  return Status(Code::kInvalidArgument, "unknown tamper mode");
}

Status TamperAgent::TamperPartition(shieldstore::PartitionedStore& store, size_t p,
                                    TamperMode mode) {
  return store.WithPartitionLocked(p, [&](shieldstore::Store& s) { return Tamper(s, mode); });
}

Status TamperAgent::CaptureSnapshotFiles(const std::string& directory) {
  file_stash_.clear();
  stash_missing_.clear();
  for (const char* name : kSnapshotFiles) {
    const std::string path = directory + name;
    Result<Bytes> data = ReadFileBytes(path);
    if (data.ok()) {
      file_stash_.emplace_back(path, std::move(data.value()));
    } else if (data.status().code() == Code::kNotFound) {
      stash_missing_.push_back(path);
    } else {
      return data.status();
    }
  }
  if (file_stash_.empty()) {
    return Status(Code::kNotFound, "no snapshot files in " + directory);
  }
  return Status::Ok();
}

Status TamperAgent::RollbackSnapshotFiles(const std::string& directory) {
  (void)directory;
  if (file_stash_.empty() && stash_missing_.empty()) {
    return Status(Code::kInvalidArgument, "no captured snapshot: call CaptureSnapshotFiles");
  }
  for (const auto& [path, data] : file_stash_) {
    if (Status s = WriteFileBytes(path, data); !s.ok()) {
      return s;
    }
  }
  for (const std::string& path : stash_missing_) {
    std::remove(path.c_str());
  }
  return Status::Ok();
}

Status TamperAgent::TruncateTail(const std::string& path, size_t drop_bytes) {
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);
  if (ec) {
    return Status(Code::kNotFound, "no file at " + path);
  }
  const uintmax_t new_size = size > drop_bytes ? size - drop_bytes : 0;
  fs::resize_file(path, new_size, ec);
  if (ec) {
    return Status(Code::kIoError, "cannot truncate " + path);
  }
  return Status::Ok();
}

Status TamperAgent::FlipFileByte(const std::string& path, size_t offset) {
  FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) {
    return Status(Code::kNotFound, "no file at " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size <= 0) {
    std::fclose(f);
    return Status(Code::kInvalidArgument, "empty file " + path);
  }
  if (offset >= static_cast<size_t>(size)) {
    offset = static_cast<size_t>(size) - 1;
  }
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  uint8_t byte = 0;
  if (std::fread(&byte, 1, 1, f) != 1) {
    std::fclose(f);
    return Status(Code::kIoError, "cannot read " + path);
  }
  byte ^= 0x01;
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  const bool ok = std::fwrite(&byte, 1, 1, f) == 1 && std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) {
    return Status(Code::kIoError, "cannot write " + path);
  }
  return Status::Ok();
}

void RaceTamperer::Start() {
  stop_.store(false);
  thread_ = std::thread([this] { Loop(); });
}

void RaceTamperer::Stop() {
  stop_.store(true);
  if (thread_.joinable()) {
    thread_.join();
  }
}

void RaceTamperer::Loop() {
  // kEntryReplay needs a CaptureEntry whose target survives until the
  // replay — impossible to guarantee with writers racing — so the race
  // palette is every mode but that one.
  static constexpr TamperMode kRaceModes[] = {
      TamperMode::kBitFlipCiphertext, TamperMode::kMacForge,
      TamperMode::kEntrySplice,       TamperMode::kChainTruncate,
      TamperMode::kChainCycle,        TamperMode::kKeyHintCorrupt,
      TamperMode::kMacBucketTamper,
  };
  while (!stop_.load()) {
    const size_t p = rng_.NextBelow(store_.num_partitions());
    const TamperMode mode =
        kRaceModes[rng_.NextBelow(sizeof(kRaceModes) / sizeof(kRaceModes[0]))];
    attacks_launched_.fetch_add(1);
    // kPartitionRecovering (already quarantined) and kInvalidArgument (no
    // suitable target right now) are expected outcomes, not errors.
    if (agent_.TamperPartition(store_, p, mode).ok()) {
      attacks_landed_.fetch_add(1);
    }
    if (options_.max_attacks > 0 &&
        attacks_launched_.load() >= static_cast<uint64_t>(options_.max_attacks)) {
      return;
    }
    if (options_.interval_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.interval_ms));
    }
  }
}

}  // namespace shield::faultinject
