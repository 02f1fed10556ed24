#include "src/baseline/memcached_like.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

#include "src/common/cycles.h"

namespace shield::baseline {
namespace {

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 14695981039346656037ULL;
  for (char c : s) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  return h;
}

}  // namespace

MemcachedLikeStore::MemcachedLikeStore(sgx::Enclave* enclave, const MemcachedOptions& options)
    : enclave_(enclave), options_(options), buckets_(options.num_buckets, nullptr) {
  assert(!options_.graphene || enclave_ != nullptr);
  alloc::ChunkSource source;
  alloc::SlabAllocator::ChunkRelease release;
  if (options_.graphene) {
    // Under the libOS everything, slabs included, is enclave memory; pages
    // die with the enclave arena, so there is nothing to release.
    source = [this](size_t min_bytes) -> alloc::Chunk {
      void* mem = enclave_->Allocate(min_bytes);
      return mem != nullptr ? alloc::Chunk{mem, min_bytes} : alloc::Chunk{};
    };
  } else {
    source = [](size_t min_bytes) -> alloc::Chunk {
      void* mem = std::malloc(min_bytes);
      return mem != nullptr ? alloc::Chunk{mem, min_bytes} : alloc::Chunk{};
    };
    release = [](const alloc::Chunk& page) { std::free(page.base); };
  }
  alloc::SlabAllocator::Options slab_options;
  slab_options.min_item_bytes = 64;
  slab_options.max_item_bytes = 1 << 20;
  slabs_ = std::make_unique<alloc::SlabAllocator>(std::move(source), slab_options,
                                                  std::move(release));
  if (options_.start_maintainer) {
    maintainer_ = std::thread([this] { MaintainerLoop(); });
  }
}

MemcachedLikeStore::~MemcachedLikeStore() {
  stop_maintainer_.store(true, std::memory_order_release);
  if (maintainer_.joinable()) {
    maintainer_.join();
  }
  // Items return to the slab allocator; malloc-backed slab pages are
  // released by its destructor, enclave-arena pages die with the enclave
  // (memcached never returns slab pages mid-run either).
}

void MemcachedLikeStore::TouchRange(const void* ptr, size_t len, bool write) const {
  if (options_.graphene) {
    enclave_->Touch(ptr, len, write);
  }
}

void MemcachedLikeStore::ChargeLibOs() const {
  if (options_.graphene) {
    SpinCycles(options_.libos_op_overhead_cycles);
  }
}

size_t MemcachedLikeStore::BucketOf(std::string_view key) const {
  return Fnv1a(key) % buckets_.size();
}

MemcachedLikeStore::Item* MemcachedLikeStore::FindLocked(size_t bucket, std::string_view key,
                                                         Item** prev_out) {
  Item* prev = nullptr;
  Item* item = buckets_[bucket];
  while (item != nullptr) {
    TouchRange(item, sizeof(Item) + item->key_size, false);
    if (item->key_size == key.size() &&
        std::memcmp(item->Data(), key.data(), key.size()) == 0) {
      if (prev_out != nullptr) {
        *prev_out = prev;
      }
      return item;
    }
    prev = item;
    item = item->next;
  }
  return nullptr;
}

Status MemcachedLikeStore::Set(std::string_view key, std::string_view value) {
  ChargeLibOs();
  std::lock_guard<std::mutex> lock(cache_lock_);
  ContentionScope contention(options_.virtual_contention);
  stats_.sets++;
  const size_t bucket = BucketOf(key);
  Item* prev = nullptr;
  Item* existing = FindLocked(bucket, key, &prev);
  const size_t needed = sizeof(Item) + key.size() + value.size();
  if (existing != nullptr && existing->slab_bytes >= needed) {
    TouchRange(existing, needed, true);
    existing->val_size = static_cast<uint32_t>(value.size());
    std::memcpy(existing->Data() + key.size(), value.data(), value.size());
    existing->access_clock = ++clock_;
    return Status::Ok();
  }
  Item* fresh = static_cast<Item*>(slabs_->Allocate(needed));
  if (fresh == nullptr) {
    return Status(Code::kCapacityExceeded, "slab classes exhausted");
  }
  TouchRange(fresh, needed, true);
  fresh->key_size = static_cast<uint32_t>(key.size());
  fresh->val_size = static_cast<uint32_t>(value.size());
  fresh->slab_bytes = static_cast<uint32_t>(needed);
  fresh->access_clock = ++clock_;
  std::memcpy(fresh->Data(), key.data(), key.size());
  std::memcpy(fresh->Data() + key.size(), value.data(), value.size());
  if (existing != nullptr) {
    fresh->next = existing->next;
    if (prev != nullptr) {
      prev->next = fresh;
    } else {
      buckets_[bucket] = fresh;
    }
    slabs_->Free(existing, existing->slab_bytes);
  } else {
    fresh->next = buckets_[bucket];
    buckets_[bucket] = fresh;
    ++entry_count_;
  }
  return Status::Ok();
}

Result<std::string> MemcachedLikeStore::Get(std::string_view key) {
  ChargeLibOs();
  std::lock_guard<std::mutex> lock(cache_lock_);
  ContentionScope contention(options_.virtual_contention);
  stats_.gets++;
  Item* item = FindLocked(BucketOf(key), key, nullptr);
  if (item == nullptr) {
    stats_.misses++;
    return Status(Code::kNotFound, "no such key");
  }
  stats_.hits++;
  item->access_clock = ++clock_;
  TouchRange(item->Data() + item->key_size, item->val_size, false);
  return std::string(reinterpret_cast<const char*>(item->Data()) + item->key_size,
                     item->val_size);
}

Status MemcachedLikeStore::Delete(std::string_view key) {
  ChargeLibOs();
  std::lock_guard<std::mutex> lock(cache_lock_);
  ContentionScope contention(options_.virtual_contention);
  stats_.deletes++;
  const size_t bucket = BucketOf(key);
  Item* prev = nullptr;
  Item* item = FindLocked(bucket, key, &prev);
  if (item == nullptr) {
    return Status(Code::kNotFound, "no such key");
  }
  if (prev != nullptr) {
    prev->next = item->next;
  } else {
    buckets_[bucket] = item->next;
  }
  slabs_->Free(item, item->slab_bytes);
  --entry_count_;
  return Status::Ok();
}

size_t MemcachedLikeStore::Size() const {
  std::lock_guard<std::mutex> lock(cache_lock_);
  return entry_count_;
}

kv::StoreStats MemcachedLikeStore::stats() const {
  std::lock_guard<std::mutex> lock(cache_lock_);
  return stats_;
}

void MemcachedLikeStore::MaintainerLoop() {
  // memcached's background maintainer "continually adjusts the hash table
  // while holding locks" (§6.2) — the cause of its negative scaling at four
  // threads. Each pass walks a window of buckets under the global lock.
  while (!stop_maintainer_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(cache_lock_);
      size_t walked = 0;
      uint64_t sink = 0;
      while (walked < options_.maintenance_buckets_per_pass) {
        maintenance_cursor_ = (maintenance_cursor_ + 1) % buckets_.size();
        for (Item* item = buckets_[maintenance_cursor_]; item != nullptr; item = item->next) {
          TouchRange(item, sizeof(Item), false);
          sink += item->access_clock;  // LRU bookkeeping stand-in
        }
        ++walked;
      }
      asm volatile("" : : "r"(sink) : "memory");  // keep the walk
    }
    std::this_thread::sleep_for(std::chrono::microseconds(options_.maintenance_interval_us));
  }
}

}  // namespace shield::baseline
