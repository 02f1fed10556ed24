#include "src/shieldstore/cache.h"

#include <cstring>

namespace shield::shieldstore {

EnclaveCache::EnclaveCache(sgx::Enclave& enclave, size_t slots)
    : enclave_(enclave), num_slots_(std::max<size_t>(slots, 1)) {
  slots_ = static_cast<Slot*>(enclave_.Allocate(num_slots_ * sizeof(Slot)));
  std::memset(slots_, 0, num_slots_ * sizeof(Slot));
}

EnclaveCache::~EnclaveCache() {
  for (size_t i = 0; i < num_slots_; ++i) {
    if (slots_[i].data != nullptr) {
      enclave_.Free(slots_[i].data);
    }
  }
  enclave_.Free(slots_);
}

std::optional<std::string> EnclaveCache::Get(uint64_t key_hash, std::string_view key) {
  ++lookups_;
  Slot& slot = slots_[SlotOf(key_hash)];
  enclave_.Touch(&slot, sizeof(Slot));
  if (slot.data == nullptr || slot.key_hash != key_hash || slot.key_size != key.size()) {
    return std::nullopt;
  }
  enclave_.Touch(slot.data, size_t{slot.key_size} + slot.val_size);
  if (std::memcmp(slot.data, key.data(), key.size()) != 0) {
    return std::nullopt;
  }
  ++hits_;
  return std::string(reinterpret_cast<const char*>(slot.data) + slot.key_size, slot.val_size);
}

void EnclaveCache::Put(uint64_t key_hash, std::string_view key, std::string_view value) {
  Slot& slot = slots_[SlotOf(key_hash)];
  enclave_.Touch(&slot, sizeof(Slot), /*write=*/true);
  const size_t needed = key.size() + value.size();
  if (slot.data != nullptr) {
    bytes_used_ -= size_t{slot.key_size} + slot.val_size;
    if (size_t{slot.key_size} + slot.val_size < needed) {
      enclave_.Free(slot.data);
      slot.data = nullptr;
    }
  }
  if (slot.data == nullptr) {
    slot.data = static_cast<uint8_t*>(enclave_.Allocate(needed));
    if (slot.data == nullptr) {  // enclave heap exhausted: skip caching
      slot.key_hash = 0;
      slot.key_size = 0;
      slot.val_size = 0;
      return;
    }
  }
  slot.key_hash = key_hash;
  slot.key_size = static_cast<uint32_t>(key.size());
  slot.val_size = static_cast<uint32_t>(value.size());
  enclave_.Touch(slot.data, needed, /*write=*/true);
  std::memcpy(slot.data, key.data(), key.size());
  std::memcpy(slot.data + key.size(), value.data(), value.size());
  bytes_used_ += needed;
}

void EnclaveCache::Invalidate(uint64_t key_hash, std::string_view key) {
  Slot& slot = slots_[SlotOf(key_hash)];
  enclave_.Touch(&slot, sizeof(Slot), /*write=*/true);
  if (slot.data == nullptr || slot.key_hash != key_hash || slot.key_size != key.size()) {
    return;
  }
  enclave_.Touch(slot.data, slot.key_size);
  if (std::memcmp(slot.data, key.data(), key.size()) != 0) {
    return;
  }
  enclave_.Free(slot.data);
  bytes_used_ -= size_t{slot.key_size} + slot.val_size;
  slot.data = nullptr;
  slot.key_hash = 0;
  slot.key_size = 0;
  slot.val_size = 0;
}

}  // namespace shield::shieldstore
