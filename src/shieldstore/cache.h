// Plaintext entry cache in enclave (EPC-backed) memory — the "simple cache
// design to use the remaining memory of EPC efficiently" that §6.3 adds for
// small working sets (ShieldOpt+cache in Figure 17).
//
// Direct-mapped: each slot holds one key/value copy allocated from the
// enclave heap. Accesses Touch() the slot storage, so a cache sized within
// the EPC budget stays resident and fast, while an over-budget cache pages —
// exactly the trade-off the figure explores.
#ifndef SHIELDSTORE_SRC_SHIELDSTORE_CACHE_H_
#define SHIELDSTORE_SRC_SHIELDSTORE_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/sgx/enclave.h"

namespace shield::shieldstore {

class EnclaveCache {
 public:
  // `slots` direct-mapped slots; storage comes from `enclave`'s heap.
  EnclaveCache(sgx::Enclave& enclave, size_t slots);
  ~EnclaveCache();

  EnclaveCache(const EnclaveCache&) = delete;
  EnclaveCache& operator=(const EnclaveCache&) = delete;

  std::optional<std::string> Get(uint64_t key_hash, std::string_view key);

  // The direct-mapped slot a key hash lands in.
  size_t SlotOf(uint64_t key_hash) const { return key_hash % num_slots_; }

  // Inserts or refreshes (replaces whatever shares the slot).
  void Put(uint64_t key_hash, std::string_view key, std::string_view value);

  // Drops the mapping if this exact key occupies its slot.
  void Invalidate(uint64_t key_hash, std::string_view key);

  uint64_t hits() const { return hits_; }
  uint64_t lookups() const { return lookups_; }
  size_t bytes_used() const { return bytes_used_; }

 private:
  struct Slot {  // lives in enclave memory
    uint64_t key_hash;
    uint32_t key_size;
    uint32_t val_size;
    uint8_t* data;  // enclave heap: key || value
  };

  sgx::Enclave& enclave_;
  size_t num_slots_;
  Slot* slots_;  // enclave memory
  uint64_t hits_ = 0;
  uint64_t lookups_ = 0;
  size_t bytes_used_ = 0;
};

}  // namespace shield::shieldstore

#endif  // SHIELDSTORE_SRC_SHIELDSTORE_CACHE_H_
