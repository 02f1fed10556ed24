// ShieldStore data-entry codec (Figure 5 of the paper).
//
// A data entry lives in UNTRUSTED memory and is composed of:
//   next pointer  — chain link (plaintext; availability only, §7),
//   key hint      — 1-byte keyed hash of the plaintext key (§5.4),
//   key/value sizes,
//   IV/counter    — 16 bytes, random at creation, incremented per update,
//   MAC           — CMAC over ciphertext, sizes, hint and IV/counter,
//   ciphertext    — AES-CTR(key || value).
//
// All sealing/opening logic here is "enclave code": it runs over secret keys
// that never leave the enclave. The functions are pure; the ShieldStore
// engine supplies storage from its untrusted heap.
#ifndef SHIELDSTORE_SRC_KV_ENTRY_H_
#define SHIELDSTORE_SRC_KV_ENTRY_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/aes.h"
#include "src/crypto/cmac.h"
#include "src/crypto/siphash.h"

namespace shield::kv {

// Key material for one store (all derived from one master key via HKDF;
// kept in enclave memory by the engine).
struct StoreKeys {
  crypto::AesKey enc_key{};         // AES-CTR data key (128-bit, §4.2)
  crypto::AesKey mac_key{};         // CMAC key for entry MACs and MAC hashes
  crypto::SipHashKey index_key{};   // keyed hash for the bucket index
  crypto::SipHashKey hint_key{};    // keyed hash for the 1-byte key hint

  // Derives all four keys from a 16..64-byte master secret.
  static StoreKeys Derive(ByteSpan master);
};

// Pre-expanded cipher state for one store: the AES-CTR schedule plus the
// CMAC schedule/subkeys, derived once and shared by every seal/open/MAC
// call. The engine keeps one per store in enclave memory; tools and tests
// build their own.
struct StoreCipher {
  explicit StoreCipher(const StoreKeys& store_keys)
      : keys(store_keys),
        enc(ByteSpan(store_keys.enc_key.data(), store_keys.enc_key.size())),
        mac(ByteSpan(store_keys.mac_key.data(), store_keys.mac_key.size())) {}
  // Pins a specific crypto backend (equivalence tests; Options::soft_crypto).
  StoreCipher(const StoreKeys& store_keys, crypto::AesBackend backend)
      : keys(store_keys),
        enc(ByteSpan(store_keys.enc_key.data(), store_keys.enc_key.size()), backend),
        mac(ByteSpan(store_keys.mac_key.data(), store_keys.mac_key.size()), backend) {}

  StoreKeys keys;
  crypto::Aes128 enc;   // AES-CTR data cipher
  crypto::CmacKey mac;  // entry/bucket-MAC key material
};

// On-wire/in-memory layout of an entry header; ciphertext follows
// immediately. The struct is written to untrusted memory verbatim.
//
// The chain link is an offset-based ref, not a pointer: in the persistent
// arena a ref is the entry's byte offset in the mapped file (stable across
// remaps), in the anonymous-mmap heap it is the offset inside the heap's
// reservation, and in ShieldBase mode it carries the raw pointer value.
// 0 is always "end of chain". The link stays outside the MAC (plaintext,
// availability only, §7) in every mode.
struct EntryHeader {
  uint64_t next_ref = 0;
  uint32_t key_size = 0;
  uint32_t val_size = 0;
  uint8_t key_hint = 0;
  uint8_t flags = 0;
  uint8_t reserved[6] = {};
  uint8_t iv_ctr[16] = {};
  uint8_t mac[16] = {};

  uint8_t* Ciphertext() { return reinterpret_cast<uint8_t*>(this + 1); }
  const uint8_t* Ciphertext() const { return reinterpret_cast<const uint8_t*>(this + 1); }
  size_t CiphertextSize() const { return size_t{key_size} + val_size; }
  static size_t BytesNeeded(size_t key_size, size_t val_size) {
    return sizeof(EntryHeader) + key_size + val_size;
  }
};
static_assert(sizeof(EntryHeader) == 56, "entry header layout drifted");

// 1-byte key hint (§5.4): keyed hash of the plaintext key.
uint8_t KeyHint(const StoreKeys& keys, std::string_view key);

// Bucket index (§4.2): keyed hash so chain shapes leak no key structure.
uint64_t BucketHash(const StoreKeys& keys, std::string_view key);

// Fills `header` (+ trailing ciphertext) for a NEW entry: fresh random
// IV/counter, hint, sizes, flags, ciphertext and MAC. `header` must
// reference at least BytesNeeded(key, value) bytes. `next` is left
// untouched. Flags are authenticated by the MAC (a tombstone flag an
// attacker could flip would resurrect or hide keys).
void SealNewEntry(const StoreCipher& cipher, std::string_view key, std::string_view value,
                  uint8_t flags, ByteSpan fresh_iv, EntryHeader* header);

// Re-seals an EXISTING entry with a new value (storage for the ciphertext
// must already fit it): increments the IV/counter (upper 64-bit half, so
// keystreams never overlap across versions — the paper increments the
// combined field; the disjoint-window choice is documented in DESIGN.md),
// re-encrypts and re-MACs.
void ResealEntry(const StoreCipher& cipher, std::string_view key, std::string_view value,
                 uint8_t flags, EntryHeader* header);

// Recomputed entry MAC (also the leaf fed into bucket-set MAC hashes).
crypto::Mac ComputeEntryMac(const StoreCipher& cipher, const EntryHeader& header);

// Decrypts just the key portion and compares; counts one decryption.
bool EntryKeyEquals(const StoreCipher& cipher, const EntryHeader& header, std::string_view key);

// Decrypts and integrity-checks the whole entry; returns the value.
Result<std::string> OpenEntryValue(const StoreCipher& cipher, const EntryHeader& header);
// The value's CTR decryption alone, for callers that verified the entry MAC
// already (a pipelined get run verifies its hits in one VerifyEntryMacsBatch).
std::string DecryptEntryValue(const StoreCipher& cipher, const EntryHeader& header);

// Decrypts the key (used by snapshot recovery / full searches).
std::string OpenEntryKey(const StoreCipher& cipher, const EntryHeader& header);

// Recomputes and checks every entry's MAC with interleaved CMAC lanes (one
// shared key schedule, up to crypto::kCmacBatchLanes chains in flight).
// Returns the index of the first mismatching entry, or entries.size() when
// all verify. Tag comparison is constant-time per entry.
size_t VerifyEntryMacsBatch(const StoreCipher& cipher,
                            std::span<const EntryHeader* const> entries);

}  // namespace shield::kv

#endif  // SHIELDSTORE_SRC_KV_ENTRY_H_
