// Threat-model scenario (§3.3, §4.3): what a malicious OS/hypervisor can and
// cannot do to ShieldStore's untrusted memory.
//
// This demo plays the attacker: it rummages through the raw entry bytes
// looking for plaintext, then mounts bit-flip and replay attacks, showing
// each one surface as an explicit integrity failure instead of wrong data.
// (It uses the same white-box access a privileged attacker has: the heap is
// ordinary process memory here.)
#include <cstdio>
#include <cstring>

#include "src/shieldstore/store.h"

namespace shield::shieldstore {

// The demo reaches into untrusted memory the same way tests do.
class StoreTestPeer {
 public:
  static kv::EntryHeader* RawEntry(Store& s, std::string_view key) {
    const size_t bucket = s.BucketIndex(kv::BucketHash(*s.keys_, key));
    for (uint64_t ref = s.buckets_[bucket].head_ref; ref != 0;) {
      kv::EntryHeader* e = s.Deref(ref);
      if (kv::EntryKeyEquals(*s.cipher_, *e, key)) {
        return e;
      }
      ref = e->next_ref;
    }
    return nullptr;
  }
};

}  // namespace shield::shieldstore

int main() {
  using namespace shield;
  sgx::EnclaveConfig config;
  config.name = "tamper-demo";
  sgx::Enclave enclave(config);
  shieldstore::Options options;
  options.num_buckets = 64;
  shieldstore::Store store(enclave, options);

  const std::string secret = "PIN=4242;SSN=000-11-2222";
  store.Set("customer-record", secret);

  // 1. Confidentiality: the attacker scans the raw entry.
  kv::EntryHeader* entry = shieldstore::StoreTestPeer::RawEntry(store, "customer-record");
  const std::string_view raw(reinterpret_cast<const char*>(entry->Ciphertext()),
                             entry->CiphertextSize());
  std::printf("attacker sees plaintext in untrusted memory: %s\n",
              raw.find("4242") == std::string_view::npos ? "no" : "YES (bug!)");

  // 2. Integrity: flip one bit of the value ciphertext. (Flipping the *key*
  // ciphertext instead would make the key unfindable — an availability
  // attack, which the threat model accepts; data is never forged.)
  entry->Ciphertext()[entry->key_size + 3] ^= 0x01;
  Result<std::string> after_flip = store.Get("customer-record");
  std::printf("bit-flip attack detected: %s\n", after_flip.status().ToString().c_str());
  entry->Ciphertext()[entry->key_size + 3] ^= 0x01;  // undo

  // 3. Freshness: replay an old (validly MAC'd) version of the entry.
  const size_t entry_bytes = sizeof(kv::EntryHeader) + entry->CiphertextSize();
  std::string old_version(reinterpret_cast<char*>(entry), entry_bytes);
  store.Set("customer-record", "PIN=0000;SSN=REDACTED-PROPERLY");
  kv::EntryHeader* current = shieldstore::StoreTestPeer::RawEntry(store, "customer-record");
  const uint64_t next = current->next_ref;
  std::memcpy(current, old_version.data(), entry_bytes);  // the replay
  current->next_ref = next;
  Result<std::string> after_replay = store.Get("customer-record");
  std::printf("replay attack detected: %s\n", after_replay.status().ToString().c_str());

  return after_flip.status().code() == Code::kIntegrityFailure &&
                 after_replay.status().code() == Code::kIntegrityFailure
             ? 0
             : 1;
}
