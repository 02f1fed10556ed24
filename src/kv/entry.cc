#include "src/kv/entry.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/crypto/ctr.h"
#include "src/crypto/hmac.h"

namespace shield::kv {
namespace {

// The SGX SDK's counter-mode increment window (sgx_aes_ctr_encrypt).
constexpr uint32_t kCtrIncBits = 32;

void EncryptPayload(const StoreCipher& cipher, std::string_view key, std::string_view value,
                    EntryHeader* header) {
  uint8_t* ct = header->Ciphertext();
  // key || value, encrypted as one CTR stream.
  std::memcpy(ct, key.data(), key.size());
  std::memcpy(ct + key.size(), value.data(), value.size());
  crypto::AesCtrTransform(cipher.enc, header->iv_ctr, kCtrIncBits,
                          ByteSpan(ct, key.size() + value.size()),
                          MutableByteSpan(ct, key.size() + value.size()));
}

// Serializes the authenticated non-ciphertext fields (see ComputeEntryMac).
void PackMacFields(const EntryHeader& header, uint8_t fields[10]) {
  StoreLe32(fields, header.key_size);
  StoreLe32(fields + 4, header.val_size);
  fields[8] = header.key_hint;
  fields[9] = header.flags;
}

}  // namespace

StoreKeys StoreKeys::Derive(ByteSpan master) {
  StoreKeys keys;
  const Bytes okm = crypto::Hkdf(AsBytes("shieldstore-keys-v1"), master,
                                 AsBytes("enc|mac|index|hint"), 64);
  std::memcpy(keys.enc_key.data(), okm.data(), 16);
  std::memcpy(keys.mac_key.data(), okm.data() + 16, 16);
  std::memcpy(keys.index_key.data(), okm.data() + 32, 16);
  std::memcpy(keys.hint_key.data(), okm.data() + 48, 16);
  return keys;
}

uint8_t KeyHint(const StoreKeys& keys, std::string_view key) {
  return static_cast<uint8_t>(crypto::SipHash24(keys.hint_key, AsBytes(key)) & 0xFF);
}

uint64_t BucketHash(const StoreKeys& keys, std::string_view key) {
  return crypto::SipHash24(keys.index_key, AsBytes(key));
}

void SealNewEntry(const StoreCipher& cipher, std::string_view key, std::string_view value,
                  uint8_t flags, ByteSpan fresh_iv, EntryHeader* header) {
  assert(fresh_iv.size() == 16);
  header->key_size = static_cast<uint32_t>(key.size());
  header->val_size = static_cast<uint32_t>(value.size());
  header->key_hint = KeyHint(cipher.keys, key);
  header->flags = flags;
  std::memset(header->reserved, 0, sizeof(header->reserved));
  std::memcpy(header->iv_ctr, fresh_iv.data(), 16);
  EncryptPayload(cipher, key, value, header);
  const crypto::Mac mac = ComputeEntryMac(cipher, *header);
  std::memcpy(header->mac, mac.data(), mac.size());
}

void ResealEntry(const StoreCipher& cipher, std::string_view key, std::string_view value,
                 uint8_t flags, EntryHeader* header) {
  // Increment the upper 64-bit half of the IV/counter: successive versions
  // use disjoint counter windows, so CTR keystreams never repeat even though
  // the in-stream counter (low 32 bits) restarts at the stored value.
  for (int i = 7; i >= 0; --i) {
    if (++header->iv_ctr[i] != 0) {
      break;
    }
  }
  header->key_size = static_cast<uint32_t>(key.size());
  header->val_size = static_cast<uint32_t>(value.size());
  header->key_hint = KeyHint(cipher.keys, key);
  header->flags = flags;
  EncryptPayload(cipher, key, value, header);
  const crypto::Mac mac = ComputeEntryMac(cipher, *header);
  std::memcpy(header->mac, mac.data(), mac.size());
}

crypto::Mac ComputeEntryMac(const StoreCipher& cipher, const EntryHeader& header) {
  // MAC over: ciphertext || key_size || val_size || key_hint || flags ||
  // iv_ctr (§4.2's field list plus the flags byte, which must be
  // authenticated because it encodes tombstones). The chain pointer is
  // intentionally excluded: placement integrity comes from the bucket-set
  // MAC hash.
  crypto::Cmac cmac(cipher.mac);
  cmac.Update(ByteSpan(header.Ciphertext(), header.CiphertextSize()));
  uint8_t fields[10];
  PackMacFields(header, fields);
  cmac.Update(ByteSpan(fields, sizeof(fields)));
  cmac.Update(ByteSpan(header.iv_ctr, 16));
  return cmac.Finalize();
}

size_t VerifyEntryMacsBatch(const StoreCipher& cipher,
                            std::span<const EntryHeader* const> entries) {
  constexpr size_t kLanes = crypto::kCmacBatchLanes;
  crypto::CmacMessage msgs[kLanes];
  uint8_t fields[kLanes][10];
  crypto::Mac tags[kLanes];
  for (size_t base = 0; base < entries.size(); base += kLanes) {
    const size_t n = std::min(kLanes, entries.size() - base);
    for (size_t i = 0; i < n; ++i) {
      const EntryHeader& header = *entries[base + i];
      PackMacFields(header, fields[i]);
      msgs[i] = crypto::CmacMessage{};
      msgs[i].Append(ByteSpan(header.Ciphertext(), header.CiphertextSize()));
      msgs[i].Append(ByteSpan(fields[i], sizeof(fields[i])));
      msgs[i].Append(ByteSpan(header.iv_ctr, 16));
    }
    crypto::CmacSignBatch(cipher.mac, std::span<const crypto::CmacMessage>(msgs, n), tags);
    for (size_t i = 0; i < n; ++i) {
      const EntryHeader& header = *entries[base + i];
      if (!ConstantTimeEqual(ByteSpan(tags[i].data(), tags[i].size()),
                             ByteSpan(header.mac, 16))) {
        return base + i;
      }
    }
  }
  return entries.size();
}

bool EntryKeyEquals(const StoreCipher& cipher, const EntryHeader& header, std::string_view key) {
  if (header.key_size != key.size()) {
    return false;
  }
  // CTR lets us decrypt just the key prefix of the stream, a 64-byte chunk
  // (four counter blocks) at a time into a stack buffer.
  uint8_t counter[16];
  std::memcpy(counter, header.iv_ctr, 16);
  uint8_t plain[64];
  for (size_t off = 0; off < key.size(); off += sizeof(plain)) {
    const size_t n = std::min(sizeof(plain), key.size() - off);
    crypto::AesCtrTransform(cipher.enc, counter, kCtrIncBits,
                            ByteSpan(header.Ciphertext() + off, n), MutableByteSpan(plain, n));
    if (std::memcmp(plain, key.data() + off, n) != 0) {
      return false;
    }
    crypto::IncrementCounter(counter, kCtrIncBits, sizeof(plain) / 16);
  }
  return true;
}

Result<std::string> OpenEntryValue(const StoreCipher& cipher, const EntryHeader& header) {
  const crypto::Mac mac = ComputeEntryMac(cipher, header);
  if (!ConstantTimeEqual(ByteSpan(mac.data(), mac.size()), ByteSpan(header.mac, 16))) {
    return Status(Code::kIntegrityFailure, "entry MAC mismatch");
  }
  return DecryptEntryValue(cipher, header);
}

std::string DecryptEntryValue(const StoreCipher& cipher, const EntryHeader& header) {
  // One allocation: decrypt key || value into the result, then drop the key
  // prefix in place.
  std::string plaintext(header.CiphertextSize(), '\0');
  crypto::AesCtrTransform(cipher.enc, header.iv_ctr, kCtrIncBits,
                          ByteSpan(header.Ciphertext(), header.CiphertextSize()),
                          MutableByteSpan(reinterpret_cast<uint8_t*>(plaintext.data()),
                                          plaintext.size()));
  plaintext.erase(0, header.key_size);
  return plaintext;
}

std::string OpenEntryKey(const StoreCipher& cipher, const EntryHeader& header) {
  std::string plain_key(header.key_size, '\0');
  crypto::AesCtrTransform(cipher.enc, header.iv_ctr, kCtrIncBits,
                          ByteSpan(header.Ciphertext(), header.key_size),
                          MutableByteSpan(reinterpret_cast<uint8_t*>(plain_key.data()),
                                          plain_key.size()));
  return plain_key;
}

}  // namespace shield::kv
