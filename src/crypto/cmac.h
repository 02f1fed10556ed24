// AES-128-CMAC (RFC 4493), mirroring sgx_rijndael128_cmac_msg.
#ifndef SHIELDSTORE_SRC_CRYPTO_CMAC_H_
#define SHIELDSTORE_SRC_CRYPTO_CMAC_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <span>

#include "src/common/bytes.h"
#include "src/crypto/aes.h"

namespace shield::crypto {

inline constexpr size_t kCmacSize = 16;
using Mac = std::array<uint8_t, kCmacSize>;

// Constant-time tag comparison — re-exported here so crypto callers compare
// MACs without pulling in the whole of common/bytes.h vocabulary.
using ::shield::ConstantTimeEqual;

// Expanded CMAC key material: the AES schedule plus the RFC 4493 K1/K2
// subkeys. Deriving this once and sharing it across many Cmac streams (and
// CmacSignBatch) avoids re-running the key expansion per message — the fresh
// `Cmac` per entry that used to dominate bucket-chain verification.
class CmacKey {
 public:
  // key must be exactly 16 bytes. Uses Aes128::Backend() dispatch.
  explicit CmacKey(ByteSpan key);
  // Pins a specific backend (tests, equivalence benches).
  CmacKey(ByteSpan key, AesBackend backend);

  const Aes128& aes() const { return aes_; }
  const AesBlock& k1() const { return k1_; }
  const AesBlock& k2() const { return k2_; }

 private:
  Aes128 aes_;
  AesBlock k1_;
  AesBlock k2_;
};

// Streaming CMAC for multi-part messages (MAC-hash over bucket-set MAC lists
// is computed incrementally without concatenating buffers).
//
// Lifetime contract: a Cmac borrows its CmacKey — it keeps a reference, runs
// no key schedule and copies no round keys — so the key must outlive every
// Cmac built from it. Long-lived owners (the store's cipher set, a
// SessionCrypto direction, the SealingService) hold the CmacKey and build a
// Cmac per message; a cold one-shot caller builds a local CmacKey first.
// Binding a temporary key is a compile error.
class Cmac {
 public:
  explicit Cmac(const CmacKey& key);
  Cmac(CmacKey&&) = delete;

  // Re-arms the state for a new message.
  void Reset();

  void Update(ByteSpan data);

  // Finalizes and returns the 128-bit tag. The object must be Reset() before
  // reuse.
  Mac Finalize();

 private:
  const CmacKey& key_;
  AesBlock state_;    // running CBC-MAC state
  AesBlock partial_;  // buffered tail block (1..16 bytes once any data seen)
  size_t partial_len_ = 0;
  bool any_data_ = false;
};

// A multi-part message for batch signing: a bounded list of byte spans that
// are CMAC'd as if concatenated. Spans must stay alive until the batch call.
struct CmacMessage {
  static constexpr size_t kMaxParts = 4;

  void Append(ByteSpan part) {
    assert(num_parts < kMaxParts);
    parts[num_parts++] = part;
  }

  size_t TotalSize() const {
    size_t total = 0;
    for (size_t i = 0; i < num_parts; ++i) {
      total += parts[i].size();
    }
    return total;
  }

  ByteSpan parts[kMaxParts];
  size_t num_parts = 0;
};

// Number of CMAC streams interleaved per round in CmacSignBatch; matches the
// hardware EncryptBlocks pipeline depth.
inline constexpr size_t kCmacBatchLanes = 8;

// Computes tags[i] = CMAC(key, messages[i]) for all messages, advancing up
// to kCmacBatchLanes CBC-MAC chains in lock-step so each AES round runs over
// a batch of independent blocks (pipelined on AES-NI). Bit-identical to
// signing each message with a serial Cmac stream; a group of one (a batch of
// one, or the tail of a batch) runs as that stream, so it costs no more.
void CmacSignBatch(const CmacKey& key, std::span<const CmacMessage> messages, Mac* tags);

// One-shot CMAC of a single buffer. Expands `key` on every call: for cold
// callers only.
Mac CmacSign(ByteSpan key, ByteSpan data);

// Verifies in constant time.
bool CmacVerify(ByteSpan key, ByteSpan data, ByteSpan tag);

}  // namespace shield::crypto

#endif  // SHIELDSTORE_SRC_CRYPTO_CMAC_H_
