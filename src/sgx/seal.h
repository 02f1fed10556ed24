// Sealing service: sgx_seal_data / sgx_unseal_data analogue.
//
// Sealed blobs are bound to the platform ("fuse key") and to the enclave
// measurement, carry AES-CTR confidentiality and CMAC integrity, and admit
// additional authenticated data (AAD) — the monotonic counter value rides
// there in ShieldStore's snapshots.
//
// Blob layout: [ iv:16 | aad_len:4 | pt_len:4 | ciphertext | mac:16 ]
// MAC input:   iv || aad_len || pt_len || aad || ciphertext.
// Keys:        HKDF(salt = MRENCLAVE, ikm = fuse key, info = "sgx-seal-keys-v1",
//              32 bytes) = enc key || mac key; the IV is the AES-CTR counter
//              block (32-bit increment).
#ifndef SHIELDSTORE_SRC_SGX_SEAL_H_
#define SHIELDSTORE_SRC_SGX_SEAL_H_

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/aes.h"
#include "src/crypto/cmac.h"
#include "src/sgx/enclave.h"

namespace shield::sgx {

class SealingService {
 public:
  // `fuse_key` models the per-CPU root sealing key (16 bytes); the actual
  // sealing keys are derived from it and the enclave measurement, so blobs
  // sealed by one enclave identity do not unseal under another.
  SealingService(ByteSpan fuse_key, const Measurement& mrenclave);

  Bytes Seal(ByteSpan plaintext, ByteSpan aad) const;

  // Fails with kIntegrityFailure on any tampering of blob or AAD.
  Result<Bytes> Unseal(ByteSpan blob, ByteSpan aad) const;

  static constexpr size_t kOverhead = 16 + 4 + 4 + 16;

 private:
  // `keys` is the 32-byte KDF output: enc key || mac key.
  explicit SealingService(const Bytes& keys);

  // Expanded once at construction and immutable after, so concurrent Seal
  // and Unseal calls share them without locking or a per-blob key schedule.
  crypto::Aes128 enc_;
  crypto::CmacKey mac_;
};

}  // namespace shield::sgx

#endif  // SHIELDSTORE_SRC_SGX_SEAL_H_
