#include "src/sgx/seal.h"

#include <pthread.h>

#include <atomic>
#include <cstring>
#include <optional>

#include "src/crypto/ctr.h"
#include "src/crypto/drbg.h"
#include "src/crypto/hmac.h"

namespace shield::sgx {
namespace {

// Blob IVs come from a per-thread DRBG seeded once from the OS (it rekeys
// itself, fast-key-erasure style), not from a getrandom call per blob. A
// forked child reseeds, so it never replays its parent's IVs.
std::atomic<uint64_t> fork_generation{0};

crypto::Drbg& IvDrbg() {
  static const int registered = pthread_atfork(nullptr, nullptr, [] { ++fork_generation; });
  thread_local std::optional<crypto::Drbg> drbg;
  thread_local uint64_t seeded_in = 0;
  if (!drbg.has_value() || seeded_in != fork_generation.load()) {
    drbg.emplace();
    seeded_in = fork_generation.load();
  }
  (void)registered;
  return *drbg;
}

}  // namespace

SealingService::SealingService(ByteSpan fuse_key, const Measurement& mrenclave)
    // KDF: fuse key x measurement -> (enc, mac) keys, mirroring EGETKEY's
    // derivation of seal keys bound to MRENCLAVE.
    : SealingService(crypto::Hkdf(ByteSpan(mrenclave.data(), mrenclave.size()), fuse_key,
                                  AsBytes("sgx-seal-keys-v1"), 32)) {}

SealingService::SealingService(const Bytes& keys)
    : enc_(ByteSpan(keys.data(), 16)), mac_(ByteSpan(keys.data() + 16, 16)) {}

Bytes SealingService::Seal(ByteSpan plaintext, ByteSpan aad) const {
  Bytes blob(kOverhead + plaintext.size());
  uint8_t* iv = blob.data();
  IvDrbg().Fill(MutableByteSpan(iv, 16));
  StoreLe32(blob.data() + 16, static_cast<uint32_t>(aad.size()));
  StoreLe32(blob.data() + 20, static_cast<uint32_t>(plaintext.size()));
  uint8_t* ct = blob.data() + 24;
  crypto::AesCtrTransform(enc_, iv, 32, plaintext, MutableByteSpan(ct, plaintext.size()));
  crypto::Cmac cmac(mac_);
  cmac.Update(ByteSpan(blob.data(), 24));
  cmac.Update(aad);
  cmac.Update(ByteSpan(ct, plaintext.size()));
  const crypto::Mac tag = cmac.Finalize();
  std::memcpy(blob.data() + 24 + plaintext.size(), tag.data(), tag.size());
  return blob;
}

Result<Bytes> SealingService::Unseal(ByteSpan blob, ByteSpan aad) const {
  if (blob.size() < kOverhead) {
    return Status(Code::kInvalidArgument, "sealed blob too short");
  }
  const uint32_t aad_len = LoadLe32(blob.data() + 16);
  const uint32_t pt_len = LoadLe32(blob.data() + 20);
  if (aad_len != aad.size() || blob.size() != kOverhead + pt_len) {
    return Status(Code::kIntegrityFailure, "sealed blob length fields corrupted");
  }
  const uint8_t* ct = blob.data() + 24;
  crypto::Cmac cmac(mac_);
  cmac.Update(blob.subspan(0, 24));
  cmac.Update(aad);
  cmac.Update(ByteSpan(ct, pt_len));
  const crypto::Mac tag = cmac.Finalize();
  if (!ConstantTimeEqual(ByteSpan(tag.data(), tag.size()), blob.subspan(24 + pt_len, 16))) {
    return Status(Code::kIntegrityFailure, "sealed blob MAC mismatch");
  }
  Bytes plaintext(pt_len);
  crypto::AesCtrTransform(enc_, blob.data(), 32, ByteSpan(ct, pt_len), plaintext);
  return plaintext;
}

}  // namespace shield::sgx
