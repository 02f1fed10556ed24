// Session crypto and the attestation handshake (§3.2).
//
// Handshake (one round trip):
//   client -> server : client X25519 public key || client nonce
//   server -> client : server public key || server nonce || quote
// where the quote's report_data binds the server's DH key and a transcript
// hash, so a man-in-the-middle cannot splice its own key into an honest
// quote. Both sides HKDF the X25519 shared secret (salted with both nonces)
// into four keys: client->server {AES-CTR, CMAC} and server->client
// {AES-CTR, CMAC}.
//
// Record protection: each direction numbers its records; the counter block
// is LE64(sequence) || direction (32-bit big-endian increment over its last
// word), and the CMAC covers LE64(sequence) || direction || ciphertext, so
// records cannot be replayed, reordered, or reflected. A record is
// ciphertext || tag(16).
#ifndef SHIELDSTORE_SRC_NET_CHANNEL_H_
#define SHIELDSTORE_SRC_NET_CHANNEL_H_

#include <cstdint>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/aes.h"
#include "src/crypto/cmac.h"
#include "src/sgx/attestation.h"
#include "src/sgx/enclave.h"

namespace shield::net {

// Per-session record protection. Constructed from the 64 bytes of HKDF
// output, laid out [c2s enc | c2s mac | s2c enc | s2c mac] (16 bytes each);
// the `is_client` flag selects which half keys which direction.
//
// Key state: each direction's AES-CTR schedule and CMAC key (schedule plus
// K1/K2) are expanded once, here, and live for the session, so Seal and Open
// run no key schedule per record. That makes a session's crypto state about
// 1.5 KB instead of the 64 B of raw keys (about 15 MB across 10k sessions).
class SessionCrypto {
 public:
  static constexpr size_t kKeyMaterialSize = 64;

  // encrypt == false disables record protection entirely (the paper's
  // "without network security" ablation in §6.4).
  SessionCrypto(ByteSpan key_material, bool is_client, bool encrypt);
  // Pins a specific AES backend (equivalence benches).
  SessionCrypto(ByteSpan key_material, bool is_client, bool encrypt, crypto::AesBackend backend);

  // Protects an outgoing payload: returns ciphertext || MAC(16).
  Bytes Seal(ByteSpan plaintext);

  // Opens an incoming record; kProtocolError on any forgery or replay.
  Result<Bytes> Open(ByteSpan record);

  bool encrypting() const { return encrypt_; }

 private:
  // One direction's expanded keys, its direction byte and its sequence.
  struct Direction {
    Direction(const uint8_t* keys, uint8_t dir, crypto::AesBackend backend);

    crypto::Aes128 enc;   // AES-CTR keystream
    crypto::CmacKey mac;  // CMAC over seq || direction || ciphertext
    uint8_t direction;
    uint64_t seq = 0;
  };

  Direction send_;
  Direction recv_;
  bool encrypt_;
};

// --- handshake capability trailer ---
//
// A new peer may append 4 bytes to its hello: [0x53 'S'][0x54 'T']
// [u8 version=1][u8 flags], flags bit 0 = request trace propagation. An old
// server rejects the longer hello outright (the client then falls back to a
// legacy hello, see Client::Connect), and a new server answers a legacy
// hello with a byte-identical legacy reply — so mixed-version pairs stay
// wire-compatible. The trailer rides inside the client hello, which the
// transcript hash already covers, so the negotiated capabilities are bound
// into the attestation quote. The reply's echo trailer sits after the quote
// and is not quote-bound: stripping it can only downgrade tracing, never
// weaken record protection.
inline constexpr uint8_t kHelloExtMagic0 = 0x53;
inline constexpr uint8_t kHelloExtMagic1 = 0x54;
inline constexpr uint8_t kHelloExtVersion = 1;
inline constexpr uint8_t kHelloFlagTracing = 0x01;
inline constexpr size_t kHelloExtBytes = 4;
inline constexpr size_t kLegacyHelloBytes = 32 + 16;

// Frame-level server handshake: consumes a complete client-hello payload and
// produces the reply payload plus the derived session key material. All
// cryptographic steps are enclave work (the caller wraps this in an ECALL).
// The reactor uses this directly once a full hello frame has been buffered;
// the blocking `ServerHandshake` below is a convenience wrapper around it.
struct ServerHandshakeReply {
  Bytes reply;         // server pub || server nonce || quote [|| trailer]
  Bytes key_material;  // HKDF output for SessionCrypto
  bool tracing = false;  // client requested + server granted trace propagation
};
Result<ServerHandshakeReply> ServerHandshakeHello(ByteSpan hello, sgx::Enclave& enclave,
                                                  const sgx::AttestationAuthority& authority);

// Server side of the handshake over a blocking socket; returns the session
// key material.
Result<Bytes> ServerHandshake(int fd, sgx::Enclave& enclave,
                              const sgx::AttestationAuthority& authority);

struct ClientHandshakeOptions {
  bool request_tracing = false;  // append the capability trailer to the hello
};
struct ClientHandshakeResult {
  Bytes key_material;
  bool tracing = false;  // server granted trace propagation
};

// Client side. Verifies the quote through `authority` (the IAS role) and
// checks the measurement against `expected`.
Result<Bytes> ClientHandshake(int fd, const sgx::AttestationAuthority& authority,
                              const sgx::Measurement& expected);

// Client side with capability negotiation. With request_tracing the hello
// carries the trailer, which an old server rejects — callers handle that by
// retrying with the legacy hello (Client::Connect does this automatically).
Result<ClientHandshakeResult> ClientHandshakeEx(int fd,
                                                const sgx::AttestationAuthority& authority,
                                                const sgx::Measurement& expected,
                                                const ClientHandshakeOptions& options);

}  // namespace shield::net

#endif  // SHIELDSTORE_SRC_NET_CHANNEL_H_
