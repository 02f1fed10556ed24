#include "src/net/channel.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/crypto/ctr.h"
#include "src/crypto/drbg.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/crypto/x25519.h"
#include "src/net/protocol.h"

namespace shield::net {
namespace {

constexpr uint8_t kClientToServer = 0x01;
constexpr uint8_t kServerToClient = 0x02;
// The client hello: X25519 public key || 16-byte nonce.
constexpr size_t kHelloBytes = 32 + 16;

Bytes DeriveSessionKeys(const crypto::X25519Key& shared, ByteSpan client_nonce,
                        ByteSpan server_nonce) {
  Bytes salt;
  salt.insert(salt.end(), client_nonce.begin(), client_nonce.end());
  salt.insert(salt.end(), server_nonce.begin(), server_nonce.end());
  return crypto::Hkdf(salt, ByteSpan(shared.data(), shared.size()),
                      AsBytes("shieldstore-session-v1"), SessionCrypto::kKeyMaterialSize);
}

crypto::Sha256Digest TranscriptHash(ByteSpan client_hello, const crypto::X25519Key& server_pub,
                                    ByteSpan server_nonce) {
  crypto::Sha256 sha;
  sha.Update(client_hello);
  sha.Update(ByteSpan(server_pub.data(), server_pub.size()));
  sha.Update(server_nonce);
  return sha.Finalize();
}

// The record-MAC header, LE64(seq) || direction; the CMAC covers it and
// then the ciphertext.
constexpr size_t kRecordHeaderBytes = 9;

crypto::CmacMessage RecordMacMessage(uint64_t seq, uint8_t direction, ByteSpan ciphertext,
                                     uint8_t* header) {
  StoreLe64(header, seq);
  header[8] = direction;
  crypto::CmacMessage msg;
  msg.Append(ByteSpan(header, kRecordHeaderBytes));
  msg.Append(ciphertext);
  return msg;
}

// AES-CTR under the counter block LE64(seq) || direction || 0...
void RecordCtr(const crypto::Aes128& aes, uint64_t seq, uint8_t direction, ByteSpan in,
               MutableByteSpan out) {
  uint8_t counter[16] = {};
  StoreLe64(counter, seq);
  counter[8] = direction;
  crypto::AesCtrTransform(aes, counter, 32, in, out);
}

}  // namespace

SessionCrypto::Direction::Direction(const uint8_t* keys, uint8_t dir,
                                    crypto::AesBackend backend)
    : enc(ByteSpan(keys, 16), backend), mac(ByteSpan(keys + 16, 16), backend), direction(dir) {}

SessionCrypto::SessionCrypto(ByteSpan key_material, bool is_client, bool encrypt)
    : SessionCrypto(key_material, is_client, encrypt, crypto::Aes128::Backend()) {}

SessionCrypto::SessionCrypto(ByteSpan key_material, bool is_client, bool encrypt,
                             crypto::AesBackend backend)
    : send_(key_material.data() + (is_client ? 0 : 32),
            is_client ? kClientToServer : kServerToClient, backend),
      recv_(key_material.data() + (is_client ? 32 : 0),
            is_client ? kServerToClient : kClientToServer, backend),
      encrypt_(encrypt) {}

Bytes SessionCrypto::Seal(ByteSpan plaintext) {
  Bytes record(plaintext.size() + overhead());
  std::copy(plaintext.begin(), plaintext.end(), record.begin());
  const MutableByteSpan one(record);
  SealRecords(std::span<const MutableByteSpan>(&one, 1));
  return record;
}

Result<Bytes> SessionCrypto::Open(ByteSpan record) {
  if (!encrypt_) {
    return Bytes(record.begin(), record.end());
  }
  if (record.size() < crypto::kCmacSize) {
    return Status(Code::kProtocolError, "record too short");
  }
  Bytes plaintext;
  ByteSpan opened;
  if (OpenRun(std::span<const ByteSpan>(&record, 1), plaintext,
              std::span<ByteSpan>(&opened, 1)) == 0) {
    return Status(Code::kProtocolError, "record authentication failed");
  }
  return plaintext;
}

size_t SessionCrypto::OpenRun(std::span<const ByteSpan> records, Bytes& plaintext,
                              std::span<ByteSpan> opened) {
  if (!encrypt_) {
    std::copy(records.begin(), records.end(), opened.begin());
    return records.size();
  }
  // Size the buffer for every record long enough to carry a MAC before
  // writing any plaintext, so the views handed out stay valid.
  size_t candidates = 0;
  size_t total = 0;
  while (candidates < records.size() && records[candidates].size() >= crypto::kCmacSize) {
    total += records[candidates].size() - crypto::kCmacSize;
    ++candidates;
  }
  if (plaintext.size() < total) {
    plaintext.resize(total);
  }
  size_t count = 0;
  size_t offset = 0;
  while (count < candidates) {
    const size_t n = std::min(kRunChunk, candidates - count);
    uint8_t headers[kRunChunk][kRecordHeaderBytes];
    crypto::CmacMessage messages[kRunChunk];
    crypto::Mac tags[kRunChunk];
    for (size_t i = 0; i < n; ++i) {
      const ByteSpan record = records[count + i];
      messages[i] = RecordMacMessage(recv_.seq + i, recv_.direction,
                                     record.first(record.size() - crypto::kCmacSize), headers[i]);
    }
    crypto::CmacSignBatch(recv_.mac, std::span<const crypto::CmacMessage>(messages, n), tags);
    for (size_t i = 0; i < n; ++i) {
      const ByteSpan record = records[count];
      const size_t ct_len = record.size() - crypto::kCmacSize;
      if (!ConstantTimeEqual(ByteSpan(tags[i].data(), tags[i].size()), record.subspan(ct_len))) {
        return count;
      }
      const MutableByteSpan out(plaintext.data() + offset, ct_len);
      RecordCtr(recv_.enc, recv_.seq++, recv_.direction, record.first(ct_len), out);
      opened[count++] = out;
      offset += ct_len;
    }
  }
  return count;
}

void SessionCrypto::SealFrames(MutableByteSpan frames) {
  if (!encrypt_) {
    return;
  }
  MutableByteSpan records[kRunChunk];
  size_t n = 0;
  for (size_t at = 0; at < frames.size();) {
    const size_t len = LoadLe32(frames.data() + at);
    records[n++] = frames.subspan(at + 4, len);
    at += 4 + len;
    if (n == kRunChunk || at == frames.size()) {
      SealRecords(std::span<const MutableByteSpan>(records, n));
      n = 0;
    }
  }
}

void SessionCrypto::SealRecords(std::span<const MutableByteSpan> records) {
  assert(records.size() <= kRunChunk);
  if (!encrypt_) {
    return;
  }
  uint8_t headers[kRunChunk][kRecordHeaderBytes];
  crypto::CmacMessage messages[kRunChunk];
  crypto::Mac tags[kRunChunk];
  for (size_t i = 0; i < records.size(); ++i) {
    const MutableByteSpan text = records[i].first(records[i].size() - crypto::kCmacSize);
    const uint64_t seq = send_.seq++;
    RecordCtr(send_.enc, seq, send_.direction, text, text);
    messages[i] = RecordMacMessage(seq, send_.direction, text, headers[i]);
  }
  crypto::CmacSignBatch(send_.mac, std::span<const crypto::CmacMessage>(messages, records.size()),
                        tags);
  for (size_t i = 0; i < records.size(); ++i) {
    std::copy(tags[i].begin(), tags[i].end(), records[i].end() - crypto::kCmacSize);
  }
}

Result<ServerHandshakeReply> ServerHandshakeHello(ByteSpan hello, sgx::Enclave& enclave,
                                                  const sgx::AttestationAuthority& authority) {
  if (hello.size() != kHelloBytes) {
    return Status(Code::kProtocolError, "bad client hello");
  }
  crypto::X25519Key client_pub;
  std::memcpy(client_pub.data(), hello.data(), 32);
  const ByteSpan client_nonce(hello.data() + 32, 16);

  crypto::X25519Key server_priv;
  enclave.ReadRand(MutableByteSpan(server_priv.data(), server_priv.size()));
  const crypto::X25519Key server_pub = crypto::X25519BasePoint(server_priv);
  uint8_t server_nonce[16];
  enclave.ReadRand(MutableByteSpan(server_nonce, sizeof(server_nonce)));

  // Quote binds the server DH key and transcript into report_data.
  const crypto::Sha256Digest transcript =
      TranscriptHash(hello, server_pub, ByteSpan(server_nonce, 16));
  Bytes report_data;
  report_data.insert(report_data.end(), server_pub.begin(), server_pub.end());
  report_data.insert(report_data.end(), transcript.begin(), transcript.end());
  const sgx::Quote quote = authority.GenerateQuote(enclave, report_data);

  ServerHandshakeReply out;
  out.reply.insert(out.reply.end(), server_pub.begin(), server_pub.end());
  out.reply.insert(out.reply.end(), server_nonce, server_nonce + 16);
  const Bytes quote_wire = quote.Serialize();
  out.reply.insert(out.reply.end(), quote_wire.begin(), quote_wire.end());

  const crypto::X25519Key shared = crypto::X25519(server_priv, client_pub);
  out.key_material = DeriveSessionKeys(shared, client_nonce, ByteSpan(server_nonce, 16));
  return out;
}

Result<Bytes> ClientHandshake(int fd, const sgx::AttestationAuthority& authority,
                              const sgx::Measurement& expected) {
  crypto::Drbg rng;
  crypto::X25519Key client_priv;
  rng.Fill(MutableByteSpan(client_priv.data(), client_priv.size()));
  const crypto::X25519Key client_pub = crypto::X25519BasePoint(client_priv);
  uint8_t client_nonce[16];
  rng.Fill(MutableByteSpan(client_nonce, sizeof(client_nonce)));

  Bytes hello;
  hello.insert(hello.end(), client_pub.begin(), client_pub.end());
  hello.insert(hello.end(), client_nonce, client_nonce + 16);
  if (Status s = SendFrame(fd, hello); !s.ok()) {
    return s;
  }

  Result<Bytes> reply = RecvFrame(fd);
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply->size() != 32 + 16 + sgx::Quote::kSerializedSize) {
    return Status(Code::kProtocolError, "bad server hello");
  }
  crypto::X25519Key server_pub;
  std::memcpy(server_pub.data(), reply->data(), 32);
  const ByteSpan server_nonce(reply->data() + 32, 16);
  Result<sgx::Quote> quote =
      sgx::Quote::Deserialize(ByteSpan(reply->data() + 48, sgx::Quote::kSerializedSize));
  if (!quote.ok()) {
    return quote.status();
  }

  // Remote attestation: authentic quote, expected enclave, bound DH key.
  if (!authority.VerifyQuote(*quote)) {
    return Status(Code::kProtocolError, "attestation quote verification failed");
  }
  if (!ConstantTimeEqual(ByteSpan(quote->mrenclave.data(), 32), ByteSpan(expected.data(), 32))) {
    return Status(Code::kProtocolError, "unexpected enclave measurement");
  }
  const crypto::Sha256Digest transcript = TranscriptHash(hello, server_pub, server_nonce);
  Bytes expected_report;
  expected_report.insert(expected_report.end(), server_pub.begin(), server_pub.end());
  expected_report.insert(expected_report.end(), transcript.begin(), transcript.end());
  if (!ConstantTimeEqual(ByteSpan(quote->report_data.data(), expected_report.size()),
                         expected_report)) {
    return Status(Code::kProtocolError, "quote does not bind the server key exchange");
  }

  const crypto::X25519Key shared = crypto::X25519(client_priv, server_pub);
  return DeriveSessionKeys(shared, ByteSpan(client_nonce, 16), server_nonce);
}

}  // namespace shield::net
