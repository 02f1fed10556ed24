// Networking tests: protocol codecs, session crypto, the attestation
// handshake, and full client/server round trips over loopback in both entry
// modes (ECALL and HotCalls).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/common/rng.h"
#include "src/crypto/cmac.h"
#include "src/crypto/ctr.h"
#include "src/net/client.h"
#include "src/net/replication.h"
#include "src/net/server.h"
#include "src/obs/tracer.h"
#include "src/shieldstore/partitioned.h"

namespace shield::net {
namespace {

sgx::EnclaveConfig FastEnclave(const char* name = "net-test-enclave") {
  sgx::EnclaveConfig c;
  c.name = name;
  c.epc.epc_bytes = 16u << 20;
  c.epc.crossing_cycles = 0;
  c.epc.kernel_fault_cycles = 0;
  c.epc.resident_access_cycles = 0;
  c.epc.page_crypto = false;
  c.heap_reserve_bytes = 128u << 20;
  return c;
}

shieldstore::Options StoreOptions() {
  shieldstore::Options o;
  o.num_buckets = 1024;
  o.heap_chunk_bytes = 1u << 20;
  return o;
}

// ---------------------------------------------------------------- codecs

TEST(ProtocolTest, RequestRoundTrip) {
  Request request;
  request.op = OpCode::kSet;
  request.key = "some-key";
  request.value = std::string("\x00\x01\x02with binary\xff", 16);
  request.delta = -77;
  Result<Request> back = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->op, OpCode::kSet);
  EXPECT_EQ(back->key, request.key);
  EXPECT_EQ(back->value, request.value);
  EXPECT_EQ(back->delta, -77);
}

TEST(ProtocolTest, ResponseRoundTrip) {
  Response response;
  response.status = Code::kNotFound;
  response.value = "details";
  Result<Response> back = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->status, Code::kNotFound);
  EXPECT_EQ(back->value, "details");
}

TEST(ProtocolTest, MalformedInputsRejected) {
  EXPECT_FALSE(DecodeRequest({}).ok());
  Bytes junk = {0x09, 1, 2, 3};
  EXPECT_FALSE(DecodeRequest(junk).ok());
  Bytes valid = EncodeRequest({OpCode::kGet, "k", "", 0});
  valid.pop_back();
  EXPECT_FALSE(DecodeRequest(valid).ok());
}

TEST(ProtocolTest, OversizedFieldsRejectedTyped) {
  Request big_key;
  big_key.op = OpCode::kSet;
  big_key.key.assign(kMaxKeyBytes + 1, 'k');
  EXPECT_EQ(DecodeRequest(EncodeRequest(big_key)).status().code(), Code::kProtocolError);

  Request big_value;
  big_value.op = OpCode::kSet;
  big_value.key = "k";
  big_value.value.assign(kMaxValueBytes + 1, 'v');
  EXPECT_EQ(DecodeRequest(EncodeRequest(big_value)).status().code(), Code::kProtocolError);

  // A forged length field claiming 1 GiB with nothing behind it must fail
  // typed — and cannot trick the decoder into a 1 GiB allocation, since
  // TakeString bounds-checks against the bytes actually present.
  Bytes forged = EncodeRequest({OpCode::kGet, "k", "", 0});
  StoreLe32(forged.data() + 9, 1u << 30);
  EXPECT_EQ(DecodeRequest(forged).status().code(), Code::kProtocolError);
}

TEST(ProtocolTest, DecodeRequestFuzzNeverCrashes) {
  // Deterministic mutation fuzz: every mutant either round-trips or fails
  // with the typed protocol error — no crash, no other code, no throw.
  Xoshiro256 rng(0x00f0221dULL);
  const Bytes seed = EncodeRequest({OpCode::kSet, "fuzz-key", std::string(100, 'v'), 123});
  for (int i = 0; i < 5000; ++i) {
    Bytes mutated = seed;
    const size_t flips = 1 + rng.NextBelow(8);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    if (rng.NextBelow(4) == 0) {
      mutated.resize(rng.NextBelow(mutated.size() + 1));  // truncate / keep
    }
    Result<Request> decoded = DecodeRequest(mutated);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), Code::kProtocolError) << "mutant " << i;
    }
  }
}

TEST(ProtocolTest, DecodeResponseFuzzNeverCrashes) {
  // Out-of-range status byte: must not be cast into the trusted enum.
  Bytes bad_status = EncodeResponse({Code::kOk, "v"});
  bad_status[0] = 200;
  EXPECT_EQ(DecodeResponse(bad_status).status().code(), Code::kProtocolError);

  Xoshiro256 rng(0xdec0deULL);
  for (int i = 0; i < 2000; ++i) {
    Bytes blob(rng.NextBelow(64));
    for (auto& b : blob) {
      b = static_cast<uint8_t>(rng.Next());
    }
    Result<Response> decoded = DecodeResponse(blob);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), Code::kProtocolError) << "blob " << i;
    }
  }
}

// --------------------------------------------------- replication codec

TEST(ReplicationCodecTest, FrameRoundTrip) {
  ReplicateFrame frame;
  frame.type = ReplicateType::kEntries;
  frame.epoch = 0xfeedfacecafebeefULL;
  frame.shard = 3;
  frame.first_seq = 42;
  frame.entries.push_back({false, "alpha", std::string(300, 'v')});
  frame.entries.push_back({true, "beta", ""});
  const Bytes wire = EncodeReplicateFrame(frame);
  Result<ReplicateFrame> decoded = DecodeReplicateFrame(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, ReplicateType::kEntries);
  EXPECT_EQ(decoded->epoch, frame.epoch);
  EXPECT_EQ(decoded->shard, 3u);
  EXPECT_EQ(decoded->first_seq, 42u);
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_FALSE(decoded->entries[0].is_delete);
  EXPECT_EQ(decoded->entries[0].key, "alpha");
  EXPECT_EQ(decoded->entries[0].value, std::string(300, 'v'));
  EXPECT_TRUE(decoded->entries[1].is_delete);
  EXPECT_EQ(decoded->entries[1].key, "beta");

  ReplicateFrame hello;
  hello.type = ReplicateType::kHello;
  hello.epoch = 7;
  hello.num_shards = 16;
  Result<ReplicateFrame> hello2 = DecodeReplicateFrame(EncodeReplicateFrame(hello));
  ASSERT_TRUE(hello2.ok());
  EXPECT_EQ(hello2->type, ReplicateType::kHello);
  EXPECT_EQ(hello2->num_shards, 16u);
}

TEST(ReplicationCodecTest, DecodeRejectsMalformedFrames) {
  ReplicateFrame seed;
  seed.type = ReplicateType::kEntries;
  seed.epoch = 1;
  seed.first_seq = 1;
  seed.entries.push_back({false, "key", "value"});
  const Bytes good = EncodeReplicateFrame(seed);
  ASSERT_TRUE(DecodeReplicateFrame(good).ok());
  auto rejects = [](Bytes payload, const char* what) {
    Result<ReplicateFrame> r = DecodeReplicateFrame(payload);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), Code::kProtocolError) << what;
  };
  rejects({}, "empty");
  // Truncated entry: every prefix of the good frame must fail typed.
  for (size_t cut = 1; cut < good.size(); ++cut) {
    Bytes truncated(good.begin(), good.begin() + static_cast<ptrdiff_t>(cut));
    Result<ReplicateFrame> r = DecodeReplicateFrame(truncated);
    ASSERT_FALSE(r.ok()) << "prefix " << cut << " decoded";
    EXPECT_EQ(r.status().code(), Code::kProtocolError);
  }
  // Oversized frame: rejected on the total size BEFORE any parsing.
  rejects(Bytes(kMaxReplicateBytes + 1, 0), "oversized frame");
  {
    Bytes bad = good;
    bad[0] = 0;
    rejects(bad, "type zero");
    bad[0] = 7;
    rejects(bad, "type past kQuery");
  }
  {
    // Entry count forged past the cap (count lives at offset 1+8+4+8+4).
    Bytes bad = good;
    StoreLe32(bad.data() + 25, kMaxReplicateEntries + 1);
    rejects(bad, "entry count over cap");
    StoreLe32(bad.data() + 25, 2);  // count says 2, bytes hold 1
    rejects(bad, "count past payload");
  }
  {
    Bytes bad = good;
    StoreLe32(bad.data() + 9, kMaxReplicateShards);  // shard field
    rejects(bad, "shard out of range");
  }
  {
    Bytes bad = good;
    bad[29] = 2;  // entry op byte: neither set nor delete
    rejects(bad, "bad entry op");
  }
  {
    // Entries riding on a control frame must be refused, not applied.
    Bytes bad = good;
    bad[0] = static_cast<uint8_t>(ReplicateType::kPromote);
    rejects(bad, "entries on control frame");
  }
  {
    Bytes bad = good;
    bad.push_back(0);
    rejects(bad, "trailing bytes");
  }
}

TEST(ReplicationCodecTest, DecodeFrameFuzzNeverCrashes) {
  Xoshiro256 rng(0x5e91c0deULL);
  ReplicateFrame seed;
  seed.type = ReplicateType::kEntries;
  seed.epoch = 99;
  seed.shard = 1;
  seed.first_seq = 1000;
  for (int i = 0; i < 4; ++i) {
    seed.entries.push_back({i % 2 == 1, "key" + std::to_string(i), std::string(40, 'x')});
  }
  const Bytes base = EncodeReplicateFrame(seed);
  for (int i = 0; i < 5000; ++i) {
    Bytes mutated = base;
    const size_t flips = 1 + rng.NextBelow(8);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    if (rng.NextBelow(4) == 0) {
      mutated.resize(rng.NextBelow(mutated.size() + 1));
    }
    Result<ReplicateFrame> decoded = DecodeReplicateFrame(mutated);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), Code::kProtocolError) << "mutant " << i;
    }
  }
}

TEST(ReplicationCodecTest, StatusRoundTripAndMalformedWatermarks) {
  ReplicaStatusFrame status;
  status.role = ReplicaRole::kPrimary;
  status.epoch = 77;
  status.watermarks = {0, 12, 0xffffffffffffffffULL};
  const Bytes wire = EncodeReplicaStatus(status);
  Result<ReplicaStatusFrame> decoded = DecodeReplicaStatus(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->role, ReplicaRole::kPrimary);
  EXPECT_EQ(decoded->epoch, 77u);
  EXPECT_EQ(decoded->watermarks, status.watermarks);

  auto rejects = [](Bytes payload, const char* what) {
    Result<ReplicaStatusFrame> r = DecodeReplicaStatus(payload);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), Code::kProtocolError) << what;
  };
  rejects({}, "empty");
  {
    Bytes bad = wire;
    bad[0] = 3;
    rejects(bad, "unknown role");
  }
  {
    // Malformed watermark vector: count disagrees with the bytes present.
    Bytes bad = wire;
    StoreLe32(bad.data() + 9, 2);
    rejects(bad, "watermark count below payload");
    StoreLe32(bad.data() + 9, 4);
    rejects(bad, "watermark count past payload");
    StoreLe32(bad.data() + 9, kMaxReplicateShards + 1);
    rejects(bad, "watermark count over cap");
  }
  {
    Bytes bad = wire;
    bad.pop_back();
    rejects(bad, "truncated watermark");
  }
}

// --------------------------------------------------------- session crypto

TEST(SessionCryptoTest, SealOpenAcrossDirections) {
  Bytes keys(SessionCrypto::kKeyMaterialSize);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<uint8_t>(i * 3);
  }
  SessionCrypto client(keys, /*is_client=*/true, /*encrypt=*/true);
  SessionCrypto server(keys, /*is_client=*/false, /*encrypt=*/true);
  for (int i = 0; i < 10; ++i) {
    const std::string msg = "message-" + std::to_string(i);
    Result<Bytes> opened = server.Open(client.Seal(AsBytes(msg)));
    ASSERT_TRUE(opened.ok()) << i;
    EXPECT_EQ(AsString(*opened), msg);
    const std::string reply = "reply-" + std::to_string(i);
    Result<Bytes> opened2 = client.Open(server.Seal(AsBytes(reply)));
    ASSERT_TRUE(opened2.ok());
    EXPECT_EQ(AsString(*opened2), reply);
  }
}

TEST(SessionCryptoTest, TamperAndReplayRejected) {
  Bytes keys(SessionCrypto::kKeyMaterialSize, 0x5c);
  SessionCrypto client(keys, true, true);
  SessionCrypto server(keys, false, true);
  Bytes record = client.Seal(AsBytes("payload"));
  Bytes tampered = record;
  tampered[0] ^= 1;
  EXPECT_FALSE(server.Open(tampered).ok());
  // Sequence did not advance on failure; the authentic record still opens.
  ASSERT_TRUE(server.Open(record).ok());
  // Replaying it must fail (receive sequence moved on).
  EXPECT_FALSE(server.Open(record).ok());
}

TEST(SessionCryptoTest, ReflectionRejected) {
  Bytes keys(SessionCrypto::kKeyMaterialSize, 0x11);
  SessionCrypto client(keys, true, true);
  Bytes record = client.Seal(AsBytes("to-server"));
  // Reflecting a client record back at the client must fail (direction keys
  // and direction byte differ).
  EXPECT_FALSE(client.Open(record).ok());
}

// The documented record construction, from the one-shot primitives over the
// documented key-material layout [c2s enc | c2s mac | s2c enc | s2c mac]:
// AES-CTR under the counter block LE64(seq) || direction, then
// CMAC(mac key, LE64(seq) || direction || ciphertext) appended.
Bytes ReferenceRecord(ByteSpan key_material, uint8_t direction, uint64_t seq,
                      ByteSpan plaintext) {
  const ByteSpan keys = key_material.subspan(direction == 0x01 ? 0 : 32, 32);
  uint8_t counter[16] = {};
  StoreLe64(counter, seq);
  counter[8] = direction;
  Bytes record(plaintext.size());
  crypto::AesCtrTransform(keys.subspan(0, 16), counter, 32, plaintext, record);
  Bytes mac_input(9);
  StoreLe64(mac_input.data(), seq);
  mac_input[8] = direction;
  mac_input.insert(mac_input.end(), record.begin(), record.end());
  const crypto::Mac tag = crypto::CmacSign(keys.subspan(16, 16), mac_input);
  record.insert(record.end(), tag.begin(), tag.end());
  return record;
}

TEST(SessionCryptoTest, RecordsMatchTheOneShotConstruction) {
  Bytes keys(SessionCrypto::kKeyMaterialSize);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  for (size_t size : {0, 1, 15, 16, 17, 48, 160, 4096}) {
    SessionCrypto client(keys, /*is_client=*/true, /*encrypt=*/true);
    SessionCrypto server(keys, /*is_client=*/false, /*encrypt=*/true);
    for (uint64_t seq = 0; seq <= 20; ++seq) {
      Bytes pt(size);
      for (size_t i = 0; i < size; ++i) {
        pt[i] = static_cast<uint8_t>(i * 31 + seq);
      }
      const Bytes c2s = ReferenceRecord(keys, 0x01, seq, pt);
      ASSERT_EQ(client.Seal(pt), c2s) << "c2s size " << size << " seq " << seq;
      Result<Bytes> at_server = server.Open(c2s);
      ASSERT_TRUE(at_server.ok()) << "size " << size << " seq " << seq;
      EXPECT_EQ(*at_server, pt);

      const Bytes s2c = ReferenceRecord(keys, 0x02, seq, pt);
      ASSERT_EQ(server.Seal(pt), s2c) << "s2c size " << size << " seq " << seq;
      Result<Bytes> at_client = client.Open(s2c);
      ASSERT_TRUE(at_client.ok()) << "size " << size << " seq " << seq;
      EXPECT_EQ(*at_client, pt);
    }
  }

  // Pinned bytes, so the reference cannot drift along with the code: each
  // side's first record of "get key-0001".
  const char* kClientRecord = "6eb454f7fcfbf3ae7f5e5b7eb8c732780b9389b0447732147f3cea33";
  const char* kServerRecord = "4fd913296b592a7b67eb37d80d7aaa362cb21efdf6d4f32c6f8da92f";
  SessionCrypto client(keys, /*is_client=*/true, /*encrypt=*/true);
  SessionCrypto server(keys, /*is_client=*/false, /*encrypt=*/true);
  EXPECT_EQ(HexEncode(client.Seal(AsBytes("get key-0001"))), kClientRecord);
  EXPECT_EQ(HexEncode(server.Seal(AsBytes("get key-0001"))), kServerRecord);
  EXPECT_EQ(HexEncode(ReferenceRecord(keys, 0x01, 0, AsBytes("get key-0001"))), kClientRecord);
  EXPECT_EQ(HexEncode(ReferenceRecord(keys, 0x02, 0, AsBytes("get key-0001"))), kServerRecord);
}

TEST(SessionCryptoTest, PlaintextModePassthrough) {
  Bytes keys(SessionCrypto::kKeyMaterialSize, 0x00);
  SessionCrypto a(keys, true, /*encrypt=*/false);
  const Bytes record = a.Seal(AsBytes("clear"));
  EXPECT_EQ(AsString(record), "clear");
}

// ------------------------------------------------------------ end to end

class NetEndToEndTest : public ::testing::Test {
 protected:
  NetEndToEndTest()
      : enclave_(FastEnclave()),
        authority_(AsBytes("ias-root")),
        store_(enclave_, StoreOptions(), 2) {}

  void StartServer(ServerOptions options) {
    server_ = std::make_unique<Server>(enclave_, store_, authority_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  sgx::Enclave enclave_;
  sgx::AttestationAuthority authority_;
  shieldstore::PartitionedStore store_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetEndToEndTest, FullOperationMixOverEcalls) {
  StartServer({});
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  EXPECT_TRUE(client.Set("alpha", "1").ok());
  EXPECT_EQ(client.Get("alpha").value(), "1");
  EXPECT_EQ(client.Get("missing").status().code(), Code::kNotFound);
  EXPECT_TRUE(client.Append("alpha", "23").ok());
  EXPECT_EQ(client.Get("alpha").value(), "123");
  EXPECT_EQ(client.Increment("alpha", 10).value(), 133);
  EXPECT_TRUE(client.Delete("alpha").ok());
  EXPECT_EQ(client.Get("alpha").status().code(), Code::kNotFound);
  EXPECT_GE(server_->requests_served(), 7u);
}

TEST_F(NetEndToEndTest, HotCallsMode) {
  ServerOptions options;
  options.use_hotcalls = true;
  options.enclave_workers = 2;
  StartServer(options);
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client.Set("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(client.Get("key" + std::to_string(i)).value(), "v" + std::to_string(i));
  }
}

TEST_F(NetEndToEndTest, MultipleConcurrentClients) {
  StartServer({});
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, t, &failures] {
      Client client(authority_, enclave_.measurement());
      if (!client.Connect(server_->port()).ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 100; ++i) {
        const std::string key = "c" + std::to_string(t) + "k" + std::to_string(i);
        if (!client.Set(key, std::to_string(i)).ok()) {
          ++failures;
        }
        auto got = client.Get(key);
        if (!got.ok() || got.value() != std::to_string(i)) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store_.Size(), 400u);
}

TEST_F(NetEndToEndTest, PipelinedRequests) {
  StartServer({});
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  constexpr int kDepth = 32;
  for (int i = 0; i < kDepth; ++i) {
    Request request;
    request.op = OpCode::kSet;
    request.key = "p" + std::to_string(i);
    request.value = std::to_string(i);
    ASSERT_TRUE(client.SendRequest(request).ok());
  }
  for (int i = 0; i < kDepth; ++i) {
    Result<Response> response = client.ReceiveResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, Code::kOk);
  }
  EXPECT_EQ(store_.Size(), kDepth);
}


TEST_F(NetEndToEndTest, StopWithLiveClientsDoesNotHang) {
  StartServer({});
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  ASSERT_TRUE(client.Set("k", "v").ok());
  // Stop while the connection is still open; the server must unblock its
  // connection thread rather than wait for the client to hang up.
  server_->Stop();
  SUCCEED();
}

TEST_F(NetEndToEndTest, WrongMeasurementRejectedByClient) {
  StartServer({});
  sgx::Measurement wrong = enclave_.measurement();
  wrong[0] ^= 1;
  Client client(authority_, wrong);
  const Status s = client.Connect(server_->port());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kProtocolError);
}

TEST_F(NetEndToEndTest, WrongAuthorityRejectedByClient) {
  StartServer({});
  sgx::AttestationAuthority mallory(AsBytes("mallory-root"));
  Client client(mallory, enclave_.measurement());
  EXPECT_FALSE(client.Connect(server_->port()).ok());
}

TEST_F(NetEndToEndTest, UnencryptedModeWorksWhenBothSidesAgree) {
  ServerOptions options;
  options.encrypt = false;
  StartServer(options);
  Client client(authority_, enclave_.measurement(), /*encrypt=*/false);
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  EXPECT_TRUE(client.Set("k", "v").ok());
  EXPECT_EQ(client.Get("k").value(), "v");
}

// ------------------------------------------------------------- robustness

TEST_F(NetEndToEndTest, DeadServerFailsFastWithBoundedRetry) {
  // No server. Connect must exhaust its bounded retries and return a typed
  // kIoError promptly instead of hanging or throwing.
  ClientOptions options;
  options.connect_attempts = 2;
  options.connect_backoff_ms = 10;
  options.connect_timeout_ms = 500;
  Client client(authority_, enclave_.measurement(), true, options);
  const auto start = std::chrono::steady_clock::now();
  const Status s = client.Connect(1);  // reserved port: connection refused
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kIoError);
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST_F(NetEndToEndTest, HungServerYieldsRecvTimeout) {
  // A listener that accepts TCP connections (kernel backlog) but never
  // speaks the protocol: the handshake read must hit SO_RCVTIMEO.
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t addr_len = sizeof(addr);
  getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  ASSERT_EQ(listen(listener, 4), 0);

  ClientOptions options;
  options.connect_attempts = 1;
  options.recv_timeout_ms = 200;
  Client client(authority_, enclave_.measurement(), true, options);
  const Status s = client.Connect(ntohs(addr.sin_port));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kIoError);
  close(listener);
}

TEST_F(NetEndToEndTest, MalformedRecordGetsProtocolErrorWithoutCollateral) {
  StartServer({});
  Client good(authority_, enclave_.measurement());
  ASSERT_TRUE(good.Connect(server_->port()).ok());
  ASSERT_TRUE(good.Set("k", "v").ok());

  // Attacker session: valid handshake, then a corrupted (unauthentic)
  // record. The server must answer with a sealed kProtocolError and close
  // only this connection.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  Result<Bytes> key_material = ClientHandshake(fd, authority_, enclave_.measurement());
  ASSERT_TRUE(key_material.ok()) << key_material.status().ToString();
  SessionCrypto session(*key_material, /*is_client=*/true, /*encrypt=*/true);
  Bytes record = session.Seal(EncodeRequest({OpCode::kGet, "k", "", 0}));
  record[record.size() / 2] ^= 0x01;
  ASSERT_TRUE(SendFrame(fd, record).ok());
  Result<Bytes> reply = RecvFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  Result<Bytes> plaintext = session.Open(*reply);
  ASSERT_TRUE(plaintext.ok()) << plaintext.status().ToString();
  Result<Response> response = DecodeResponse(*plaintext);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, Code::kProtocolError);
  // ... then the connection is dropped.
  EXPECT_FALSE(RecvFrame(fd).ok());
  close(fd);

  // The established session and fresh connections are unaffected.
  EXPECT_EQ(good.Get("k").value(), "v");
  Client fresh(authority_, enclave_.measurement());
  ASSERT_TRUE(fresh.Connect(server_->port()).ok());
  EXPECT_EQ(fresh.Get("k").value(), "v");
}

namespace {

// Raw TCP dial for attack connections (no handshake, no crypto).
int DialLoopback(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = 2;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

}  // namespace

TEST_F(NetEndToEndTest, FrameFuzzBatteryLeavesServerServing) {
  StartServer({});
  Client anchor(authority_, enclave_.measurement());
  ASSERT_TRUE(anchor.Connect(server_->port()).ok());
  ASSERT_TRUE(anchor.Set("anchor", "steady").ok());

  // After every attack the pre-existing session AND a fresh connection must
  // still work: one hostile peer never costs another client anything.
  auto still_serving = [&](const char* attack) {
    Result<std::string> got = anchor.Get("anchor");
    ASSERT_TRUE(got.ok()) << attack << " broke the anchor session: "
                          << got.status().ToString();
    EXPECT_EQ(got.value(), "steady") << attack;
    Client fresh(authority_, enclave_.measurement());
    ASSERT_TRUE(fresh.Connect(server_->port()).ok()) << attack;
    EXPECT_EQ(fresh.Get("anchor").value(), "steady") << attack;
  };

  // Attack 1: garbage handshake frames (random bytes where the attestation
  // hello belongs).
  {
    Xoshiro256 rng(0x9a4ba9e);
    for (int round = 0; round < 4; ++round) {
      const int fd = DialLoopback(server_->port());
      ASSERT_GE(fd, 0);
      Bytes garbage(1 + rng.NextBelow(256));
      for (auto& b : garbage) {
        b = static_cast<uint8_t>(rng.Next());
      }
      (void)SendFrame(fd, garbage);
      (void)RecvFrame(fd);  // whatever the server does, it must not hang
      close(fd);
    }
  }
  still_serving("garbage handshake");

  // Attack 2: truncated frame — promise 100 bytes, deliver 9, hang up.
  {
    const int fd = DialLoopback(server_->port());
    ASSERT_GE(fd, 0);
    uint8_t len[4];
    StoreLe32(len, 100);
    send(fd, len, 4, MSG_NOSIGNAL);
    send(fd, "truncated", 9, MSG_NOSIGNAL);
    close(fd);
  }
  still_serving("truncated frame");

  // Attack 3: oversized length prefix (a 4 GiB claim). The server must
  // reject it without attempting the allocation and drop the connection.
  {
    const int fd = DialLoopback(server_->port());
    ASSERT_GE(fd, 0);
    const uint8_t len[4] = {0xff, 0xff, 0xff, 0xff};
    send(fd, len, 4, MSG_NOSIGNAL);
    uint8_t byte;
    (void)!recv(fd, &byte, 1, 0);  // EOF (or timeout) — never a response
    close(fd);
  }
  still_serving("oversized length prefix");

  // Attack 4: valid handshake, then sealed records with deterministic random
  // bit flips. AEAD makes every flip unauthentic: sealed kProtocolError,
  // connection dropped, nothing else.
  {
    Xoshiro256 rng(0xb17f11b);
    for (int round = 0; round < 8; ++round) {
      const int fd = DialLoopback(server_->port());
      ASSERT_GE(fd, 0);
      Result<Bytes> key_material = ClientHandshake(fd, authority_, enclave_.measurement());
      ASSERT_TRUE(key_material.ok()) << key_material.status().ToString();
      SessionCrypto session(*key_material, /*is_client=*/true, /*encrypt=*/true);
      Bytes record = session.Seal(EncodeRequest({OpCode::kSet, "fuzz", "x", 0}));
      record[rng.NextBelow(record.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
      ASSERT_TRUE(SendFrame(fd, record).ok());
      Result<Bytes> reply = RecvFrame(fd);
      if (reply.ok()) {
        Result<Bytes> plaintext = session.Open(*reply);
        ASSERT_TRUE(plaintext.ok()) << plaintext.status().ToString();
        Result<Response> response = DecodeResponse(*plaintext);
        ASSERT_TRUE(response.ok());
        EXPECT_EQ(response->status, Code::kProtocolError);
      }
      close(fd);
    }
  }
  still_serving("bit-flipped sealed records");

  // The store never absorbed a fuzzed write.
  EXPECT_EQ(anchor.Get("fuzz").status().code(), Code::kNotFound);
}

// Delays writes so a request is reliably in flight when Stop() arrives.
class SlowStore : public kv::KeyValueStore {
 public:
  explicit SlowStore(kv::KeyValueStore& inner) : inner_(inner) {}
  Status Set(std::string_view key, std::string_view value) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return inner_.Set(key, value);
  }
  Result<std::string> Get(std::string_view key) override { return inner_.Get(key); }
  Status Delete(std::string_view key) override { return inner_.Delete(key); }
  size_t Size() const override { return inner_.Size(); }
  std::string Name() const override { return inner_.Name(); }

 private:
  kv::KeyValueStore& inner_;
};

TEST_F(NetEndToEndTest, StopDrainsInFlightRequests) {
  SlowStore slow(store_);
  Server server(enclave_, slow, authority_, {});
  ASSERT_TRUE(server.Start().ok());
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server.port()).ok());

  Request request;
  request.op = OpCode::kSet;
  request.key = "drained";
  request.value = "yes";
  ASSERT_TRUE(client.SendRequest(request).ok());
  // Let the server pick the request up, then stop mid-flight: the response
  // must still arrive (Stop shuts down the read side only).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread stopper([&server] { server.Stop(); });
  Result<Response> response = client.ReceiveResponse();
  stopper.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, Code::kOk);
  EXPECT_EQ(store_.Get("drained").value(), "yes");
}

// ------------------------------------------------------- held (durable) acks

// Executes through `inner` but leaves every run pending on one shard of its
// own watch until the test publishes (or latches) it: each SubmitBatch call
// requires the next sequence. This drives the reactor's hold/release path
// without a WAL's timing.
class HeldStore : public kv::KeyValueStore {
 public:
  explicit HeldStore(kv::KeyValueStore& inner) : inner_(inner) { watch_.Reset(1, 0); }
  Status Set(std::string_view key, std::string_view value) override {
    return inner_.Set(key, value);
  }
  Result<std::string> Get(std::string_view key) override { return inner_.Get(key); }
  Status Delete(std::string_view key) override { return inner_.Delete(key); }
  std::vector<kv::BatchOpResult> SubmitBatch(const std::vector<kv::BatchOp>& ops,
                                             kv::DurabilityRequirement& requirement) override {
    std::vector<kv::BatchOpResult> results = inner_.ExecuteBatch(ops);
    requirement.shards.clear();
    requirement.Require(0, submitted_.fetch_add(1) + 1);
    return results;
  }
  kv::DurabilityWatch* durability_watch() override { return &watch_; }
  size_t Size() const override { return inner_.Size(); }
  std::string Name() const override { return inner_.Name(); }

  // Blocks until `n` runs have executed.
  void AwaitSubmitted(uint64_t n) const {
    while (submitted_.load() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  kv::DurabilityWatch& watch() { return watch_; }

 private:
  kv::KeyValueStore& inner_;
  std::atomic<uint64_t> submitted_{0};
  kv::DurabilityWatch watch_;
};

Request SetRequest(std::string key, std::string value) {
  Request r;
  r.op = OpCode::kSet;
  r.key = std::move(key);
  r.value = std::move(value);
  return r;
}

TEST_F(NetEndToEndTest, HeldResponsesReleaseInOrderAsTheyTurnDurable) {
  HeldStore held(store_);
  Server server(enclave_, held, authority_, {});
  ASSERT_TRUE(server.Start().ok());
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server.port()).ok());
  for (uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(client.SendRequest(SetRequest("k" + std::to_string(i), "v")).ok());
    held.AwaitSubmitted(i);  // one run per request
  }
  // The watermark reaching 2 releases runs 1 and 2, in order (the session's
  // sequence numbers would reject anything else); run 3 stays held.
  held.watch().Publish(0, 2);
  Result<Response> first = client.ReceiveResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status, Code::kOk);
  Result<Response> second = client.ReceiveResponse();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  held.watch().Publish(0, 3);
  Result<Response> third = client.ReceiveResponse();
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third->status, Code::kOk);
  server.Stop();
}

// A store that latches while responses are held: what was already released
// still reaches the client, then the session closes — an OK for an op that
// never became durable is never sent.
TEST_F(NetEndToEndTest, LatchWhileHeldClosesSessionAfterReleasedPrefix) {
  HeldStore held(store_);
  Server server(enclave_, held, authority_, {});
  ASSERT_TRUE(server.Start().ok());
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.SendRequest(SetRequest("durable", "1")).ok());
  held.AwaitSubmitted(1);
  ASSERT_TRUE(client.SendRequest(SetRequest("lost", "2")).ok());
  held.AwaitSubmitted(2);
  held.watch().Publish(0, 1);
  Result<Response> first = client.ReceiveResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status, Code::kOk);
  held.watch().Latch(0, Status(Code::kIoError, "log fsync failed"));
  EXPECT_FALSE(client.ReceiveResponse().ok()) << "a non-durable op was answered";
  server.Stop();
}

// Stop releases held responses that turn durable within the drain budget.
TEST_F(NetEndToEndTest, StopReleasesHeldResponsesThatTurnDurable) {
  HeldStore held(store_);
  Server server(enclave_, held, authority_, {});
  ASSERT_TRUE(server.Start().ok());
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.SendRequest(SetRequest("drained", "yes")).ok());
  held.AwaitSubmitted(1);
  std::thread stopper([&server] { server.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  held.watch().Publish(0, 1);
  Result<Response> response = client.ReceiveResponse();
  stopper.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, Code::kOk);
}

// ... and drops, unsent, the ones that do not.
TEST_F(NetEndToEndTest, StopDropsHeldResponsesThatNeverTurnDurable) {
  HeldStore held(store_);
  Server server(enclave_, held, authority_, {});
  ASSERT_TRUE(server.Start().ok());
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.SendRequest(SetRequest("never", "durable")).ok());
  held.AwaitSubmitted(1);
  server.Stop();  // waits out the drain budget, then closes the session
  EXPECT_FALSE(client.ReceiveResponse().ok()) << "a non-durable op was answered";
}

// ------------------------------------------------------------- kStats verb

// Everything a stats test needs with a PRIVATE registry, so counters start
// at zero and nothing from other tests (which share obs::Registry::Global())
// bleeds in.
class StatsStack {
 public:
  explicit StatsStack(sgx::Enclave& enclave, const sgx::AttestationAuthority& authority,
                      ServerOptions options = {}) {
    shieldstore::Options store_options;
    store_options.num_buckets = 1024;
    store_options.heap_chunk_bytes = 1u << 20;
    store_options.metrics = &registry;
    store = std::make_unique<shieldstore::PartitionedStore>(enclave, store_options, 2);
    options.metrics = &registry;
    options.stats_augment = [this](obs::MetricsSnapshot& snap) { store->BridgeStats(snap); };
    server = std::make_unique<Server>(enclave, *store, authority, options);
  }

  obs::Registry registry;
  std::unique_ptr<shieldstore::PartitionedStore> store;
  std::unique_ptr<Server> server;
};

TEST_F(NetEndToEndTest, StatsSnapshotOverTheWire) {
  StatsStack stack(enclave_, authority_);
  ASSERT_TRUE(stack.server->Start().ok());
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(stack.server->port()).ok());

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Set("k" + std::to_string(i), "v").ok());
  }
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(client.Get("k" + std::to_string(i)).ok());
  }
  EXPECT_EQ(client.Get("absent").status().code(), Code::kNotFound);
  ASSERT_TRUE(client.MSet({{"b1", "x"}, {"b2", "y"}}).ok());

  Result<obs::MetricsSnapshot> snap = client.Stats();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->version, obs::kStatsVersion);
  EXPECT_GT(snap->unix_nanos, 0u);

  // Per-verb op counters, exact (private registry).
  EXPECT_EQ(snap->CounterValue("net.ops.set"), 10u);
  EXPECT_EQ(snap->CounterValue("net.ops.get"), 8u);
  EXPECT_EQ(snap->CounterValue("net.ops.batch"), 1u);
  EXPECT_EQ(snap->CounterValue("net.ops.stats"), 1u);
  EXPECT_EQ(snap->CounterValue("net.batch_ops.set"), 2u);

  // End-to-end latency histograms with one sample per op.
  const obs::HistogramData* get_lat = snap->Histogram("net.latency.get");
  ASSERT_NE(get_lat, nullptr);
  EXPECT_EQ(get_lat->count, 8u);
  EXPECT_GT(get_lat->Quantile(0.5), 0.0);
  EXPECT_GE(get_lat->Quantile(0.99), get_lat->Quantile(0.5));

  // Stage tracing fired inside the enclave path.
  for (const char* stage : {"stage.session_open", "stage.decode", "stage.enclave_submit",
                            "stage.search_decrypt", "stage.mac_verify", "stage.session_seal"}) {
    const obs::HistogramData* h = snap->Histogram(stage);
    ASSERT_NE(h, nullptr) << stage;
    EXPECT_GT(h->count, 0u) << stage;
  }

  // Store-level counters bridged from the engine: every Get is a hit or a
  // miss, never neither.
  EXPECT_EQ(snap->CounterValue("store.gets"),
            snap->CounterValue("store.hits") + snap->CounterValue("store.misses"));
  EXPECT_GE(snap->CounterValue("store.misses"), 1u);
  EXPECT_GT(snap->CounterValue("store.mac_verifications"), 0u);

  // SGX simulator counters cross the bridge too.
  EXPECT_GT(snap->CounterValue("sgx.ecalls"), 0u);
  EXPECT_GT(snap->CounterValue("sgx.epc.touches"), 0u);
  EXPECT_GT(snap->GaugeValue("sgx.epc.resident_pages"), 0);

  // Partition health from the stats_augment hook.
  EXPECT_EQ(snap->GaugeValue("store.partitions"), 2);
  EXPECT_EQ(snap->GaugeValue("store.quarantined"), 0);

  // Rates: a second snapshot after more traffic shows exactly the new work.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Get("k1").ok());
  }
  Result<obs::MetricsSnapshot> snap2 = client.Stats();
  ASSERT_TRUE(snap2.ok());
  const obs::MetricsSnapshot d = obs::Delta(*snap, *snap2);
  EXPECT_EQ(d.CounterValue("net.ops.get"), 5u);
  EXPECT_EQ(d.CounterValue("net.ops.set"), 0u);
  const obs::HistogramData* d_lat = d.Histogram("net.latency.get");
  ASSERT_NE(d_lat, nullptr);
  EXPECT_EQ(d_lat->count, 5u);
}

TEST_F(NetEndToEndTest, StatsWorksOverHotCalls) {
  ServerOptions options;
  options.use_hotcalls = true;
  options.enclave_workers = 2;
  StatsStack stack(enclave_, authority_, options);
  ASSERT_TRUE(stack.server->Start().ok());
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(stack.server->port()).ok());
  ASSERT_TRUE(client.Set("hk", "hv").ok());
  ASSERT_TRUE(client.Get("hk").ok());
  Result<obs::MetricsSnapshot> snap = client.Stats();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->CounterValue("net.ops.set"), 1u);
  EXPECT_EQ(snap->CounterValue("net.ops.get"), 1u);
  EXPECT_GT(snap->CounterValue("sgx.hotcalls"), 0u);
  EXPECT_GT(snap->Histogram("stage.enclave_submit")->count, 0u);
}

TEST_F(NetEndToEndTest, StatsInsideBatchRejectedTyped) {
  StatsStack stack(enclave_, authority_);
  ASSERT_TRUE(stack.server->Start().ok());
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(stack.server->port()).ok());

  // kStats is a singleton-only verb: a batch smuggling one must be rejected
  // whole with the typed protocol error (the client surfaces the server's
  // single-response rejection), and the connection keeps serving.
  std::vector<Request> batch(2);
  batch[0].op = OpCode::kSet;
  batch[0].key = "ok-key";
  batch[0].value = "v";
  batch[1].op = OpCode::kStats;
  Result<std::vector<Response>> result = client.ExecuteBatch(batch);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kProtocolError);
  EXPECT_TRUE(client.Set("still-alive", "yes").ok());
  EXPECT_EQ(client.Get("still-alive").value(), "yes");
  EXPECT_EQ(stack.registry.GetCounter("net.protocol_errors").Value(), 1u);
}

TEST_F(NetEndToEndTest, StatsConsistencyUnderConcurrentLoad) {
  StatsStack stack(enclave_, authority_);
  ASSERT_TRUE(stack.server->Start().ok());

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(authority_, enclave_.measurement());
      if (!client.Connect(stack.server->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kOpsPerClient; ++i) {
        const std::string key = "c" + std::to_string(c) + "-" + std::to_string(i % 10);
        bool ok = true;
        switch (i % 3) {
          case 0:
            ok = client.Set(key, "v" + std::to_string(i)).ok();
            break;
          case 1: {
            const Status s = client.Get(key).status();
            ok = s.ok() || s.code() == Code::kNotFound;
            break;
          }
          case 2:
            ok = client
                     .MSet({{key + "-a", "x"}, {key + "-b", "y"}})
                     .ok();
            break;
        }
        if (!ok) {
          failures.fetch_add(1);
        }
        // Interleave stats reads with the load: snapshots must stay
        // well-formed (decodable, bucket sums consistent) mid-traffic.
        if (i % 20 == 19) {
          Result<obs::MetricsSnapshot> mid = client.Stats();
          if (!mid.ok()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Quiesced: the cross-metric invariants must hold exactly.
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(stack.server->port()).ok());
  Result<obs::MetricsSnapshot> snap = client.Stats();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->CounterValue("store.gets"),
            snap->CounterValue("store.hits") + snap->CounterValue("store.misses"));
  uint64_t batch_verb_sum = 0;
  for (const char* verb : {"get", "set", "delete", "append", "increment", "ping"}) {
    batch_verb_sum += snap->CounterValue(std::string("net.batch_ops.") + verb);
  }
  EXPECT_EQ(batch_verb_sum, snap->CounterValue("net.batch_ops"));
  EXPECT_EQ(snap->CounterValue("net.ops.batch"), uint64_t{kClients} * (kOpsPerClient / 3));
  // Every sub-op was a set: 2 per batch frame.
  EXPECT_EQ(snap->CounterValue("net.batch_ops.set"),
            2 * uint64_t{kClients} * (kOpsPerClient / 3));
}

// ------------------------------------------------- trace frame extension

TEST(ProtocolTest, TraceExtensionRoundTrip) {
  obs::TraceContext ctx;
  ctx.trace_id = 0xfeedfacecafef00dull;
  ctx.span_id = 0x123456789abcull;
  ctx.sampled = true;
  const Bytes inner = EncodeRequest({OpCode::kSet, "k", "v", 0});
  EXPECT_FALSE(HasTraceExtension(inner));

  const Bytes framed = PrependTraceContext(ctx, inner);
  ASSERT_TRUE(HasTraceExtension(framed));
  EXPECT_EQ(framed.size(), inner.size() + kTraceExtBytes);
  Result<std::pair<obs::TraceContext, ByteSpan>> peeled = PeelTraceExtension(framed);
  ASSERT_TRUE(peeled.ok());
  EXPECT_EQ(peeled->first.trace_id, ctx.trace_id);
  EXPECT_EQ(peeled->first.span_id, ctx.span_id);
  EXPECT_TRUE(peeled->first.sampled);
  ASSERT_EQ(peeled->second.size(), inner.size());
  EXPECT_EQ(std::memcmp(peeled->second.data(), inner.data(), inner.size()), 0);
  Result<Request> back = DecodeRequest(peeled->second);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->key, "k");
}

// Mixed-version byte compatibility: with tracing off, nothing the client
// emits carries the marker — every legacy frame must decode exactly as
// before, and no opcode byte may alias the extension marker.
TEST(ProtocolTest, LegacyFramesNeverAliasTheTraceMarker) {
  for (uint8_t op = 0; op <= 10; ++op) {
    Request r;
    r.op = static_cast<OpCode>(op);
    r.key = "k";
    const Bytes wire = EncodeRequest(r);
    EXPECT_FALSE(HasTraceExtension(wire)) << "opcode " << int{op};
  }
  EXPECT_NE(static_cast<uint8_t>(OpCode::kTraceDump), kTraceExtMarker);
}

TEST(ProtocolTest, TraceExtensionPeelFuzzNeverCrashes) {
  obs::TraceContext ctx;
  ctx.trace_id = 7;
  ctx.span_id = 9;
  ctx.sampled = true;
  const Bytes seed =
      PrependTraceContext(ctx, EncodeRequest({OpCode::kSet, "fuzz", "vv", 0}));
  Xoshiro256 rng(0x7e17aceULL);
  for (int i = 0; i < 5000; ++i) {
    Bytes mutated = seed;
    const size_t flips = 1 + rng.NextBelow(6);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    if (rng.NextBelow(4) == 0) {
      mutated.resize(rng.NextBelow(mutated.size() + 1));
    }
    if (!HasTraceExtension(mutated)) {
      continue;  // mutated marker: the payload is read as a legacy frame
    }
    Result<std::pair<obs::TraceContext, ByteSpan>> peeled = PeelTraceExtension(mutated);
    if (!peeled.ok()) {
      EXPECT_EQ(peeled.status().code(), Code::kProtocolError) << "mutant " << i;
    }
  }
  // Truncations inside the extension header are always typed errors.
  for (size_t cut = 1; cut < kTraceExtBytes; ++cut) {
    const ByteSpan truncated(seed.data(), cut);
    if (HasTraceExtension(truncated)) {
      EXPECT_EQ(PeelTraceExtension(truncated).status().code(), Code::kProtocolError)
          << "cut " << cut;
    }
  }
}

TEST_F(NetEndToEndTest, TraceDumpEndToEndUnderFullSampling) {
  StartServer({});
  obs::TraceSetSampleEvery(1);
  ClientOptions copts;
  copts.enable_tracing = true;
  Client client(authority_, enclave_.measurement(), /*encrypt=*/true, copts);
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  EXPECT_TRUE(client.tracing());

  uint64_t trace_id = 0;
  {
    obs::TraceRoot root("test.op");
    ASSERT_TRUE(root.sampled());
    trace_id = root.trace_id();
    ASSERT_TRUE(client.Set("traced-key", "tv").ok());
    ASSERT_EQ(client.Get("traced-key").value(), "tv");
  }
  obs::TraceSetSampleEvery(256);  // restore before any assert can bail

  Result<std::vector<obs::SpanRecord>> dump = client.TraceDump();
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  // Client and server share this process, so the dump holds both sides;
  // the server-side spans must have adopted the SAME trace id from the
  // frame extension.
  bool saw_server_set = false;
  bool saw_server_get = false;
  for (const obs::SpanRecord& s : *dump) {
    if (s.trace_id != trace_id) {
      continue;
    }
    saw_server_set |= s.name == "server.set";
    saw_server_get |= s.name == "server.get";
  }
  EXPECT_TRUE(saw_server_set);
  EXPECT_TRUE(saw_server_get);
}

TEST_F(NetEndToEndTest, TracingOffStaysLegacyCompatible) {
  StartServer({});
  // Legacy client (no tracing requested) against a tracing-capable server.
  Client legacy(authority_, enclave_.measurement());
  ASSERT_TRUE(legacy.Connect(server_->port()).ok());
  EXPECT_FALSE(legacy.tracing());
  ASSERT_TRUE(legacy.Set("legacy", "ok").ok());
  EXPECT_EQ(legacy.Get("legacy").value(), "ok");

  // Tracing-negotiated session with sampling disabled: ops must flow as
  // plain legacy frames (no root in flight -> no extension prepended).
  obs::TraceSetSampleEvery(0);
  ClientOptions copts;
  copts.enable_tracing = true;
  Client traced(authority_, enclave_.measurement(), /*encrypt=*/true, copts);
  ASSERT_TRUE(traced.Connect(server_->port()).ok());
  EXPECT_TRUE(traced.tracing());
  {
    obs::TraceRoot root("never.sampled");
    EXPECT_FALSE(root.sampled());
    ASSERT_TRUE(traced.Set("quiet", "q").ok());
    EXPECT_EQ(traced.Get("quiet").value(), "q");
  }
  obs::TraceSetSampleEvery(256);
  Result<obs::MetricsSnapshot> snap = legacy.Stats();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->CounterValue("net.protocol_errors"), 0u);
}

}  // namespace
}  // namespace shield::net
