// Reactor torture battery: the event-driven connection layer must survive
// adversarial framing (byte-at-a-time delivery, splits at every boundary
// offset, mid-frame disconnects, oversized claims), antisocial peers
// (slow-loris half-open sessions, half-closed pipelines), and shutdown races
// — and its implicit pipelined batching must be observationally identical to
// sequential execution (response bytes, secure metadata, metric accounting).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/shieldstore/partitioned.h"

namespace shield::net {
namespace {

sgx::EnclaveConfig FastEnclave(const char* name = "reactor-test-enclave") {
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

// Raw TCP dial with a receive timeout so a misbehaving server fails the
// test instead of hanging it.
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
  tv.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// Sends exactly `len` bytes or fails.
bool SendAll(int fd, const uint8_t* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// A raw pipelining client: real handshake + session crypto, but frame
// transmission under the test's full control (the Client class is strictly
// request/response and can never pipeline).
class RawSession {
 public:
  bool Connect(uint16_t port, const sgx::AttestationAuthority& authority,
               const sgx::Measurement& measurement, bool encrypt = true) {
    fd_ = DialLoopback(port);
    if (fd_ < 0) {
      return false;
    }
    Result<Bytes> key_material = ClientHandshake(fd_, authority, measurement);
    if (!key_material.ok()) {
      return false;
    }
    crypto_ = std::make_unique<SessionCrypto>(*key_material, /*is_client=*/true, encrypt);
    return true;
  }
  ~RawSession() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }

  int fd() const { return fd_; }
  SessionCrypto& crypto() { return *crypto_; }

  // Length-prefixed wire bytes for one sealed request.
  Bytes WireFrame(const Request& request) {
    const Bytes record = crypto_->Seal(EncodeRequest(request));
    Bytes wire(4 + record.size());
    StoreLe32(wire.data(), static_cast<uint32_t>(record.size()));
    std::copy(record.begin(), record.end(), wire.begin() + 4);
    return wire;
  }

  // Receives one frame, opens and decodes it.
  Result<Response> RecvResponse(Bytes* plaintext_out = nullptr) {
    Result<Bytes> frame = RecvFrame(fd_);
    if (!frame.ok()) {
      return frame.status();
    }
    Result<Bytes> plaintext = crypto_->Open(*frame);
    if (!plaintext.ok()) {
      return plaintext.status();
    }
    if (plaintext_out != nullptr) {
      *plaintext_out = *plaintext;
    }
    return DecodeResponse(*plaintext);
  }

 private:
  int fd_ = -1;
  std::unique_ptr<SessionCrypto> crypto_;
};

class ReactorTortureTest : public ::testing::Test {
 protected:
  ReactorTortureTest()
      : enclave_(FastEnclave()),
        authority_(AsBytes("ias-root")),
        store_(enclave_, StoreOptions(), 2) {}

  void StartServer(ServerOptions options) {
    server_ = std::make_unique<Server>(enclave_, store_, authority_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  // Polls live_sessions() until `pred` holds or ~2s elapse.
  bool WaitForSessions(const std::function<bool(size_t)>& pred) {
    for (int i = 0; i < 400; ++i) {
      if (pred(server_->live_sessions())) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred(server_->live_sessions());
  }

  sgx::Enclave enclave_;
  sgx::AttestationAuthority authority_;
  shieldstore::PartitionedStore store_;
  std::unique_ptr<Server> server_;
};

// ------------------------------------------------- incremental frame decode

TEST_F(ReactorTortureTest, ByteAtATimeFrameDelivery) {
  StartServer({});
  RawSession raw;
  ASSERT_TRUE(raw.Connect(server_->port(), authority_, enclave_.measurement()));

  const Bytes wire = raw.WireFrame({OpCode::kSet, "trickle", "slow-and-steady", 0});
  for (size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(SendAll(raw.fd(), wire.data() + i, 1));
    if (i % 8 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  Result<Response> response = raw.RecvResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, Code::kOk);

  // The write landed and the session still serves whole frames.
  const Bytes check = raw.WireFrame({OpCode::kGet, "trickle", "", 0});
  ASSERT_TRUE(SendAll(raw.fd(), check.data(), check.size()));
  Result<Response> got = raw.RecvResponse();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, "slow-and-steady");
}

TEST_F(ReactorTortureTest, FrameSplitAtEveryBoundaryOffset) {
  // Property: for EVERY split point of the wire bytes — including inside the
  // 4-byte length prefix — delivering [0,k) then [k,end) yields exactly the
  // response the unsplit frame would get.
  StartServer({});
  RawSession raw;
  ASSERT_TRUE(raw.Connect(server_->port(), authority_, enclave_.measurement()));

  // Fixed-width values so every wire frame has the same length and a split
  // index sweeps the same boundary set for all of them.
  auto value_for = [](size_t split) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "s%03u", static_cast<unsigned>(split % 1000));
    return std::string(buf);
  };
  const Bytes probe = raw.WireFrame({OpCode::kSet, "probe", value_for(0), 0});
  const size_t wire_len = probe.size();  // every frame below has this shape
  ASSERT_TRUE(SendAll(raw.fd(), probe.data(), probe.size()));
  ASSERT_TRUE(raw.RecvResponse().ok());

  for (size_t split = 1; split < wire_len; ++split) {
    const Bytes wire = raw.WireFrame({OpCode::kSet, "probe", value_for(split), 0});
    ASSERT_EQ(wire.size(), wire_len);
    ASSERT_TRUE(SendAll(raw.fd(), wire.data(), split));
    // Give the reactor a chance to observe the partial frame.
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    ASSERT_TRUE(SendAll(raw.fd(), wire.data() + split, wire.size() - split));
    Result<Response> response = raw.RecvResponse();
    ASSERT_TRUE(response.ok()) << "split at " << split << ": "
                               << response.status().ToString();
    EXPECT_EQ(response->status, Code::kOk) << "split at " << split;
  }

  // The last write is the one that stuck.
  const Bytes check = raw.WireFrame({OpCode::kGet, "probe", "", 0});
  ASSERT_TRUE(SendAll(raw.fd(), check.data(), check.size()));
  Result<Response> got = raw.RecvResponse();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, value_for(wire_len - 1));
}

// Frames are views into the session's input buffer, which compacts only on
// the next read. A burst well past the 64 KiB compaction threshold, ending
// in the first half of a frame larger than the burst's served prefix (so a
// compaction while a run's views are live would overwrite them), must be
// served in order (several coalesced runs) and the half frame completed by
// the next read.
TEST_F(ReactorTortureTest, PipelinedBurstPastTheCompactionThreshold) {
  StartServer({});
  RawSession raw;
  ASSERT_TRUE(raw.Connect(server_->port(), authority_, enclave_.measurement()));

  constexpr size_t kFrames = 160;
  auto value_for = [](size_t i) { return std::string(600, static_cast<char>('A' + i % 26)); };
  Bytes burst;
  for (size_t i = 0; i < kFrames; ++i) {
    const Bytes wire = raw.WireFrame({OpCode::kSet, "burst-" + std::to_string(i), value_for(i), 0});
    burst.insert(burst.end(), wire.begin(), wire.end());
  }
  ASSERT_GT(burst.size(), size_t{64} << 10);
  const std::string tail_value(240u << 10, 'T');
  const Bytes tail = raw.WireFrame({OpCode::kSet, "burst-tail", tail_value, 0});
  const size_t half = tail.size() / 2;
  burst.insert(burst.end(), tail.begin(), tail.begin() + static_cast<ptrdiff_t>(half));
  ASSERT_TRUE(SendAll(raw.fd(), burst.data(), burst.size()));
  for (size_t i = 0; i < kFrames; ++i) {
    Result<Response> response = raw.RecvResponse();
    ASSERT_TRUE(response.ok()) << "frame " << i << ": " << response.status().ToString();
    EXPECT_EQ(response->status, Code::kOk) << "frame " << i;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(SendAll(raw.fd(), tail.data() + half, tail.size() - half));
  Result<Response> last = raw.RecvResponse();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(last->status, Code::kOk);

  for (size_t i : {size_t{0}, size_t{63}, size_t{64}, kFrames - 1}) {
    const Bytes get = raw.WireFrame({OpCode::kGet, "burst-" + std::to_string(i), "", 0});
    ASSERT_TRUE(SendAll(raw.fd(), get.data(), get.size()));
    Result<Response> got = raw.RecvResponse();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->value, value_for(i)) << i;
  }
  const Bytes get = raw.WireFrame({OpCode::kGet, "burst-tail", "", 0});
  ASSERT_TRUE(SendAll(raw.fd(), get.data(), get.size()));
  Result<Response> got = raw.RecvResponse();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, tail_value);
}

// Several pipelined frames delivered one byte per read: every frame is cut
// at every offset across reads, and each is answered in order.
TEST_F(ReactorTortureTest, PipelinedFramesSplitByteByByte) {
  StartServer({});
  RawSession raw;
  ASSERT_TRUE(raw.Connect(server_->port(), authority_, enclave_.measurement()));

  constexpr size_t kFrames = 4;
  Bytes stream;
  for (size_t i = 0; i < kFrames; ++i) {
    const Bytes wire =
        raw.WireFrame({OpCode::kSet, "drip-" + std::to_string(i), "v" + std::to_string(i), 0});
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  const Bytes get = raw.WireFrame({OpCode::kGet, "drip-2", "", 0});
  stream.insert(stream.end(), get.begin(), get.end());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(SendAll(raw.fd(), stream.data() + i, 1));
    if (i % 8 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  for (size_t i = 0; i < kFrames; ++i) {
    Result<Response> response = raw.RecvResponse();
    ASSERT_TRUE(response.ok()) << "frame " << i << ": " << response.status().ToString();
    EXPECT_EQ(response->status, Code::kOk) << "frame " << i;
  }
  Result<Response> got = raw.RecvResponse();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, "v2");
}

// ------------------------------------------------------- antisocial peers

TEST_F(ReactorTortureTest, SlowLorisHalfOpenSessionsDoNotStarveService) {
  StartServer({});
  Client anchor(authority_, enclave_.measurement());
  ASSERT_TRUE(anchor.Connect(server_->port()).ok());
  ASSERT_TRUE(anchor.Set("anchor", "steady").ok());

  // 64 connections that handshake never, send almost nothing, and stall.
  constexpr size_t kLoris = 64;
  std::vector<int> fds;
  for (size_t i = 0; i < kLoris; ++i) {
    const int fd = DialLoopback(server_->port());
    ASSERT_GE(fd, 0);
    if (i % 2 == 0) {
      // Half of them dribble 2 bytes of a length prefix and go quiet.
      const uint8_t partial[2] = {0x30, 0x00};
      SendAll(fd, partial, sizeof(partial));
    }
    fds.push_back(fd);
  }

  // The sessions gauge sees them all (loris + anchor)...
  EXPECT_TRUE(WaitForSessions([&](size_t n) { return n >= kLoris + 1; }))
      << "live_sessions=" << server_->live_sessions();

  // ...and they cost other clients nothing.
  EXPECT_EQ(anchor.Get("anchor").value(), "steady");
  Client fresh(authority_, enclave_.measurement());
  ASSERT_TRUE(fresh.Connect(server_->port()).ok());
  EXPECT_EQ(fresh.Get("anchor").value(), "steady");
  fresh.Close();

  for (int fd : fds) {
    close(fd);
  }
  // The reactor reaps every closed session.
  EXPECT_TRUE(WaitForSessions([&](size_t n) { return n <= 2; }))
      << "live_sessions=" << server_->live_sessions();
}

TEST_F(ReactorTortureTest, MidFrameDisconnectIsReapedCleanly) {
  StartServer({});
  const size_t baseline = server_->live_sessions();

  for (int round = 0; round < 8; ++round) {
    RawSession raw;
    ASSERT_TRUE(raw.Connect(server_->port(), authority_, enclave_.measurement()));
    // Promise 100 bytes, deliver 9, vanish.
    uint8_t prefix[4];
    StoreLe32(prefix, 100);
    ASSERT_TRUE(SendAll(raw.fd(), prefix, sizeof(prefix)));
    ASSERT_TRUE(SendAll(raw.fd(), reinterpret_cast<const uint8_t*>("truncated"), 9));
    // RawSession's destructor closes the socket mid-frame.
  }

  EXPECT_TRUE(WaitForSessions([&](size_t n) { return n <= baseline; }))
      << "live_sessions=" << server_->live_sessions();
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  ASSERT_TRUE(client.Set("after", "disconnects").ok());
  EXPECT_EQ(client.Get("after").value(), "disconnects");
}

TEST_F(ReactorTortureTest, HalfCloseAfterPipelinedWritesDrainsAllResponses) {
  StartServer({});
  RawSession raw;
  ASSERT_TRUE(raw.Connect(server_->port(), authority_, enclave_.measurement()));

  // Pipeline a burst of writes, then half-close: "no more requests, but I am
  // still listening". Every buffered frame must be answered, in order, and
  // only then may the server close.
  constexpr int kFrames = 12;
  Bytes burst;
  for (int i = 0; i < kFrames; ++i) {
    const Bytes wire =
        raw.WireFrame({OpCode::kSet, "half-" + std::to_string(i), "v" + std::to_string(i), 0});
    burst.insert(burst.end(), wire.begin(), wire.end());
  }
  ASSERT_TRUE(SendAll(raw.fd(), burst.data(), burst.size()));
  ASSERT_EQ(shutdown(raw.fd(), SHUT_WR), 0);

  for (int i = 0; i < kFrames; ++i) {
    Result<Response> response = raw.RecvResponse();
    ASSERT_TRUE(response.ok()) << "frame " << i << ": " << response.status().ToString();
    EXPECT_EQ(response->status, Code::kOk) << "frame " << i;
  }
  // After the last response the server closes its side.
  EXPECT_FALSE(RecvFrame(raw.fd()).ok());

  // Every pipelined write landed.
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(client.Get("half-" + std::to_string(i)).value(), "v" + std::to_string(i));
  }
}

TEST_F(ReactorTortureTest, OversizedFrameRejectedWithoutResponse) {
  StartServer({});
  // Established session claiming a frame bigger than the 64 MiB cap: the
  // reactor must drop the connection without a response (same contract as
  // the pre-handshake oversized-claim attack) and never attempt the
  // allocation.
  RawSession raw;
  ASSERT_TRUE(raw.Connect(server_->port(), authority_, enclave_.measurement()));
  uint8_t prefix[4];
  StoreLe32(prefix, (64u << 20) + 1);
  ASSERT_TRUE(SendAll(raw.fd(), prefix, sizeof(prefix)));
  uint8_t byte;
  const ssize_t n = recv(raw.fd(), &byte, 1, 0);
  EXPECT_EQ(n, 0) << "server must close, not answer (recv=" << n << ")";

  // Collateral check: the server is unharmed.
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  ASSERT_TRUE(client.Set("still", "here").ok());
  EXPECT_EQ(client.Get("still").value(), "here");
}

// --------------------------------------------------------- shutdown races

// TSan target: many sessions in flight while Stop() tears the reactor down.
// Run under ThreadSanitizer by scripts/check.sh.
TEST_F(ReactorTortureTest, ConcurrentSessionsRaceStop) {
  StartServer({});
  const uint16_t port = server_->port();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      while (!done.load(std::memory_order_acquire)) {
        ClientOptions opts;
        opts.connect_attempts = 1;
        opts.recv_timeout_ms = 500;
        Client c(authority_, enclave_.measurement(), true, opts);
        if (!c.Connect(port).ok()) {
          break;  // server is gone — expected once Stop lands
        }
        for (int i = 0; i < 4 && !done.load(std::memory_order_acquire); ++i) {
          const std::string key = "race-" + std::to_string(t) + "-" + std::to_string(i);
          if (!c.Set(key, "v").ok()) {
            break;
          }
          completed.fetch_add(1, std::memory_order_relaxed);
        }
        c.Close();
      }
    });
  }

  // Stop only once sessions are demonstrably in flight: under TSan one
  // attested handshake alone can take longer than a fixed head start.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (completed.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server_->Stop();
  done.store(true, std::memory_order_release);
  for (auto& t : clients) {
    t.join();
  }
  // Stop() is idempotent even with the races above.
  server_->Stop();
  EXPECT_GT(completed.load(), 0u);
}

// ----------------------------------------- implicit-batch equivalence

// A full private stack (registry, enclave, store, server) so metric counts
// are exact and the secure state is caller-reproducible: a pinned store
// master key plus a pinned enclave DRBG seed make two stacks that execute
// identical op sequences byte-comparable via ExportSecureMetadata (entry IVs
// come from the enclave DRBG, so the draw order must match too).
struct PrivateStack {
  PrivateStack(const sgx::AttestationAuthority& authority, size_t coalesce_depth)
      : enclave(SeededEnclave()) {
    shieldstore::Options store_options = StoreOptions();
    store_options.metrics = &registry;
    const std::string master = "equivalence-fixed-master-key-32b";
    store_options.master_key.assign(master.begin(), master.end());
    store = std::make_unique<shieldstore::PartitionedStore>(enclave, store_options, 1);
    ServerOptions options;
    options.metrics = &registry;
    options.coalesce_depth = coalesce_depth;
    server = std::make_unique<Server>(enclave, *store, authority, options);
  }

  static sgx::EnclaveConfig SeededEnclave() {
    sgx::EnclaveConfig c = FastEnclave("equivalence-enclave");
    const std::string seed = "equivalence-drbg-seed";
    c.rng_seed.assign(seed.begin(), seed.end());
    return c;
  }

  obs::Registry registry;
  sgx::Enclave enclave;
  std::unique_ptr<shieldstore::PartitionedStore> store;
  std::unique_ptr<Server> server;
};

// The ops exercised by the equivalence test: every plain verb, including a
// miss, a delete, and arithmetic.
std::vector<Request> EquivalenceOps() {
  std::vector<Request> ops;
  for (int i = 0; i < 6; ++i) {
    ops.push_back({OpCode::kSet, "eq-" + std::to_string(i), "value-" + std::to_string(i), 0});
  }
  ops.push_back({OpCode::kSet, "counter", "10", 0});
  for (int i = 0; i < 6; ++i) {
    ops.push_back({OpCode::kGet, "eq-" + std::to_string(i), "", 0});
  }
  ops.push_back({OpCode::kGet, "missing", "", 0});
  ops.push_back({OpCode::kAppend, "eq-0", "+tail", 0});
  ops.push_back({OpCode::kIncrement, "counter", "", 32});
  ops.push_back({OpCode::kDelete, "eq-5", "", 0});
  ops.push_back({OpCode::kGet, "eq-5", "", 0});
  ops.push_back({OpCode::kPing, "", "", 0});
  ops.push_back({OpCode::kGet, "eq-0", "", 0});
  ops.push_back({OpCode::kGet, "counter", "", 0});
  return ops;
}

// Normalizes an ExportSecureMetadata blob for comparison: MAC-hash slots
// whose initialized bit is clear hold whatever the enclave heap held, so
// zero them (the bitmaps themselves are compared verbatim).
Bytes NormalizeMetadata(Bytes blob) {
  constexpr size_t kHeader = 4 + 8 + 8 + 8;  // magic + buckets + hashes + entries
  constexpr size_t kKeys = 16 * 4;
  EXPECT_GE(blob.size(), kHeader + kKeys);
  uint64_t num_hashes = 0;
  std::memcpy(&num_hashes, blob.data() + 4 + 8, 8);
  const size_t bitmap_words = (num_hashes + 63) / 64;
  const size_t bitmap_off = kHeader + kKeys;
  const size_t hashes_off = bitmap_off + bitmap_words * 8;
  EXPECT_EQ(blob.size(), hashes_off + num_hashes * 16);
  for (uint64_t i = 0; i < num_hashes; ++i) {
    uint64_t word = 0;
    std::memcpy(&word, blob.data() + bitmap_off + (i / 64) * 8, 8);
    if ((word & (1ull << (i % 64))) == 0) {
      std::fill_n(blob.begin() + hashes_off + i * 16, 16, uint8_t{0});
    }
  }
  return blob;
}

TEST_F(ReactorTortureTest, ImplicitBatchEquivalentToSequentialExecution) {
  const std::vector<Request> ops = EquivalenceOps();

  // Pipelined run: every frame sent before any response is read, so the
  // reactor coalesces adjacent singleton frames into implicit batches.
  PrivateStack pipelined(authority_, /*coalesce_depth=*/64);
  ASSERT_TRUE(pipelined.server->Start().ok());
  std::vector<Bytes> pipelined_responses;
  {
    RawSession raw;
    ASSERT_TRUE(raw.Connect(pipelined.server->port(), authority_,
                            pipelined.enclave.measurement()));
    Bytes burst;
    for (const Request& op : ops) {
      const Bytes wire = raw.WireFrame(op);
      burst.insert(burst.end(), wire.begin(), wire.end());
    }
    ASSERT_TRUE(SendAll(raw.fd(), burst.data(), burst.size()));
    for (size_t i = 0; i < ops.size(); ++i) {
      Bytes plaintext;
      Result<Response> response = raw.RecvResponse(&plaintext);
      ASSERT_TRUE(response.ok()) << "op " << i << ": " << response.status().ToString();
      pipelined_responses.push_back(std::move(plaintext));
    }
  }

  // Sequential reference: coalescing disabled AND strict request/response
  // lockstep — the exact behavior of the pre-reactor server.
  PrivateStack sequential(authority_, /*coalesce_depth=*/1);
  ASSERT_TRUE(sequential.server->Start().ok());
  std::vector<Bytes> sequential_responses;
  {
    RawSession raw;
    ASSERT_TRUE(raw.Connect(sequential.server->port(), authority_,
                            sequential.enclave.measurement()));
    for (size_t i = 0; i < ops.size(); ++i) {
      const Bytes wire = raw.WireFrame(ops[i]);
      ASSERT_TRUE(SendAll(raw.fd(), wire.data(), wire.size()));
      Bytes plaintext;
      Result<Response> response = raw.RecvResponse(&plaintext);
      ASSERT_TRUE(response.ok()) << "op " << i << ": " << response.status().ToString();
      sequential_responses.push_back(std::move(plaintext));
    }
  }

  // 1. Response plaintext is byte-identical, frame by frame. (The sealed
  // bytes differ only by session key; the plaintext is the protocol.)
  ASSERT_EQ(pipelined_responses.size(), sequential_responses.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(pipelined_responses[i], sequential_responses[i]) << "response " << i;
  }

  // 2. The stores are in the identical secure state: same entries, same
  // versions, same Merkle MAC hashes under the same (pinned) keys.
  EXPECT_EQ(NormalizeMetadata(pipelined.store->partition(0).ExportSecureMetadata()),
            NormalizeMetadata(sequential.store->partition(0).ExportSecureMetadata()));

  // 3. The implicit path actually engaged: the coalesce-depth histogram
  // counts each coalesced run (count) and the frames it held (sum)...
  obs::MetricsSnapshot pipe_snap = pipelined.server->BuildStatsSnapshot();
  obs::MetricsSnapshot seq_snap = sequential.server->BuildStatsSnapshot();
  const obs::HistogramData* depth = pipe_snap.Histogram("net.coalesce_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GE(depth->count, 1u);
  EXPECT_GE(depth->sum, 2u);
  EXPECT_LE(depth->sum, ops.size());
  const obs::HistogramData* seq_depth = seq_snap.Histogram("net.coalesce_depth");
  ASSERT_NE(seq_depth, nullptr);
  EXPECT_EQ(seq_depth->count, 0u);
  EXPECT_EQ(seq_depth->sum, 0u);

  // ...and the metric accounting agrees with sequential execution exactly:
  // per-verb counters identical, nothing double-counted into the explicit
  // batch family, every op attributed.
  uint64_t pipe_total = 0;
  for (const char* verb : {"net.ops.get", "net.ops.set", "net.ops.delete", "net.ops.append",
                           "net.ops.increment", "net.ops.ping"}) {
    EXPECT_EQ(pipe_snap.CounterValue(verb), seq_snap.CounterValue(verb)) << verb;
    pipe_total += pipe_snap.CounterValue(verb);
  }
  EXPECT_EQ(pipe_total, ops.size());
  EXPECT_EQ(BatchSubOps(pipe_snap), 0u);
  EXPECT_EQ(pipe_snap.CounterValue("net.ops.batch"), 0u);
  EXPECT_EQ(pipelined.server->requests_served(), ops.size());
  EXPECT_EQ(sequential.server->requests_served(), ops.size());

  pipelined.server->Stop();
  sequential.server->Stop();
}

// A session's history never shrinks its coalesce depth: after lockstep
// request/response traffic, a pipelined burst that is already buffered runs
// as ONE implicit batch (one enclave submission, one durability
// requirement), not as several smaller ones.
TEST_F(ReactorTortureTest, PipelinedBurstAfterLockstepTrafficRunsAsOneBatch) {
  PrivateStack stack(authority_, /*coalesce_depth=*/64);
  ASSERT_TRUE(stack.server->Start().ok());
  RawSession raw;
  ASSERT_TRUE(raw.Connect(stack.server->port(), authority_, stack.enclave.measurement()));

  for (int i = 0; i < 6; ++i) {
    const Bytes wire =
        raw.WireFrame({OpCode::kSet, "lockstep-" + std::to_string(i), "v", 0});
    ASSERT_TRUE(SendAll(raw.fd(), wire.data(), wire.size()));
    Result<Response> response = raw.RecvResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, Code::kOk) << "lockstep " << i;
  }

  const obs::Histogram& depth = stack.registry.GetHistogram("net.coalesce_depth");
  const obs::HistogramData before = depth.Data();

  constexpr int kBurst = 16;
  Bytes burst;
  for (int i = 0; i < kBurst; ++i) {
    const Bytes wire = raw.WireFrame({OpCode::kSet, "burst-" + std::to_string(i), "v", 0});
    burst.insert(burst.end(), wire.begin(), wire.end());
  }
  ASSERT_TRUE(SendAll(raw.fd(), burst.data(), burst.size()));
  for (int i = 0; i < kBurst; ++i) {
    Result<Response> response = raw.RecvResponse();
    ASSERT_TRUE(response.ok()) << "frame " << i << ": " << response.status().ToString();
    EXPECT_EQ(response->status, Code::kOk) << "frame " << i;
  }

  const obs::HistogramData after = depth.Data();
  EXPECT_EQ(after.count - before.count, 1u);
  EXPECT_EQ(after.sum - before.sum, static_cast<uint64_t>(kBurst));
  stack.server->Stop();
}

// Sanity on the reactor gauges the daemon exports: sessions_opened counts
// accepts, net.sessions tracks live, both in a private registry.
TEST_F(ReactorTortureTest, SessionGaugesTrackAcceptAndClose) {
  PrivateStack stack(authority_, /*coalesce_depth=*/64);
  ASSERT_TRUE(stack.server->Start().ok());

  {
    Client a(authority_, stack.enclave.measurement());
    Client b(authority_, stack.enclave.measurement());
    ASSERT_TRUE(a.Connect(stack.server->port()).ok());
    ASSERT_TRUE(b.Connect(stack.server->port()).ok());
    ASSERT_TRUE(a.Set("g", "1").ok());
    obs::MetricsSnapshot snap = stack.server->BuildStatsSnapshot();
    EXPECT_EQ(snap.CounterValue("net.sessions_opened"), 2u);
    EXPECT_EQ(stack.server->live_sessions(), 2u);
    a.Close();
    b.Close();
  }
  for (int i = 0; i < 400 && stack.server->live_sessions() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(stack.server->live_sessions(), 0u);
  obs::MetricsSnapshot snap = stack.server->BuildStatsSnapshot();
  EXPECT_EQ(snap.CounterValue("net.sessions_rejected"), 0u);
  stack.server->Stop();
}

// max_sessions is a hard cap: accepts past it are closed immediately,
// counted, and never cost established sessions anything.
TEST_F(ReactorTortureTest, SessionCapRejectsExcessAccepts) {
  PrivateStack stack(authority_, /*coalesce_depth=*/64);
  ServerOptions capped;
  capped.metrics = &stack.registry;
  capped.max_sessions = 2;
  stack.server = std::make_unique<Server>(stack.enclave, *stack.store, authority_, capped);
  ASSERT_TRUE(stack.server->Start().ok());

  Client a(authority_, stack.enclave.measurement());
  Client b(authority_, stack.enclave.measurement());
  ASSERT_TRUE(a.Connect(stack.server->port()).ok());
  ASSERT_TRUE(b.Connect(stack.server->port()).ok());
  ASSERT_TRUE(a.Set("cap", "v").ok());

  // Third connection: accepted by the kernel, closed by the reactor before
  // any handshake byte is answered.
  const int fd = DialLoopback(stack.server->port());
  ASSERT_GE(fd, 0);
  uint8_t byte;
  EXPECT_EQ(recv(fd, &byte, 1, 0), 0);
  close(fd);

  for (int i = 0; i < 400; ++i) {
    obs::MetricsSnapshot snap = stack.server->BuildStatsSnapshot();
    if (snap.CounterValue("net.sessions_rejected") >= 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  obs::MetricsSnapshot snap = stack.server->BuildStatsSnapshot();
  EXPECT_EQ(snap.CounterValue("net.sessions_rejected"), 1u);
  // Established sessions unaffected.
  EXPECT_EQ(a.Get("cap").value(), "v");
  EXPECT_EQ(b.Get("cap").value(), "v");
  stack.server->Stop();
}

}  // namespace
}  // namespace shield::net
