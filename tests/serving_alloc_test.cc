// Allocation gate for the steady-state serving path: a counting global
// operator new/delete, a Server (ECALL entry, encrypted sessions) on
// loopback, and a raw pipelining client whose requests are sealed before the
// measured window, so every allocation inside the window is the server's.
// After warm-up a 16-deep run of gets may allocate at most 1.25 times per
// get: the one allocation left per get is the result value that the store's
// ExecuteBatch returns by value.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "src/net/channel.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/shieldstore/partitioned.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, std::max(sizeof(void*), static_cast<size_t>(align)),
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(size_t size, std::align_val_t align) { return CountedAlignedAlloc(size, align); }
void* operator new[](size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { std::free(p); }

namespace shield::net {
namespace {

constexpr size_t kDepth = 16;
constexpr size_t kKeys = 64;
constexpr size_t kValueBytes = 128;
constexpr size_t kWarmupRounds = 64;
constexpr size_t kMeasuredRounds = 256;
// A get response frame: [u32 len][u8 status][u32 vlen][value][MAC].
constexpr size_t kResponseFrameBytes = 4 + 1 + 4 + kValueBytes + crypto::kCmacSize;

sgx::EnclaveConfig FastEnclave() {
  sgx::EnclaveConfig c;
  c.name = "serving-alloc-enclave";
  c.epc.epc_bytes = 16u << 20;
  c.epc.crossing_cycles = 0;
  c.epc.kernel_fault_cycles = 0;
  c.epc.resident_access_cycles = 0;
  c.epc.page_crypto = false;
  c.heap_reserve_bytes = 128u << 20;
  return c;
}

std::string KeyFor(size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key-%012zu", i);  // 16 bytes: past SSO
  return buf;
}

std::string ValueFor(size_t i) {
  return std::string(kValueBytes, static_cast<char>('a' + i % 26));
}

int Dial(uint16_t port) {
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

bool SendAll(int fd, const uint8_t* data, size_t len) {
  while (len > 0) {
    const ssize_t n = send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool RecvAll(int fd, uint8_t* data, size_t len) {
  while (len > 0) {
    const ssize_t n = recv(fd, data, len, 0);
    if (n <= 0) {
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

// Appends one sealed, framed request to `wire`.
void AppendFrame(SessionCrypto& session, const Request& request, Bytes& wire) {
  const Bytes record = session.Seal(EncodeRequest(request));
  uint8_t len[4];
  StoreLe32(len, static_cast<uint32_t>(record.size()));
  wire.insert(wire.end(), len, len + 4);
  wire.insert(wire.end(), record.begin(), record.end());
}

TEST(ServingAllocationGate, PipelinedGetsAllocateOnlyTheResultValue) {
  sgx::Enclave enclave(FastEnclave());
  sgx::AttestationAuthority authority(AsBytes("ias-root"));
  shieldstore::Options store_options;
  store_options.num_buckets = 1024;
  store_options.heap_chunk_bytes = 1u << 20;
  shieldstore::PartitionedStore store(enclave, store_options, 2);
  obs::Registry registry;
  ServerOptions options;
  options.io_threads = 1;
  options.metrics = &registry;
  Server server(enclave, store, authority, options);
  ASSERT_TRUE(server.Start().ok());

  const int fd = Dial(server.port());
  ASSERT_GE(fd, 0);
  Result<Bytes> key_material = ClientHandshake(fd, authority, enclave.measurement());
  ASSERT_TRUE(key_material.ok()) << key_material.status().ToString();
  SessionCrypto session(*key_material, /*is_client=*/true, /*encrypt=*/true);

  // Load the keys through the same session, one pipelined burst.
  {
    Bytes wire;
    for (size_t i = 0; i < kKeys; ++i) {
      AppendFrame(session, {OpCode::kSet, KeyFor(i), ValueFor(i), 0}, wire);
    }
    ASSERT_TRUE(SendAll(fd, wire.data(), wire.size()));
    for (size_t i = 0; i < kKeys; ++i) {
      Result<Bytes> frame = RecvFrame(fd);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      ASSERT_TRUE(session.Open(*frame).ok());
    }
  }

  // Every request of the run is sealed up front: inside the window the
  // client only sends and receives into buffers it already holds.
  const size_t rounds = kWarmupRounds + kMeasuredRounds;
  Bytes requests;
  std::vector<size_t> round_end;
  round_end.reserve(rounds);
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t d = 0; d < kDepth; ++d) {
      AppendFrame(session, {OpCode::kGet, KeyFor((r * kDepth + d) % kKeys), "", 0}, requests);
    }
    round_end.push_back(requests.size());
  }
  Bytes responses(rounds * kDepth * kResponseFrameBytes);

  bool io_ok = true;
  uint64_t before = 0;
  size_t sent = 0;
  for (size_t r = 0; r < rounds && io_ok; ++r) {
    if (r == kWarmupRounds) {
      before = g_allocations.load(std::memory_order_relaxed);
    }
    io_ok = SendAll(fd, requests.data() + sent, round_end[r] - sent) &&
            RecvAll(fd, responses.data() + r * kDepth * kResponseFrameBytes,
                    kDepth * kResponseFrameBytes);
    sent = round_end[r];
  }
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(io_ok);

  // Every response is the sealed value, in order.
  for (size_t i = 0; i < rounds * kDepth; ++i) {
    const ByteSpan frame(responses.data() + i * kResponseFrameBytes, kResponseFrameBytes);
    ASSERT_EQ(LoadLe32(frame.data()), kResponseFrameBytes - 4);
    Result<Bytes> plaintext = session.Open(frame.subspan(4));
    ASSERT_TRUE(plaintext.ok()) << i;
    Result<Response> response = DecodeResponse(*plaintext);
    ASSERT_TRUE(response.ok()) << i;
    ASSERT_EQ(response->status, Code::kOk) << i;
    ASSERT_EQ(response->value, ValueFor(i % kKeys)) << i;
  }
  close(fd);
  server.Stop();

  const double gets = static_cast<double>(kMeasuredRounds * kDepth);
  const double per_get = static_cast<double>(allocations) / gets;
  std::printf("serving allocations: %llu over %.0f gets (%.3f per get)\n",
              static_cast<unsigned long long>(allocations), gets, per_get);
  EXPECT_LE(per_get, 1.25);
}

}  // namespace
}  // namespace shield::net
