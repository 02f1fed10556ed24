// Networked load generation (§6.4): C client connections, each pipelining D
// outstanding requests — simulating C x D concurrent users against a server
// on loopback. ManySessionLoad scales C to the tens of thousands: one
// epoll-driven generator process holding every session, with mixed
// idle/pipelined/bursty profiles (the reactor benchmark).
#ifndef SHIELDSTORE_BENCH_NETLOAD_H_
#define SHIELDSTORE_BENCH_NETLOAD_H_

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/common/rng.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/obs/tracer.h"

namespace shield::bench {

struct NetLoadOptions {
  size_t connections = 8;
  size_t pipeline_depth = 16;
  double seconds = 0.4;
  bool encrypt = true;
};

// Returns aggregate Kop/s (ops counted on response receipt).
inline double RunNetworkLoad(uint16_t port, const sgx::AttestationAuthority& authority,
                             const sgx::Measurement& measurement,
                             const workload::WorkloadConfig& config,
                             const workload::DataSet& ds, size_t num_keys,
                             const NetLoadOptions& options) {
  std::atomic<uint64_t> total_ops{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < options.connections; ++c) {
    threads.emplace_back([&, c] {
      net::Client client(authority, measurement, options.encrypt);
      if (!client.Connect(port).ok()) {
        return;
      }
      workload::WorkloadGenerator gen(config, num_keys, 3000 + c);
      uint64_t version = 1;
      auto make_request = [&]() -> net::Request {
        const workload::Op op = gen.Next();
        net::Request request;
        request.key = workload::KeyAt(op.key_index, ds.key_bytes);
        switch (op.kind) {
          case workload::Op::Kind::kGet:
            request.op = net::OpCode::kGet;
            break;
          case workload::Op::Kind::kSet:
            request.op = net::OpCode::kSet;
            request.value = workload::ValueFor(op.key_index, version++, ds.value_bytes);
            break;
          case workload::Op::Kind::kAppend:
            request.op = net::OpCode::kAppend;
            request.value = "app8byte";
            break;
          case workload::Op::Kind::kReadModifyWrite:
            // Read-modify-write over the wire degenerates to an increment-
            // style server-side op; use append as the mutating half.
            request.op = net::OpCode::kAppend;
            request.value = "m";
            break;
        }
        return request;
      };
      size_t in_flight = 0;
      uint64_t ops = 0;
      for (size_t i = 0; i < options.pipeline_depth; ++i) {
        if (client.SendRequest(make_request()).ok()) {
          ++in_flight;
        }
      }
      while (!stop.load(std::memory_order_relaxed) && in_flight > 0) {
        if (!client.ReceiveResponse().ok()) {
          break;
        }
        ++ops;
        if (client.SendRequest(make_request()).ok()) {
          // window stays full
        } else {
          --in_flight;
        }
      }
      // Drain the window.
      while (in_flight > 0 && client.ReceiveResponse().ok()) {
        --in_flight;
        ++ops;
      }
      total_ops.fetch_add(ops, std::memory_order_relaxed);
    });
  }
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(options.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) {
    t.join();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return static_cast<double>(total_ops.load()) / elapsed / 1000.0;
}

// Batched load: like RunNetworkLoad but each connection packs `depth`
// write-heavy ops into one kBatch frame per round trip (depth 1 sends plain
// single-op frames — the unbatched baseline). Ops are counted per sub-op on
// batch-response receipt, so Kop/s across depths compares the same work.
inline double RunBatchedNetworkLoad(uint16_t port, const sgx::AttestationAuthority& authority,
                                    const sgx::Measurement& measurement,
                                    const workload::DataSet& ds, size_t num_keys,
                                    size_t depth, const NetLoadOptions& options) {
  std::atomic<uint64_t> total_ops{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < options.connections; ++c) {
    threads.emplace_back([&, c] {
      net::Client client(authority, measurement, options.encrypt);
      if (!client.Connect(port).ok()) {
        return;
      }
      Xoshiro256 rng(7000 + c);
      uint64_t version = 1;
      uint64_t ops = 0;
      auto make_request = [&]() -> net::Request {
        net::Request request;
        const uint64_t key_index = rng.NextBelow(num_keys);
        request.key = workload::KeyAt(key_index, ds.key_bytes);
        if (rng.NextBelow(10) < 9) {  // write-heavy: 90% sets
          request.op = net::OpCode::kSet;
          request.value = workload::ValueFor(key_index, version++, ds.value_bytes);
        } else {
          request.op = net::OpCode::kGet;
        }
        return request;
      };
      while (!stop.load(std::memory_order_relaxed)) {
        if (depth <= 1) {
          if (!client.Execute(make_request()).ok()) {
            break;
          }
          ++ops;
        } else {
          std::vector<net::Request> batch;
          batch.reserve(depth);
          for (size_t i = 0; i < depth; ++i) {
            batch.push_back(make_request());
          }
          const Result<std::vector<net::Response>> results = client.ExecuteBatch(batch);
          if (!results.ok()) {
            break;
          }
          ops += results->size();
        }
      }
      total_ops.fetch_add(ops, std::memory_order_relaxed);
    });
  }
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(options.seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) {
    t.join();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return static_cast<double>(total_ops.load()) / elapsed / 1000.0;
}

// ------------------------------------------------- many-session generator

// One measurement window over a (subset of a) large session pool.
struct ManySessionOptions {
  size_t active_sessions = 64;    // sessions issuing load; the rest hold open
  size_t pipeline_depth = 8;      // frames per burst (1 = request/response)
  double bursty_fraction = 0.25;  // of active: pause bursty_gap_ms between bursts
  uint32_t bursty_gap_ms = 20;
  double seconds = 1.0;
  double drain_seconds = 5.0;  // post-window budget to collect outstanding acks
  size_t value_bytes = 24;
  size_t key_space = 2048;
};

struct ManySessionResult {
  size_t sessions = 0;  // pool size while the window was open
  uint64_t ops_sent = 0;
  uint64_t ops_acked = 0;
  uint64_t errors = 0;  // session/protocol failures (any is a gate failure)
  double seconds = 0;
  double kops = 0;
  double p50_us = 0;
  double p99_us = 0;
};

// An open-loop generator holding thousands of attested sessions from ONE
// process: blocking parallel handshakes ramp the pool, then a single
// epoll loop drives non-blocking pipelined bursts over an active subset
// while the rest sit idle (the slow-readers-and-lurkers population a
// reactor exists to make cheap). The pool persists across Measure() calls
// so a connections-vs-throughput curve ramps incrementally.
class ManySessionLoad {
 public:
  ManySessionLoad(uint16_t port, const sgx::AttestationAuthority& authority,
                  const sgx::Measurement& measurement, bool encrypt = true,
                  size_t handshake_threads = 4, bool request_tracing = false)
      : port_(port),
        authority_(authority),
        measurement_(measurement),
        encrypt_(encrypt),
        handshake_threads_(std::max<size_t>(handshake_threads, 1)),
        request_tracing_(request_tracing) {}

  ~ManySessionLoad() {
    for (auto& s : pool_) {
      if (s->fd >= 0) {
        ::close(s->fd);
      }
    }
  }

  size_t sessions() const { return pool_.size(); }
  size_t handshake_failures() const { return handshake_failures_; }

  // Grows the pool to `count` sessions. Returns false if the target could
  // not be reached (failures are counted; transient ones are retried as
  // long as rounds keep making progress).
  bool RampTo(size_t count) {
    int stalled_rounds = 0;
    while (pool_.size() < count) {
      const size_t before = pool_.size();
      const size_t missing = count - pool_.size();
      const size_t workers = std::min(handshake_threads_, missing);
      std::mutex mu;
      std::atomic<int64_t> budget{static_cast<int64_t>(missing)};
      std::atomic<size_t> failures{0};
      std::vector<std::thread> threads;
      for (size_t w = 0; w < workers; ++w) {
        threads.emplace_back([&] {
          while (budget.fetch_sub(1, std::memory_order_acq_rel) > 0) {
            auto s = Dial();
            if (s == nullptr) {
              failures.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            std::lock_guard<std::mutex> lock(mu);
            pool_.push_back(std::move(s));
          }
        });
      }
      for (auto& t : threads) {
        t.join();
      }
      handshake_failures_ += failures.load();
      if (pool_.size() == before) {
        if (++stalled_rounds >= 2) {
          return false;  // the server is rejecting/failing: do not spin forever
        }
      } else {
        stalled_rounds = 0;
      }
    }
    return pool_.size() >= count;
  }

  ManySessionResult Measure(const ManySessionOptions& options) {
    ManySessionResult result;
    result.sessions = pool_.size();
    const size_t active = std::min(options.active_sessions, pool_.size());
    if (active == 0) {
      return result;
    }
    const int ep = epoll_create1(EPOLL_CLOEXEC);
    if (ep < 0) {
      result.errors = 1;
      return result;
    }
    // Reset per-session transient state and register every pool member:
    // idle sessions are watched too — an unexpected close is an error.
    const size_t bursty_from =
        active - std::min(active, static_cast<size_t>(active * options.bursty_fraction));
    for (size_t i = 0; i < pool_.size(); ++i) {
      Gen& s = *pool_[i];
      s.outstanding = 0;
      s.next_burst_ns = 0;
      s.send_ns.clear();
      s.out.clear();
      s.out_off = 0;
      s.dead = false;
      s.active = i < active;
      s.bursty = s.active && i >= bursty_from && options.pipeline_depth > 1;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      epoll_ctl(ep, EPOLL_CTL_ADD, s.fd, &ev);
      s.events = EPOLLIN;
    }

    Xoshiro256 rng(0x6e1c0adULL + pool_.size());
    std::vector<uint64_t> latencies_ns;
    uint64_t sent = 0;
    uint64_t acked = 0;
    uint64_t errors = 0;
    const uint64_t t0 = NowNs();
    const uint64_t window_end = t0 + static_cast<uint64_t>(options.seconds * 1e9);
    const uint64_t drain_end =
        window_end + static_cast<uint64_t>(options.drain_seconds * 1e9);
    bool sending = true;

    // Builds and queues one burst of sealed singleton frames; adjacency is
    // the point — the server coalesces them into one enclave submission.
    auto send_burst = [&](size_t idx) {
      Gen& s = *pool_[idx];
      const uint64_t now = NowNs();
      // One sampled root per burst: overhead measurement at --trace-sample N
      // exercises the real per-root-op sampling path end to end.
      obs::TraceRoot root("netload.burst");
      const obs::TraceContext trace_ctx = obs::CurrentTrace();
      for (size_t d = 0; d < options.pipeline_depth; ++d) {
        net::Request request;
        const uint64_t key_index = rng.NextBelow(options.key_space);
        request.key = "nl-" + std::to_string(key_index);
        if (rng.NextBelow(10) < 5) {
          request.op = net::OpCode::kSet;
          request.value.assign(options.value_bytes, 'v');
        } else {
          request.op = net::OpCode::kGet;
        }
        Bytes plain = net::EncodeRequest(request);
        if (request_tracing_ && trace_ctx.active()) {
          plain = net::PrependTraceContext(trace_ctx, plain);
        }
        const Bytes record = s.crypto->Seal(plain);
        uint8_t prefix[4];
        StoreLe32(prefix, static_cast<uint32_t>(record.size()));
        s.out.insert(s.out.end(), prefix, prefix + 4);
        s.out.insert(s.out.end(), record.begin(), record.end());
        s.send_ns.push_back(now);
        ++s.outstanding;
        ++sent;
      }
      FlushOut(ep, idx, errors);
    };

    for (size_t i = 0; i < active; ++i) {
      send_burst(i);
    }

    std::vector<epoll_event> events(512);
    uint8_t read_buf[64 * 1024];
    while (true) {
      const uint64_t now = NowNs();
      if (sending && now >= window_end) {
        sending = false;  // stop issuing; drain outstanding acks
      }
      if (!sending) {
        uint64_t outstanding = 0;
        for (size_t i = 0; i < active; ++i) {
          if (!pool_[i]->dead) {
            outstanding += pool_[i]->outstanding;
          }
        }
        if (outstanding == 0 || now >= drain_end) {
          break;
        }
      }
      const int n = epoll_wait(ep, events.data(), static_cast<int>(events.size()), 2);
      for (int e = 0; e < n; ++e) {
        const size_t idx = static_cast<size_t>(events[e].data.u64);
        Gen& s = *pool_[idx];
        if (s.dead) {
          continue;
        }
        if ((events[e].events & EPOLLOUT) != 0) {
          FlushOut(ep, idx, errors);
        }
        if ((events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) == 0) {
          continue;
        }
        bool closed = false;
        while (true) {
          const ssize_t r = recv(s.fd, read_buf, sizeof(read_buf), 0);
          if (r > 0) {
            s.in.insert(s.in.end(), read_buf, read_buf + r);
            if (static_cast<size_t>(r) < sizeof(read_buf)) {
              break;
            }
            continue;
          }
          if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          }
          if (r < 0 && errno == EINTR) {
            continue;
          }
          closed = true;  // EOF or hard error
          break;
        }
        // Parse and open every complete response frame, in order (session
        // crypto sequence numbers demand it).
        size_t off = 0;
        while (s.in.size() - off >= 4) {
          uint32_t len = 0;
          std::memcpy(&len, s.in.data() + off, 4);
          if (s.in.size() - off - 4 < len) {
            break;
          }
          Result<Bytes> plaintext =
              s.crypto->Open(ByteSpan(s.in.data() + off + 4, len));
          off += 4 + len;
          if (!plaintext.ok() || !net::DecodeResponse(*plaintext).ok()) {
            ++errors;
            closed = true;
            break;
          }
          ++acked;
          if (!s.send_ns.empty()) {
            latencies_ns.push_back(NowNs() - s.send_ns.front());
            s.send_ns.pop_front();
          }
          if (s.outstanding > 0) {
            --s.outstanding;
          }
        }
        s.in.erase(s.in.begin(), s.in.begin() + static_cast<long>(off));
        if (closed) {
          // Idle sessions must stay open for the whole window; actives may
          // only close after we stop sending with nothing outstanding.
          if (sending || s.outstanding > 0 || !s.active) {
            ++errors;
          }
          Kill(ep, idx);
          continue;
        }
        if (s.active && sending && s.outstanding == 0 && !s.has_pending_out()) {
          if (s.bursty) {
            s.next_burst_ns = NowNs() + static_cast<uint64_t>(options.bursty_gap_ms) *
                                            1'000'000ull *
                                            (1 + rng.NextBelow(3)) / 2;
          } else {
            send_burst(idx);
          }
        }
      }
      if (sending) {
        for (size_t i = bursty_from; i < active; ++i) {
          Gen& s = *pool_[i];
          if (!s.dead && s.bursty && s.outstanding == 0 && s.next_burst_ns != 0 &&
              NowNs() >= s.next_burst_ns) {
            s.next_burst_ns = 0;
            send_burst(i);
          }
        }
      }
    }

    for (auto& s : pool_) {
      if (!s->dead) {
        epoll_ctl(ep, EPOLL_CTL_DEL, s->fd, nullptr);
      }
    }
    ::close(ep);
    // Dead sessions shrink the pool so the next ramp replaces them.
    pool_.erase(std::remove_if(pool_.begin(), pool_.end(),
                               [](const std::unique_ptr<Gen>& s) { return s->dead; }),
                pool_.end());

    result.ops_sent = sent;
    result.ops_acked = acked;
    result.errors = errors;
    result.seconds = static_cast<double>(window_end - t0) / 1e9;
    result.kops = static_cast<double>(acked) / result.seconds / 1000.0;
    if (!latencies_ns.empty()) {
      std::sort(latencies_ns.begin(), latencies_ns.end());
      result.p50_us =
          static_cast<double>(latencies_ns[latencies_ns.size() / 2]) / 1000.0;
      result.p99_us =
          static_cast<double>(latencies_ns[latencies_ns.size() * 99 / 100]) / 1000.0;
    }
    return result;
  }

 private:
  struct Gen {
    int fd = -1;
    std::unique_ptr<net::SessionCrypto> crypto;
    Bytes in;
    Bytes out;
    size_t out_off = 0;
    std::deque<uint64_t> send_ns;  // FIFO matches in-order responses
    size_t outstanding = 0;
    uint64_t next_burst_ns = 0;
    uint32_t events = EPOLLIN;
    bool active = false;
    bool bursty = false;
    bool dead = false;
    bool has_pending_out() const { return out_off < out.size(); }
  };

  static uint64_t NowNs() {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now().time_since_epoch())
                                     .count());
  }

  std::unique_ptr<Gen> Dial() {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return nullptr;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return nullptr;
    }
    timeval tv{};
    tv.tv_sec = 10;  // handshakes queue behind each other on small machines
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    Result<Bytes> keys = net::ClientHandshake(fd, authority_, measurement_);
    if (!keys.ok()) {
      ::close(fd);
      return nullptr;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    auto s = std::make_unique<Gen>();
    s->fd = fd;
    s->crypto = std::make_unique<net::SessionCrypto>(*keys, /*is_client=*/true, encrypt_);
    return s;
  }

  // Sends as much pending output as the socket accepts; EPOLLOUT continues.
  void FlushOut(int ep, size_t idx, uint64_t& errors) {
    Gen& s = *pool_[idx];
    while (s.out_off < s.out.size()) {
      const ssize_t n =
          send(s.fd, s.out.data() + s.out_off, s.out.size() - s.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        s.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      ++errors;
      Kill(ep, idx);
      return;
    }
    if (s.out_off == s.out.size()) {
      s.out.clear();
      s.out_off = 0;
    }
    const uint32_t want =
        EPOLLIN | (s.has_pending_out() ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    if (want != s.events) {
      epoll_event ev{};
      ev.events = want;
      ev.data.u64 = idx;
      epoll_ctl(ep, EPOLL_CTL_MOD, s.fd, &ev);
      s.events = want;
    }
  }

  void Kill(int ep, size_t idx) {
    Gen& s = *pool_[idx];
    if (s.dead) {
      return;
    }
    epoll_ctl(ep, EPOLL_CTL_DEL, s.fd, nullptr);
    ::close(s.fd);
    s.fd = -1;
    s.dead = true;
  }

  uint16_t port_;
  const sgx::AttestationAuthority& authority_;
  sgx::Measurement measurement_;
  bool encrypt_;
  size_t handshake_threads_;
  bool request_tracing_ = false;
  size_t handshake_failures_ = 0;
  std::vector<std::unique_ptr<Gen>> pool_;
};

}  // namespace shield::bench

#endif  // SHIELDSTORE_BENCH_NETLOAD_H_
