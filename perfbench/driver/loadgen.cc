#include "driver/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "src/workload/generator.h"

namespace perfbench {

namespace net = shield::net;
namespace sgx = shield::sgx;
using shield::Code;

namespace {

constexpr WorkloadSpec kWorkloads[] = {
    {"cache-rd95", 0.95, 128, 1'000'000, false},
    {"durable-rw50", 0.50, 32, 100'000, true},
};

constexpr double kSliceSeconds = 0.5;
constexpr size_t kPreloadBatch = 512;
constexpr size_t kPreloadWindow = 4;  // batch frames in flight per session
constexpr size_t kVerifyBatch = 512;
constexpr size_t kMaxFrameBytes = 64u << 20;
constexpr int kIoTimeoutMs = 10000;
constexpr int kStallTimeoutMs = 5000;  // no answer this long fails the session

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

bool ParseDecimal(std::string_view s, size_t* pos, uint64_t* out) {
  const size_t start = *pos;
  uint64_t v = 0;
  while (*pos < s.size() && s[*pos] >= '0' && s[*pos] <= '9' && *pos - start < 19) {
    v = v * 10 + static_cast<uint64_t>(s[*pos] - '0');
    ++*pos;
  }
  *out = v;
  return *pos > start;
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

std::string KeyFor(uint64_t index) {
  return shield::workload::KeyAt(index, kKeyBytes);
}

bool ParseKey(std::string_view key, uint64_t* index) {
  if (key.size() != kKeyBytes || key[0] != 'k') {
    return false;
  }
  size_t pos = 1;
  return ParseDecimal(key, &pos, index) && pos == key.size();
}

std::string ValueFor(uint64_t index, uint64_t version, size_t bytes) {
  return shield::workload::ValueFor(index, version, bytes);
}

bool ParseValue(std::string_view value, uint64_t index, size_t bytes, uint64_t* version) {
  if (value.size() != bytes || value.empty() || value[0] != 'v') {
    return false;
  }
  size_t pos = 1;
  uint64_t got_index = 0;
  if (!ParseDecimal(value, &pos, &got_index) || got_index != index || pos >= value.size() ||
      value[pos] != ':') {
    return false;
  }
  ++pos;
  if (!ParseDecimal(value, &pos, version)) {
    return false;
  }
  return value == ValueFor(index, *version, bytes);
}

// ------------------------------------------------------------------ ops

OpStream::OpStream(const WorkloadSpec& spec, uint64_t seed, size_t stream)
    : get_fraction_(spec.get_fraction),
      rng_(shield::SplitMix64(seed * 0x9E3779B97F4A7C15ULL + 2 * stream + 1).Next()),
      zipf_(spec.num_keys, 0.99, shield::SplitMix64(seed ^ (0xC0FFEEULL + stream)).Next()) {}

OpStream::Op OpStream::Next() {
  Op op;
  op.get = rng_.NextDouble() < get_fraction_;
  op.key = zipf_.Next();
  return op;
}

double GroupedPercentile(const std::vector<WindowSlice>& slices, bool get, double q,
                         size_t min_samples) {
  std::vector<double> per_group;
  std::vector<double> group;
  std::vector<double> last;  // samples behind per_group.back()
  for (const WindowSlice& slice : slices) {
    const std::vector<double>& ns = get ? slice.get.ns : slice.set.ns;
    group.insert(group.end(), ns.begin(), ns.end());
    if (group.size() >= min_samples) {
      last.swap(group);
      group.clear();
      per_group.push_back(Percentile(last, q));
    }
  }
  if (!group.empty()) {
    if (!per_group.empty()) {
      group.insert(group.end(), last.begin(), last.end());
      per_group.pop_back();
    }
    per_group.push_back(Percentile(group, q));
  }
  return Percentile(per_group, 0.5);
}

// ----------------------------------------------------------- connection

Status Connection::Open(uint16_t port, const sgx::AttestationAuthority& authority,
                        const sgx::Measurement& measurement) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status(Code::kIoError, "socket() failed");
  }
  timeval tv{};
  tv.tv_sec = kIoTimeoutMs / 1000;
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    Close();
    return Status(Code::kIoError, "connect: " + err);
  }
  Result<Bytes> keys = net::ClientHandshake(fd_, authority, measurement);
  if (!keys.ok()) {
    Close();
    return keys.status();
  }
  crypto_ = std::make_unique<net::SessionCrypto>(*keys, /*is_client=*/true, /*encrypt=*/true);
  return Status::Ok();
}

void Connection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  crypto_.reset();
  in_.clear();
  in_off_ = 0;
  out_.clear();
}

void Connection::Queue(const Bytes& plaintext) {
  const Bytes record = crypto_->Seal(plaintext);
  uint8_t len[4];
  shield::StoreLe32(len, static_cast<uint32_t>(record.size()));
  out_.insert(out_.end(), len, len + 4);
  out_.insert(out_.end(), record.begin(), record.end());
}

Status Connection::Flush() {
  size_t off = 0;
  while (off < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + off, out_.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return Status(Code::kIoError, n == 0 ? "send: closed" : std::string("send: ") +
                                                                   std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  out_.clear();
  return Status::Ok();
}

Status Connection::Fill() {
  if (in_off_ > 0 && in_off_ == in_.size()) {
    in_.clear();
    in_off_ = 0;
  } else if (in_off_ > (1u << 20)) {
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(in_off_));
    in_off_ = 0;
  }
  uint8_t buf[64 << 10];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      in_.insert(in_.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status::Ok();
    }
    return Status(Code::kIoError, n == 0 ? "connection closed by server"
                                         : std::string("recv: ") + std::strerror(errno));
  }
}

bool Connection::Pop(Bytes* plaintext, Status* status) {
  const size_t avail = in_.size() - in_off_;
  if (avail < 4) {
    return false;
  }
  const uint32_t len = shield::LoadLe32(in_.data() + in_off_);
  if (len > kMaxFrameBytes) {
    *status = Status(Code::kProtocolError, "oversized frame");
    return false;
  }
  if (avail < 4 + static_cast<size_t>(len)) {
    return false;
  }
  Result<Bytes> opened = crypto_->Open(shield::ByteSpan(in_.data() + in_off_ + 4, len));
  in_off_ += 4 + static_cast<size_t>(len);
  if (!opened.ok()) {
    *status = opened.status();
    return false;
  }
  *plaintext = std::move(*opened);
  return true;
}

Result<Bytes> Connection::ReceiveOne(int timeout_ms) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(timeout_ms) * 1'000'000ull;
  for (;;) {
    Bytes plaintext;
    Status status;
    if (Pop(&plaintext, &status)) {
      return plaintext;
    }
    if (!status.ok()) {
      return status;
    }
    const uint64_t now = NowNs();
    if (now >= deadline) {
      return Status(Code::kIoError, "timed out waiting for a response");
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int wait_ms = static_cast<int>((deadline - now) / 1'000'000ull) + 1;
    if (poll(&pfd, 1, wait_ms) < 0 && errno != EINTR) {
      return Status(Code::kIoError, "poll failed");
    }
    if (Status s = Fill(); !s.ok()) {
      return s;
    }
  }
}

// ------------------------------------------------------------ generator

struct LoadGenerator::RunState {
  std::atomic<int> phase{0};  // 0 warm-up, 1 window open, 2 closed
  std::atomic<uint64_t> window_start_ns{0};  // set before phase 1
  uint64_t slice_ns = 0;
  size_t num_slices = 1;
  bool record_spans = false;
  std::vector<WindowResult> per_thread;

  size_t SliceOf(uint64_t t) const {
    const uint64_t t0 = window_start_ns.load(std::memory_order_acquire);
    const uint64_t i = t > t0 ? (t - t0) / slice_ns : 0;
    return std::min<size_t>(static_cast<size_t>(i), num_slices - 1);
  }
};

LoadGenerator::LoadGenerator(const WorkloadSpec& spec, uint64_t seed) : spec_(spec) {
  for (size_t i = 0; i < kSessions; ++i) {
    sessions_.push_back(std::make_unique<Session>(spec, seed, i));
  }
}

LoadGenerator::~LoadGenerator() = default;

Status LoadGenerator::Connect(uint16_t port, const sgx::AttestationAuthority& authority,
                              const sgx::Measurement& measurement) {
  for (auto& s : sessions_) {
    if (Status st = s->conn.Open(port, authority, measurement); !st.ok()) {
      return st;
    }
  }
  return monitor_.Open(port, authority, measurement);
}

Status LoadGenerator::Preload() {
  std::vector<Status> results(sessions_.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < sessions_.size(); ++i) {
    threads.emplace_back([this, i, &results] {
      Connection& conn = sessions_[i]->conn;
      uint64_t next_key = i;
      size_t outstanding = 0;
      auto send_batch = [&]() -> Status {
        std::vector<net::Request> batch;
        for (; next_key < spec_.num_keys && batch.size() < kPreloadBatch; next_key += kSessions) {
          net::Request r;
          r.op = net::OpCode::kSet;
          r.key = KeyFor(next_key);
          r.value = ValueFor(next_key, 0, spec_.value_bytes);
          batch.push_back(std::move(r));
        }
        if (batch.empty()) {
          return Status::Ok();
        }
        conn.Queue(net::EncodeBatchRequest(batch));
        ++outstanding;
        return conn.Flush();
      };
      Status st;
      while (st.ok() && outstanding < kPreloadWindow && next_key < spec_.num_keys) {
        st = send_batch();
      }
      while (st.ok() && outstanding > 0) {
        Result<Bytes> reply = conn.ReceiveOne(kIoTimeoutMs);
        if (!reply.ok()) {
          st = reply.status();
          break;
        }
        --outstanding;
        Result<std::vector<net::Response>> rs = net::DecodeBatchResponse(*reply);
        if (!net::IsBatchResponse(*reply) || !rs.ok()) {
          st = Status(Code::kProtocolError, "preload: malformed batch reply");
          break;
        }
        for (const net::Response& r : *rs) {
          if (r.status != Code::kOk) {
            st = Status(r.status, "preload: set refused");
            break;
          }
        }
        if (st.ok() && next_key < spec_.num_keys) {
          st = send_batch();
        }
      }
      results[i] = st;
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (const Status& st : results) {
    if (!st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

void LoadGenerator::GeneratorThread(size_t thread, RunState& run) {
  WindowResult& out = run.per_thread[thread];
  out.slices.resize(run.num_slices);
  std::vector<Session*> mine;
  for (auto& s : sessions_) {
    if (s->index % kGeneratorThreads == thread && s->conn.is_open()) {
      mine.push_back(s.get());
    }
  }
  enum Outcome { kOk, kTransport, kBadStatus, kBadValue };
  auto account = [&](const Pending& p, Outcome outcome, uint64_t end_ns) {
    if (!p.in_window) {
      out.failures_outside += outcome != kOk ? 1 : 0;
      return;
    }
    ++out.attempted;
    WindowSlice& slice = out.slices[run.SliceOf(end_ns)];
    VerbSamples& samples = p.get ? slice.get : slice.set;
    if (outcome == kOk) {
      ++out.acked;
      samples.Ok(static_cast<double>(end_ns - p.send_ns));
    } else {
      samples.Fail();
      out.transport_failures += outcome == kTransport ? 1 : 0;
      out.status_failures += outcome == kBadStatus ? 1 : 0;
      out.value_failures += outcome == kBadValue ? 1 : 0;
    }
    if (p.traced) {
      out.spans.push_back({p.id, p.send_ns, end_ns, p.key, p.version,
                           static_cast<uint32_t>(thread), p.get, outcome == kOk});
    }
  };
  auto fail_session = [&](Session& s) {
    const uint64_t now = NowNs();
    for (const Pending& p : s.inflight) {
      account(p, kTransport, now);
    }
    s.inflight.clear();
    s.conn.Close();
  };
  auto refill = [&](Session& s, int phase) {
    while (phase < 2 && s.inflight.size() < kDepth) {
      const OpStream::Op op = s.ops.Next();
      Pending p;
      p.id = (static_cast<uint64_t>(s.index) << 48) | s.next_id++;
      p.key = op.key;
      p.get = op.get;
      p.in_window = phase == 1;
      p.traced = p.in_window && run.record_spans;
      net::Request r;
      r.key = KeyFor(op.key);
      if (op.get) {
        r.op = net::OpCode::kGet;
      } else {
        r.op = net::OpCode::kSet;
        p.version = s.sets.size() * kVersionStride + s.index + 1;
        r.value = ValueFor(op.key, p.version, spec_.value_bytes);
      }
      p.send_ns = NowNs();
      if (!op.get) {
        s.sets.push_back({op.key, p.send_ns, 0});
      }
      s.conn.Queue(net::EncodeRequest(r));
      s.inflight.push_back(p);
    }
  };
  auto answer = [&](Session& s, const Bytes& plaintext) {
    const Pending p = s.inflight.front();
    s.inflight.pop_front();
    const uint64_t now = NowNs();
    Result<net::Response> r = net::DecodeResponse(plaintext);
    if (!r.ok() || r->status != Code::kOk) {
      account(p, kBadStatus, now);
      return;
    }
    if (p.get) {
      uint64_t version = 0;
      if (!ParseValue(r->value, p.key, spec_.value_bytes, &version)) {
        account(p, kBadValue, now);
        return;
      }
      if (version != 0) {
        s.gets.push_back({p.key, version});
      }
    } else {
      s.sets[(p.version - 1) / kVersionStride].ack_ns = now;
    }
    if (run.phase.load(std::memory_order_acquire) == 1) {
      ++out.slices[run.SliceOf(now)].completed;
    }
    account(p, kOk, now);
  };

  int seen_phase = -1;
  uint64_t cpu_start = 0;
  uint64_t wall_start = 0;
  auto note_phase = [&](int phase) {
    if (phase == seen_phase) {
      return;
    }
    if (phase >= 1 && seen_phase < 1) {
      cpu_start = ThreadCpuNs();
      wall_start = NowNs();
    }
    if (phase == 2 && seen_phase == 1) {
      const uint64_t wall = NowNs() - wall_start;
      out.max_thread_cpu_ratio =
          wall > 0 ? static_cast<double>(ThreadCpuNs() - cpu_start) / static_cast<double>(wall)
                   : 0.0;
    }
    seen_phase = phase;
  };

  const uint64_t stall_ns = static_cast<uint64_t>(kStallTimeoutMs) * 1'000'000ull;
  note_phase(run.phase.load(std::memory_order_acquire));
  for (Session* s : mine) {
    s->last_progress_ns = NowNs();
    refill(*s, seen_phase);
    if (!s->conn.Flush().ok()) {
      fail_session(*s);
    }
  }
  std::vector<pollfd> pfds;
  std::vector<Session*> polled;
  for (;;) {
    note_phase(run.phase.load(std::memory_order_acquire));
    pfds.clear();
    polled.clear();
    for (Session* s : mine) {
      if (s->conn.is_open() && !s->inflight.empty()) {
        pfds.push_back({s->conn.fd(), POLLIN, 0});
        polled.push_back(s);
      }
    }
    if (pfds.empty()) {
      break;  // window closed and drained, or every session failed
    }
    if (poll(pfds.data(), pfds.size(), 20) < 0 && errno != EINTR) {
      for (Session* s : polled) {
        fail_session(*s);
      }
      break;
    }
    for (size_t i = 0; i < pfds.size(); ++i) {
      Session& s = *polled[i];
      if (pfds[i].revents == 0) {
        if (NowNs() - s.last_progress_ns > stall_ns) {
          fail_session(s);
        }
        continue;
      }
      const Status filled = s.conn.Fill();
      Bytes plaintext;
      Status popped;
      bool progressed = false;
      while (!s.inflight.empty() && s.conn.Pop(&plaintext, &popped)) {
        answer(s, plaintext);
        progressed = true;
      }
      if (!filled.ok() || !popped.ok()) {
        fail_session(s);
        continue;
      }
      if (progressed) {
        s.last_progress_ns = NowNs();
      } else if (NowNs() - s.last_progress_ns > stall_ns) {
        fail_session(s);
        continue;
      }
      refill(s, run.phase.load(std::memory_order_acquire));
      if (!s.conn.Flush().ok()) {
        fail_session(s);
      }
    }
  }
  if (seen_phase == 1) {
    note_phase(2);
  }
}

WindowResult LoadGenerator::Run(double warmup_s, double seconds, bool record_spans,
                                const WindowHooks& hooks) {
  RunState run;
  run.record_spans = record_spans;
  run.num_slices = static_cast<size_t>(std::max(1.0, std::round(seconds / kSliceSeconds)));
  run.slice_ns = std::max<uint64_t>(1, static_cast<uint64_t>(seconds * 1e9) / run.num_slices);
  run.per_thread.resize(kGeneratorThreads);
  std::atomic<size_t> running{kGeneratorThreads};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kGeneratorThreads; ++t) {
    threads.emplace_back([this, t, &run, &running] {
      GeneratorThread(t, run);
      running.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  auto sleep_until = [&](uint64_t deadline) {
    while (NowNs() < deadline && running.load(std::memory_order_acquire) > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  sleep_until(NowNs() + static_cast<uint64_t>(warmup_s * 1e9));
  if (hooks.at_start) {
    hooks.at_start();
  }
  const uint64_t t0 = NowNs();
  run.window_start_ns.store(t0, std::memory_order_release);
  run.phase.store(1, std::memory_order_release);
  sleep_until(t0 + static_cast<uint64_t>(seconds * 1e9));
  run.phase.store(2, std::memory_order_release);
  const uint64_t t1 = NowNs();
  if (hooks.at_end) {
    hooks.at_end();
  }
  for (auto& t : threads) {
    t.join();
  }
  WindowResult result;
  result.window_s = static_cast<double>(t1 - t0) / 1e9;
  result.slices.resize(run.num_slices);
  for (WindowSlice& slice : result.slices) {
    slice.seconds = result.window_s / static_cast<double>(run.num_slices);
  }
  for (WindowResult& r : run.per_thread) {
    for (size_t i = 0; i < r.slices.size(); ++i) {
      result.slices[i].get.Merge(r.slices[i].get);
      result.slices[i].set.Merge(r.slices[i].set);
      result.slices[i].completed += r.slices[i].completed;
    }
    result.attempted += r.attempted;
    result.acked += r.acked;
    result.transport_failures += r.transport_failures;
    result.status_failures += r.status_failures;
    result.value_failures += r.value_failures;
    result.failures_outside += r.failures_outside;
    result.max_thread_cpu_ratio = std::max(result.max_thread_cpu_ratio, r.max_thread_cpu_ratio);
    result.spans.insert(result.spans.end(), r.spans.begin(), r.spans.end());
  }
  return result;
}

VerbSamples LoadGenerator::Pooled(const WindowResult& w, bool get) {
  VerbSamples all;
  for (const WindowSlice& slice : w.slices) {
    all.Merge(get ? slice.get : slice.set);
  }
  return all;
}

Result<std::vector<net::Response>> LoadGenerator::MonitorBatch(
    const std::vector<net::Request>& ops) {
  monitor_.Queue(net::EncodeBatchRequest(ops));
  if (Status s = monitor_.Flush(); !s.ok()) {
    return s;
  }
  Result<Bytes> reply = monitor_.ReceiveOne(kIoTimeoutMs);
  if (!reply.ok()) {
    return reply.status();
  }
  if (!net::IsBatchResponse(*reply)) {
    return Status(Code::kProtocolError, "batch rejected");
  }
  Result<std::vector<net::Response>> rs = net::DecodeBatchResponse(*reply);
  if (rs.ok() && rs->size() != ops.size()) {
    return Status(Code::kProtocolError, "batch reply count mismatch");
  }
  return rs;
}

Result<shield::obs::MetricsSnapshot> LoadGenerator::Stats() {
  net::Request r;
  r.op = net::OpCode::kStats;
  monitor_.Queue(net::EncodeRequest(r));
  if (Status s = monitor_.Flush(); !s.ok()) {
    return s;
  }
  Result<Bytes> reply = monitor_.ReceiveOne(kIoTimeoutMs);
  if (!reply.ok()) {
    return reply.status();
  }
  Result<net::Response> response = net::DecodeResponse(*reply);
  if (!response.ok()) {
    return response.status();
  }
  if (response->status != Code::kOk) {
    return Status(response->status, "stats refused");
  }
  return shield::obs::DecodeStatsSnapshot(shield::AsBytes(response->value));
}

uint64_t LoadGenerator::Verify(std::string* first_error) {
  uint64_t bad = 0;
  auto note = [&](const std::string& what) {
    if (bad++ == 0 && first_error != nullptr) {
      *first_error = what;
    }
  };
  // Every non-preload version a get returned must name a set that was sent
  // for that key.
  for (const auto& s : sessions_) {
    for (const GetRecord& g : s->gets) {
      const uint64_t writer = (g.version - 1) % kVersionStride;
      const uint64_t seq = (g.version - 1) / kVersionStride;
      if (writer >= sessions_.size() || seq >= sessions_[writer]->sets.size() ||
          sessions_[writer]->sets[seq].key != g.key) {
        note("get of " + KeyFor(g.key) + " returned version " + std::to_string(g.version) +
             ", which no session wrote to that key");
      }
    }
  }

  // Latest acknowledged versions. An acknowledged set is superseded when
  // another acknowledged set to the key was sent after it was acknowledged,
  // or when its own session later set the key (a session's frames apply in
  // order). Whatever is left may legitimately be the final value.
  struct Acked {
    uint64_t key;
    uint64_t send_ns;
    uint64_t ack_ns;
    uint64_t version;
    size_t session;
  };
  std::vector<Acked> acked;
  for (const auto& s : sessions_) {
    for (size_t seq = 0; seq < s->sets.size(); ++seq) {
      const SetRecord& r = s->sets[seq];
      if (r.ack_ns != 0) {
        acked.push_back({r.key, r.send_ns, r.ack_ns, seq * kVersionStride + s->index + 1, s->index});
      }
    }
  }
  std::sort(acked.begin(), acked.end(), [](const Acked& a, const Acked& b) {
    return a.key != b.key ? a.key < b.key : a.version < b.version;
  });
  std::unordered_map<uint64_t, std::vector<uint64_t>> allowed;
  for (size_t lo = 0; lo < acked.size();) {
    size_t hi = lo;
    while (hi < acked.size() && acked[hi].key == acked[lo].key) {
      ++hi;
    }
    size_t newest = lo;  // latest send; second-latest send among the rest
    for (size_t i = lo; i < hi; ++i) {
      if (acked[i].send_ns > acked[newest].send_ns) {
        newest = i;
      }
    }
    uint64_t runner_up = 0;
    for (size_t i = lo; i < hi; ++i) {
      if (i != newest) {
        runner_up = std::max(runner_up, acked[i].send_ns);
      }
    }
    uint64_t last_of_session[kVersionStride] = {};
    for (size_t i = lo; i < hi; ++i) {
      last_of_session[acked[i].session] = std::max(last_of_session[acked[i].session], acked[i].version);
    }
    std::vector<uint64_t>& ok = allowed[acked[lo].key];
    for (size_t i = lo; i < hi; ++i) {
      const uint64_t later_send = i == newest ? runner_up : acked[newest].send_ns;
      if (acked[i].ack_ns >= later_send && acked[i].version == last_of_session[acked[i].session]) {
        ok.push_back(acked[i].version);
      }
    }
    lo = hi;
  }

  std::vector<uint64_t> keys;
  keys.reserve(allowed.size());
  for (const auto& [key, versions] : allowed) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  for (size_t lo = 0; lo < keys.size(); lo += kVerifyBatch) {
    const size_t hi = std::min(keys.size(), lo + kVerifyBatch);
    std::vector<net::Request> ops;
    for (size_t i = lo; i < hi; ++i) {
      net::Request r;
      r.op = net::OpCode::kGet;
      r.key = KeyFor(keys[i]);
      ops.push_back(std::move(r));
    }
    Result<std::vector<net::Response>> rs = MonitorBatch(ops);
    if (!rs.ok()) {
      note("verification read failed: " + rs.status().ToString());
      bad += hi - lo - 1;  // every key of the batch is unverified
      continue;
    }
    for (size_t i = lo; i < hi; ++i) {
      const net::Response& r = (*rs)[i - lo];
      uint64_t version = 0;
      const std::vector<uint64_t>& ok = allowed[keys[i]];
      if (r.status != Code::kOk || !ParseValue(r.value, keys[i], spec_.value_bytes, &version) ||
          std::find(ok.begin(), ok.end(), version) == ok.end()) {
        note("final value of " + KeyFor(keys[i]) + " is not a latest acknowledged write");
      }
    }
  }
  return bad;
}

}  // namespace perfbench
