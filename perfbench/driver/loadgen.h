// The benchmark's client side: workload definitions, the deterministic op
// stream, attested encrypted sessions over raw sockets, and a closed-loop
// generator that checks every answer.
//
// Sessions are driven from kGeneratorThreads threads (two sessions each,
// multiplexed with poll) so that generator threads plus the daemon's two
// reactor threads stay within a 4-core machine. Every value is built from
// (key, version) so a response proves which write it came from.
#ifndef PERFBENCH_DRIVER_LOADGEN_H_
#define PERFBENCH_DRIVER_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/net/channel.h"
#include "src/net/protocol.h"
#include "src/obs/snapshot.h"
#include "driver/stats.h"
#include "src/workload/zipf.h"

namespace perfbench {

using shield::Bytes;
using shield::Result;
using shield::Status;

struct WorkloadSpec {
  const char* name;
  double get_fraction;  // keys are scrambled zipf 0.99 over num_keys
  size_t value_bytes;
  uint64_t num_keys;
  bool durable;  // daemon runs with a WAL (--heal-dir)
};

inline constexpr size_t kSessions = 4;
inline constexpr size_t kDepth = 16;  // outstanding requests per session
inline constexpr size_t kGeneratorThreads = 2;
inline constexpr size_t kKeyBytes = 16;

// The workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

std::string KeyFor(uint64_t index);
// Inverse of KeyFor; false when `key` is not in that format.
bool ParseKey(std::string_view key, uint64_t* index);
std::string ValueFor(uint64_t index, uint64_t version, size_t bytes);
// True when `value` is exactly ValueFor(index, v, bytes) for the version v
// it carries, which is written to *version.
bool ParseValue(std::string_view value, uint64_t index, size_t bytes, uint64_t* version);

// Versions: 0 is the preloaded value; a set is stamped with
// seq * kVersionStride + session + 1, so a value names the session and the
// position in that session's set log that wrote it.
inline constexpr uint64_t kVersionStride = 8;

class OpStream {
 public:
  struct Op {
    bool get = true;
    uint64_t key = 0;
  };

  OpStream(const WorkloadSpec& spec, uint64_t seed, size_t stream);
  Op Next();

 private:
  double get_fraction_;
  shield::Xoshiro256 rng_;
  shield::workload::ScrambledZipfGenerator zipf_;
};

// One attested, encrypted client session over a blocking socket, with
// buffered frame I/O so a poll loop can multiplex several of them.
class Connection {
 public:
  Connection() = default;
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  Status Open(uint16_t port, const shield::sgx::AttestationAuthority& authority,
              const shield::sgx::Measurement& measurement);
  void Close();
  bool is_open() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Seals `plaintext` and appends it as one frame to the output buffer.
  void Queue(const Bytes& plaintext);
  // Sends the whole output buffer (blocking, bounded by the send timeout).
  Status Flush();
  // Reads whatever bytes are available without blocking; a closed or
  // failed socket is an error.
  Status Fill();
  // Pops one complete frame from the input buffer and opens it. Returns
  // false when no complete frame is buffered; *status carries a forgery or
  // a malformed frame.
  bool Pop(Bytes* plaintext, Status* status);
  // Blocking receive of one opened frame, bounded by `timeout_ms`.
  Result<Bytes> ReceiveOne(int timeout_ms);

 private:
  int fd_ = -1;
  std::unique_ptr<shield::net::SessionCrypto> crypto_;
  Bytes in_;
  size_t in_off_ = 0;
  Bytes out_;
};

// One client request of a traced window: from send to verified response.
struct RequestSpan {
  uint64_t id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t key = 0;
  uint64_t version = 0;  // sets: the version written
  uint32_t thread = 0;
  bool get = true;
  bool ok = false;
};

// One slice of a window. Latency samples are sliced by completion time;
// `completed` counts every request answered correctly during the slice,
// whenever it was sent.
struct WindowSlice {
  VerbSamples get;
  VerbSamples set;
  uint64_t completed = 0;
  double seconds = 0;
};

struct WindowResult {
  std::vector<WindowSlice> slices;  // the window cut into ~0.5 s slices
  uint64_t attempted = 0;  // requests sent inside the window
  uint64_t acked = 0;      // ... answered OK with a correct value
  uint64_t transport_failures = 0;
  uint64_t status_failures = 0;
  uint64_t value_failures = 0;
  uint64_t failures_outside = 0;  // any failure during warm-up or drain
  double window_s = 0;
  double max_thread_cpu_ratio = 0;  // generator CPU / wall, busiest thread
  std::vector<RequestSpan> spans;   // only when recording spans
};

// Percentile q of one verb per group of consecutive slices holding at
// least `min_samples` samples, median over the groups; a short remainder
// joins the last group. NaN without samples.
double GroupedPercentile(const std::vector<WindowSlice>& slices, bool get, double q,
                         size_t min_samples);

struct WindowHooks {
  std::function<void()> at_start;  // just before the window opens
  std::function<void()> at_end;    // just after it closes
};

uint64_t NowNs();  // steady clock

class LoadGenerator {
 public:
  LoadGenerator(const WorkloadSpec& spec, uint64_t seed);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  // Opens and attests kSessions load sessions plus one monitor session
  // (stats snapshots and verification reads; idle during windows).
  Status Connect(uint16_t port, const shield::sgx::AttestationAuthority& authority,
                 const shield::sgx::Measurement& measurement);
  // Writes every key at version 0 in batched frames.
  Status Preload();
  // Untimed warm-up, then a `seconds` window; sessions keep their op
  // streams and set logs across calls. A session whose socket fails, or
  // that gets no answer for 5 s, is closed and its requests fail.
  WindowResult Run(double warmup_s, double seconds, bool record_spans, const WindowHooks& hooks);
  // Latency samples of all slices of `w` pooled, per verb.
  static VerbSamples Pooled(const WindowResult& w, bool get);
  // Checks every get against the set logs, then re-reads every key with an
  // acknowledged set and requires a latest acknowledged version (one no
  // other acknowledged write provably followed). Returns the mismatches.
  uint64_t Verify(std::string* first_error);
  Result<shield::obs::MetricsSnapshot> Stats();

 private:
  struct SetRecord {
    uint64_t key = 0;
    uint64_t send_ns = 0;
    uint64_t ack_ns = 0;  // 0 until acknowledged
  };
  struct GetRecord {
    uint64_t key = 0;
    uint64_t version = 0;
  };
  struct Pending {
    uint64_t id = 0;
    uint64_t send_ns = 0;
    uint64_t key = 0;
    uint64_t version = 0;
    bool get = true;
    bool in_window = false;
    bool traced = false;
  };
  struct Session {
    Session(const WorkloadSpec& spec, uint64_t seed, size_t session_index)
        : ops(spec, seed, session_index), index(session_index) {}
    Connection conn;
    OpStream ops;
    size_t index;
    std::deque<Pending> inflight;
    std::vector<SetRecord> sets;  // indexed by set sequence number
    std::vector<GetRecord> gets;  // non-preload versions observed
    uint64_t next_id = 0;
    uint64_t last_progress_ns = 0;
  };
  struct RunState;

  void GeneratorThread(size_t thread, RunState& run);
  Result<std::vector<shield::net::Response>> MonitorBatch(
      const std::vector<shield::net::Request>& ops);

  const WorkloadSpec& spec_;
  std::vector<std::unique_ptr<Session>> sessions_;
  Connection monitor_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LOADGEN_H_
