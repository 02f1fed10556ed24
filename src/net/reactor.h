// Epoll reactor: a small pool of untrusted I/O threads multiplexing
// thousands of non-blocking sessions. Each session is owned by exactly one
// loop thread (accepted sockets are assigned round-robin), so session state
// needs no locks; cross-thread handoff happens through a mutex-protected
// pending-add queue woken by an eventfd.
//
// The reactor knows nothing about the enclave or the wire protocol beyond
// the 4-byte length prefix: protocol work is delegated to the two handlers.
// `on_handshake` consumes the first complete frame of a session and either
// installs the session keys (returning the reply payload) or rejects the
// connection. `on_frames` consumes a run of complete sealed records in
// arrival order and returns the sealed responses in the same order — the
// server coalesces adjacent singleton requests into one enclave submission
// there (implicit batching).
//
// Durable acks: a run may come back with a durability requirement. Its
// responses are then held in the session's FIFO (behind any earlier held
// run) and move to the output buffer only when `settle` releases them. The
// owner calls WakeAll() whenever a durable watermark advances; each woken
// loop settles only its own holding sessions. No loop thread ever blocks on
// durability.
//
// Fairness and backpressure: each session is served at most one frame run
// (every complete frame already buffered, up to coalesce_depth) and ~256 KiB
// of socket reads per loop pass; sessions with more buffered work requeue on
// a ready list instead of starving their siblings. Responses accumulate in
// a bounded per-session output buffer; past 8 MiB (held responses count
// toward it) the session's reads pause until output drains below half that.
#ifndef SHIELDSTORE_SRC_NET_REACTOR_H_
#define SHIELDSTORE_SRC_NET_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/net/session.h"
#include "src/obs/metrics.h"

namespace shield::net {

struct ReactorOptions {
  size_t io_threads = 4;
  size_t max_sessions = 16384;     // accepts past this are closed immediately
  size_t coalesce_depth = 64;      // max complete frames per on_frames run

  // Optional instrumentation (may be null).
  obs::Gauge* sessions_gauge = nullptr;      // live sessions
  obs::Counter* sessions_opened = nullptr;   // lifetime accepts
  obs::Counter* sessions_rejected = nullptr; // closed at accept (max_sessions)
  obs::Histogram* loop_lag = nullptr;        // ns per loop handling pass
};

class Reactor {
 public:
  struct Handlers {
    // Complete client-hello payload -> sealed-channel setup. On success the
    // handler installs the session crypto and fills `reply` (sent framed);
    // returning false drops the connection without a reply.
    std::function<bool(Session&, ByteSpan hello, Bytes* reply)> on_handshake;

    // A run of complete sealed records in arrival order. Fills `run` with
    // the sealed responses in order, their durability requirement, and
    // close_after when the session must be dropped once they flush.
    std::function<void(Session&, std::vector<Bytes>& records, FrameRun& run)> on_frames;

    // Decides whether a run's responses may be sent now. kFail means they
    // never may: the session is closed once what was already released has
    // flushed, and no later response is sent.
    enum class Settle : uint8_t { kRelease, kHold, kFail };
    std::function<Settle(FrameRun&)> settle;
  };

  Reactor(const ReactorOptions& options, Handlers handlers);
  ~Reactor();

  // Takes ownership of serving on `listen_fd` (made non-blocking; not
  // closed — the caller keeps ownership of the fd itself) and starts the
  // I/O threads.
  Status Start(int listen_fd);

  // Stops accepting, flushes pending output best-effort for up to 2 s,
  // closes all sessions, and joins the I/O threads.
  // Idempotent.
  void Stop();

  size_t live_sessions() const { return total_sessions_.load(std::memory_order_relaxed); }

  // Wakes every loop to settle its held runs. Thread-safe; valid between
  // Start() and Stop().
  void WakeAll();

 private:
  struct Loop {
    int epoll_fd = -1;
    int wake_fd = -1;
    std::thread thread;
    std::mutex mu;                  // guards pending_adds only
    std::vector<int> pending_adds;  // fds handed over from the accept loop
    std::vector<std::unique_ptr<Session>> by_fd;  // indexed by fd
    std::vector<std::pair<int, uint64_t>> ready;  // (fd, session id) with buffered work
    std::vector<std::pair<int, uint64_t>> holding;  // (fd, session id) with held runs
    size_t live = 0;
  };

  void LoopMain(size_t index);
  void HandleAccept(Loop& loop);
  void AdoptPending(Loop& loop);
  void AddSession(Loop& loop, int fd);
  void HandleSession(Loop& loop, Session* s, uint32_t events);
  // Extracts and serves buffered frames, flushes, and updates epoll
  // interest; may close the session.
  void ProcessSession(Loop& loop, Session* s);
  // Flushes, then closes a finished session or re-arms its epoll interest.
  void FinishOutput(Loop& loop, Session* s);
  void CloseSession(Loop& loop, Session* s);
  // Sends `run` now if nothing is held and settle allows, else holds it.
  void QueueRun(Loop& loop, Session* s, FrameRun run);
  // Releases the session's held runs front to back until one must keep
  // waiting; true if anything was released or failed.
  bool SettleHeld(Session* s);
  void FailHeld(Session* s);
  void ReleaseHeld(Loop& loop);
  void UpdateInterest(Loop& loop, Session* s);
  void MarkReady(Loop& loop, Session* s);
  void DrainOnStop(Loop& loop);
  void Wake(Loop& loop);

  ReactorOptions options_;
  Handlers handlers_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<size_t> total_sessions_{0};
  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<size_t> next_loop_{0};
  std::vector<std::unique_ptr<Loop>> loops_;
};

}  // namespace shield::net

#endif  // SHIELDSTORE_SRC_NET_REACTOR_H_
