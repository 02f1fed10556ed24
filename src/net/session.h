// Per-connection state for the epoll reactor: a non-blocking socket, an
// incremental frame parser (a frame may arrive across many read()s), a
// bounded output buffer flushed by EPOLLOUT, a FIFO of response runs held
// until the state they reveal is durable, and the session crypto once the
// attestation handshake completes. A Session is owned by exactly one reactor
// I/O thread; no internal locking.
#ifndef SHIELDSTORE_SRC_NET_SESSION_H_
#define SHIELDSTORE_SRC_NET_SESSION_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/kv/interface.h"
#include "src/net/channel.h"

namespace shield::net {

// The outcome of serving one run of frames: the sealed responses in frame
// order, and what must be durable before any of them may be sent.
struct FrameRun {
  std::vector<Bytes> responses;
  // Empty: nothing pending. Otherwise the run is held — together with every
  // later run of its session, since send sequence numbers fix the order —
  // until the store's durable watermarks pass it.
  kv::DurabilityRequirement requirement;
  bool close_after = false;  // drop the session once these responses flush
  // Server bookkeeping for a durable store, consumed at release: when the
  // run executed, and each response's verb and start stamp (cycles), so
  // latency histograms include the hold.
  uint64_t executed_at = 0;
  std::vector<std::pair<uint8_t, uint64_t>> stamps;
};

class Session {
 public:
  enum class State : uint8_t {
    kHandshake,    // waiting for the complete client-hello frame
    kEstablished,  // session keys installed, serving requests
    kClosed,       // torn down (fd already closed by the reactor)
  };

  Session(int fd, uint64_t id, size_t max_frame_bytes);
  ~Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  int fd() const { return fd_; }
  uint64_t id() const { return id_; }
  State state() const { return state_; }
  void set_state(State s) { state_ = s; }

  // Installs the derived session keys after a successful handshake.
  void InstallCrypto(ByteSpan key_material, bool encrypt) {
    crypto_ = std::make_unique<SessionCrypto>(key_material, /*is_client=*/false, encrypt);
  }
  SessionCrypto* crypto() { return crypto_.get(); }

  // --- input side -----------------------------------------------------
  // Appends raw bytes read from the socket to the parse buffer.
  void Ingest(const uint8_t* data, size_t len);

  // Extracts up to `max_frames` complete frames (payloads, length prefix
  // stripped) from the parse buffer, in arrival order. Returns false if the
  // stream is malformed (frame longer than the configured cap) — the caller
  // must close the session without a response.
  bool ExtractFrames(size_t max_frames, std::vector<Bytes>& out);

  // True if at least one complete frame is already buffered.
  bool HasCompleteFrame() const;

  // Bytes buffered but not yet forming a complete frame boundary decision.
  size_t buffered_input() const { return in_.size() - in_off_; }

  // --- output side ----------------------------------------------------
  // Queues `payload` as a length-prefixed frame for transmission.
  void QueueFrame(ByteSpan payload);
  bool has_pending_output() const { return out_off_ < out_.size(); }
  size_t pending_output() const { return out_.size() - out_off_; }

  // Writes as much pending output as the socket accepts. Returns false on a
  // fatal socket error (the session must be closed); true otherwise (either
  // drained or would-block).
  bool Flush();

  // --- adaptive coalescing --------------------------------------------
  // Per-session implicit-batch budget. Starts at the configured maximum (a
  // fresh pipelined burst coalesces fully from frame one) and follows the
  // observed burst-size EWMA: a session extracting full runs doubles back
  // toward the max, a request/response session shrinks toward 1 so the
  // reactor stops over-scanning its parse buffer. Responses are identical
  // either way — only the enclave-submission grouping changes.
  size_t coalesce_target(size_t max) {
    if (coalesce_target_ == 0 || coalesce_target_ > max) {
      coalesce_target_ = max;
    }
    return coalesce_target_;
  }
  void NoteBurst(size_t n, size_t max) {
    burst_ewma_ = burst_ewma_ == 0.0
                      ? static_cast<double>(n)
                      : 0.75 * burst_ewma_ + 0.25 * static_cast<double>(n);
    if (n >= coalesce_target_) {
      coalesce_target_ = coalesce_target_ * 2 > max ? max : coalesce_target_ * 2;
    } else {
      size_t want = static_cast<size_t>(burst_ewma_ * 2.0) + 1;
      if (want > max) want = max;
      coalesce_target_ = want;
    }
  }

  // The peer half-closed its write side (read() returned 0): no more input
  // will ever arrive, but buffered frames must still be answered.
  bool peer_eof = false;
  // Close the connection once pending output has been flushed (post-error
  // drop or half-closed peer).
  bool close_after_flush = false;
  // Reads are paused because pending output (queued plus held) exceeded
  // the backpressure bound.
  bool read_paused = false;
  // Runs waiting for durability, oldest first, and their framed size.
  std::deque<FrameRun> held;
  size_t held_bytes = 0;
  // Listed on the loop's holding list (see Reactor::ReleaseHeld).
  bool holding_listed = false;
  // Current epoll interest mask, maintained by the reactor.
  uint32_t epoll_events = 0;

 private:
  int fd_;
  uint64_t id_;
  size_t max_frame_bytes_;
  State state_ = State::kHandshake;
  std::unique_ptr<SessionCrypto> crypto_;

  // Parse buffer with a consumed-prefix offset so per-frame extraction does
  // not memmove; compacted opportunistically.
  Bytes in_;
  size_t in_off_ = 0;

  // Output buffer with a flushed-prefix offset.
  Bytes out_;
  size_t out_off_ = 0;

  // Adaptive coalescing state (see coalesce_target/NoteBurst).
  size_t coalesce_target_ = 0;  // 0 = uninitialised; clamped to max on first use
  double burst_ewma_ = 0.0;

  void CompactInput();
  void CompactOutput();
};

}  // namespace shield::net

#endif  // SHIELDSTORE_SRC_NET_SESSION_H_
