#include "src/net/reactor.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

namespace shield::net {
namespace {

constexpr size_t kMaxEvents = 128;
constexpr size_t kReadChunk = 64 * 1024;
// Per-session read budget per loop pass; a firehose peer requeues on the
// ready list instead of starving its siblings.
constexpr size_t kMaxReadPerPass = 256 * 1024;
constexpr int kIdleWaitMs = 200;

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Output-buffer bytes a run's responses take once queued (4-byte prefixes).
size_t FramedBytes(const FrameRun& run) {
  size_t bytes = 0;
  for (const Bytes& r : run.responses) {
    bytes += 4 + r.size();
  }
  return bytes;
}

}  // namespace

Reactor::Reactor(const ReactorOptions& options, Handlers handlers)
    : options_(options), handlers_(std::move(handlers)) {
  if (options_.io_threads == 0) {
    options_.io_threads = 1;
  }
  if (options_.coalesce_depth == 0) {
    options_.coalesce_depth = 1;
  }
}

Reactor::~Reactor() { Stop(); }

Status Reactor::Start(int listen_fd) {
  listen_fd_ = listen_fd;
  if (!SetNonBlocking(listen_fd_)) {
    return Status(Code::kInternal, "reactor: cannot make listen fd non-blocking");
  }
  loops_.clear();
  for (size_t i = 0; i < options_.io_threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      return Status(Code::kInternal, "reactor: epoll/eventfd setup failed");
    }
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    loops_.push_back(std::move(loop));
  }
  // The accept loop lives on thread 0.
  struct epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Status(Code::kInternal, "reactor: cannot register listen fd");
  }
  stopping_.store(false, std::memory_order_release);
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->thread = std::thread(&Reactor::LoopMain, this, i);
  }
  started_.store(true, std::memory_order_release);
  return Status::Ok();
}

void Reactor::Stop() {
  if (!started_.exchange(false)) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    Wake(*loop);
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) {
      loop->thread.join();
    }
    if (loop->epoll_fd >= 0) {
      ::close(loop->epoll_fd);
      loop->epoll_fd = -1;
    }
    if (loop->wake_fd >= 0) {
      ::close(loop->wake_fd);
      loop->wake_fd = -1;
    }
  }
}

void Reactor::WakeAll() {
  for (auto& loop : loops_) {
    Wake(*loop);
  }
}

void Reactor::Wake(Loop& loop) {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(loop.wake_fd, &one, sizeof(one));
}

void Reactor::LoopMain(size_t index) {
  Loop& loop = *loops_[index];
  std::vector<struct epoll_event> events(kMaxEvents);
  while (true) {
    const int timeout =
        stopping_.load(std::memory_order_acquire) || !loop.ready.empty() ? 0 : kIdleWaitMs;
    const int n = ::epoll_wait(loop.epoll_fd, events.data(), static_cast<int>(events.size()),
                               timeout);
    const uint64_t pass_start = obs::TimerStart();
    AdoptPending(loop);
    bool woken = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop.wake_fd) {
        uint64_t junk;
        while (::read(loop.wake_fd, &junk, sizeof(junk)) > 0) {
        }
        woken = true;
        continue;
      }
      if (index == 0 && fd == listen_fd_) {
        if (!stopping_.load(std::memory_order_acquire)) {
          HandleAccept(loop);
        }
        continue;
      }
      if (fd >= 0 && static_cast<size_t>(fd) < loop.by_fd.size() &&
          loop.by_fd[fd] != nullptr) {
        HandleSession(loop, loop.by_fd[fd].get(), events[i].events);
      }
    }
    // Serve sessions with buffered work that hit a per-pass fairness cap.
    if (!loop.ready.empty()) {
      std::vector<std::pair<int, uint64_t>> ready;
      ready.swap(loop.ready);
      for (const auto& [fd, id] : ready) {
        if (fd >= 0 && static_cast<size_t>(fd) < loop.by_fd.size() &&
            loop.by_fd[fd] != nullptr && loop.by_fd[fd]->id() == id) {
          ProcessSession(loop, loop.by_fd[fd].get());
        }
      }
    }
    // A watermark publish writes the wake fd AFTER updating what settle
    // reads, so settling once per wake can miss no release.
    if (woken && !loop.holding.empty()) {
      ReleaseHeld(loop);
    }
    if (options_.loop_lag != nullptr && (n > 0 || !loop.ready.empty())) {
      options_.loop_lag->RecordCycles(obs::TimerStart() - pass_start);
    }
    if (stopping_.load(std::memory_order_acquire)) {
      DrainOnStop(loop);
      return;
    }
  }
}

void Reactor::HandleAccept(Loop& loop) {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN, or listen fd shut down
    }
    if (total_sessions_.load(std::memory_order_relaxed) >= options_.max_sessions) {
      ::close(fd);
      if (options_.sessions_rejected != nullptr) {
        options_.sessions_rejected->Inc();
      }
      continue;
    }
    int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    total_sessions_.fetch_add(1, std::memory_order_relaxed);
    const size_t target = next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    if (target == 0) {
      AddSession(loop, fd);
    } else {
      Loop& other = *loops_[target];
      {
        std::lock_guard<std::mutex> lock(other.mu);
        other.pending_adds.push_back(fd);
      }
      Wake(other);
    }
  }
}

void Reactor::AdoptPending(Loop& loop) {
  std::vector<int> adds;
  {
    std::lock_guard<std::mutex> lock(loop.mu);
    adds.swap(loop.pending_adds);
  }
  for (int fd : adds) {
    AddSession(loop, fd);
  }
}

void Reactor::AddSession(Loop& loop, int fd) {
  if (static_cast<size_t>(fd) >= loop.by_fd.size()) {
    loop.by_fd.resize(static_cast<size_t>(fd) + 64);
  }
  auto session = std::make_unique<Session>(
      fd, next_session_id_.fetch_add(1, std::memory_order_relaxed), options_.max_frame_bytes);
  session->epoll_events = EPOLLIN;
  struct epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    total_sessions_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  loop.by_fd[fd] = std::move(session);
  ++loop.live;
  if (options_.sessions_gauge != nullptr) {
    options_.sessions_gauge->Add(1);
  }
  if (options_.sessions_opened != nullptr) {
    options_.sessions_opened->Inc();
  }
}

void Reactor::CloseSession(Loop& loop, Session* s) {
  const int fd = s->fd();
  s->set_state(Session::State::kClosed);
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  loop.by_fd[fd].reset();
  --loop.live;
  total_sessions_.fetch_sub(1, std::memory_order_relaxed);
  if (options_.sessions_gauge != nullptr) {
    options_.sessions_gauge->Add(-1);
  }
}

void Reactor::UpdateInterest(Loop& loop, Session* s) {
  uint32_t want = 0;
  if (!s->read_paused && !s->peer_eof && !s->close_after_flush) {
    want |= EPOLLIN;
  }
  if (s->has_pending_output()) {
    want |= EPOLLOUT;
  }
  if (want != s->epoll_events) {
    struct epoll_event ev = {};
    ev.events = want;
    ev.data.fd = s->fd();
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, s->fd(), &ev);
    s->epoll_events = want;
  }
}

void Reactor::MarkReady(Loop& loop, Session* s) {
  loop.ready.emplace_back(s->fd(), s->id());
}

void Reactor::HandleSession(Loop& loop, Session* s, uint32_t events) {
  if (events & EPOLLOUT) {
    if (!s->Flush()) {
      CloseSession(loop, s);
      return;
    }
    if (s->read_paused && s->pending_output() + s->held_bytes < options_.max_output_bytes / 2) {
      // Below the low watermark: resume reads and serve any frames that were
      // already buffered when backpressure paused this session.
      s->read_paused = false;
      ProcessSession(loop, s);
      if (s->state() == Session::State::kClosed) {
        return;
      }
    }
    if (s->close_after_flush && !s->has_pending_output() && s->held.empty()) {
      CloseSession(loop, s);
      return;
    }
  }
  const bool readable = (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0;
  if (readable && !s->read_paused && !s->peer_eof && !s->close_after_flush &&
      s->state() != Session::State::kClosed) {
    uint8_t buf[kReadChunk];
    size_t read_this_pass = 0;
    while (read_this_pass < kMaxReadPerPass) {
      const ssize_t r = ::recv(s->fd(), buf, sizeof(buf), 0);
      if (r > 0) {
        s->Ingest(buf, static_cast<size_t>(r));
        read_this_pass += static_cast<size_t>(r);
        continue;
      }
      if (r == 0) {
        // Peer half-closed its write side: no more input, but buffered
        // frames must still be answered before we hang up.
        s->peer_eof = true;
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      CloseSession(loop, s);
      return;
    }
    if (read_this_pass >= kMaxReadPerPass && !s->peer_eof) {
      MarkReady(loop, s);  // more socket data may be pending; come back
    }
    ProcessSession(loop, s);
    return;
  }
  if (s->state() != Session::State::kClosed) {
    UpdateInterest(loop, s);
  }
}

void Reactor::ProcessSession(Loop& loop, Session* s) {
  std::vector<Bytes> frames;
  while (!stopping_.load(std::memory_order_acquire) && !s->close_after_flush &&
         !s->read_paused) {
    frames.clear();
    const size_t budget = s->state() == Session::State::kHandshake
                              ? 1
                              : s->coalesce_target(options_.coalesce_depth);
    if (!s->ExtractFrames(budget, frames)) {
      // Oversized length prefix: hostile or corrupt stream. Drop the
      // connection without a response.
      CloseSession(loop, s);
      return;
    }
    if (frames.empty()) {
      break;
    }
    if (s->state() == Session::State::kHandshake) {
      Bytes reply;
      if (!handlers_.on_handshake(*s, frames[0], &reply)) {
        CloseSession(loop, s);
        return;
      }
      s->QueueFrame(reply);
      s->set_state(Session::State::kEstablished);
    } else {
      s->NoteBurst(frames.size(), options_.coalesce_depth);
      if (options_.coalesce_target != nullptr) {
        options_.coalesce_target->Set(
            static_cast<int64_t>(s->coalesce_target(options_.coalesce_depth)));
      }
      FrameRun run;
      handlers_.on_frames(*s, frames, run);
      const bool close_after = run.close_after;
      QueueRun(loop, s, std::move(run));
      if (close_after || s->close_after_flush) {
        s->close_after_flush = true;
        break;
      }
    }
    if (s->pending_output() + s->held_bytes > options_.max_output_bytes) {
      s->read_paused = true;  // backpressure: stop reading until flushed
      break;
    }
    if (s->HasCompleteFrame()) {
      // Fairness: one run per pass; requeue instead of monopolizing the loop.
      MarkReady(loop, s);
      break;
    }
  }
  if (s->peer_eof && !s->close_after_flush && !s->HasCompleteFrame()) {
    s->close_after_flush = true;  // all answerable input served; hang up
  }
  FinishOutput(loop, s);
}

void Reactor::FinishOutput(Loop& loop, Session* s) {
  if (!s->Flush()) {
    CloseSession(loop, s);
    return;
  }
  if (s->close_after_flush && !s->has_pending_output() && s->held.empty()) {
    CloseSession(loop, s);
    return;
  }
  UpdateInterest(loop, s);
}

void Reactor::QueueRun(Loop& loop, Session* s, FrameRun run) {
  if (s->held.empty()) {
    switch (handlers_.settle(run)) {
      case Handlers::Settle::kRelease:
        for (const Bytes& r : run.responses) {
          s->QueueFrame(r);
        }
        return;
      case Handlers::Settle::kFail:
        FailHeld(s);
        return;
      case Handlers::Settle::kHold:
        break;
    }
  }
  s->held_bytes += FramedBytes(run);
  s->held.push_back(std::move(run));
  if (!s->holding_listed) {
    s->holding_listed = true;
    loop.holding.emplace_back(s->fd(), s->id());
  }
}

bool Reactor::SettleHeld(Session* s) {
  bool changed = false;
  while (!s->held.empty()) {
    FrameRun& run = s->held.front();
    const Handlers::Settle verdict = handlers_.settle(run);
    if (verdict == Handlers::Settle::kHold) {
      break;
    }
    changed = true;
    if (verdict == Handlers::Settle::kFail) {
      FailHeld(s);
      break;
    }
    s->held_bytes -= FramedBytes(run);
    for (const Bytes& r : run.responses) {
      s->QueueFrame(r);
    }
    s->held.pop_front();
  }
  return changed;
}

void Reactor::FailHeld(Session* s) {
  // None of the held responses may ever be sent (an OK among them would be
  // an ack for state that is not durable); what was released still flushes.
  s->held.clear();
  s->held_bytes = 0;
  s->close_after_flush = true;
}

void Reactor::ReleaseHeld(Loop& loop) {
  std::vector<std::pair<int, uint64_t>> holding;
  holding.swap(loop.holding);
  for (const auto& [fd, id] : holding) {
    if (fd < 0 || static_cast<size_t>(fd) >= loop.by_fd.size() || loop.by_fd[fd] == nullptr ||
        loop.by_fd[fd]->id() != id) {
      continue;  // closed since it was listed
    }
    Session* s = loop.by_fd[fd].get();
    s->holding_listed = false;
    const bool changed = SettleHeld(s);
    if (!s->held.empty() && !s->holding_listed) {
      s->holding_listed = true;
      loop.holding.emplace_back(fd, id);
    }
    if (!changed) {
      continue;
    }
    if (s->read_paused && !s->close_after_flush &&
        s->pending_output() + s->held_bytes < options_.max_output_bytes / 2) {
      // Below the low watermark: resume reads and serve buffered frames.
      s->read_paused = false;
      ProcessSession(loop, s);
    } else {
      FinishOutput(loop, s);
    }
  }
}

void Reactor::DrainOnStop(Loop& loop) {
  // Close fds that were handed over but never adopted.
  {
    std::lock_guard<std::mutex> lock(loop.mu);
    for (int fd : loop.pending_adds) {
      ::close(fd);
      total_sessions_.fetch_sub(1, std::memory_order_relaxed);
    }
    loop.pending_adds.clear();
  }
  // Best-effort flush of queued responses (drain semantics: an in-flight
  // request whose response was produced before Stop still gets its bytes),
  // and of held ones that turn durable within the budget. Polled: the
  // owner stops sending wakes before Stop.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(options_.stop_drain_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    bool pending = false;
    for (auto& slot : loop.by_fd) {
      if (slot == nullptr) {
        continue;
      }
      SettleHeld(slot.get());
      if (!slot->Flush()) {
        CloseSession(loop, slot.get());
        continue;
      }
      if (slot->has_pending_output() || !slot->held.empty()) {
        pending = true;
      }
    }
    if (!pending) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& slot : loop.by_fd) {
    if (slot != nullptr) {
      CloseSession(loop, slot.get());
    }
  }
}

}  // namespace shield::net
