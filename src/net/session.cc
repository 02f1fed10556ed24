#include "src/net/session.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "src/net/protocol.h"

namespace shield::net {
namespace {

// Compact once the dead prefix dominates the buffer; avoids quadratic
// memmove on byte-at-a-time delivery while bounding memory.
constexpr size_t kCompactThreshold = 64 * 1024;

}  // namespace

Session::Session(int fd, uint64_t id) : fd_(fd), id_(id) {}

void Session::Ingest(const uint8_t* data, size_t len) {
  CompactInput();
  in_.insert(in_.end(), data, data + len);
}

bool Session::HasCompleteFrame() const {
  const size_t avail = in_.size() - in_off_;
  if (avail < 4) {
    return false;
  }
  const uint32_t len = LoadLe32(in_.data() + in_off_);
  if (len > kMaxFrameBytes) {
    return true;  // malformed counts as "actionable": ExtractFrames reports it
  }
  return avail >= 4 + static_cast<size_t>(len);
}

bool Session::ExtractFrames(size_t max_frames, std::vector<ByteSpan>& out) {
  while (out.size() < max_frames) {
    const size_t avail = in_.size() - in_off_;
    if (avail < 4) {
      break;
    }
    const uint32_t len = LoadLe32(in_.data() + in_off_);
    if (len > kMaxFrameBytes) {
      return false;  // oversized frame: drop the connection, never a response
    }
    if (avail < 4 + static_cast<size_t>(len)) {
      break;
    }
    out.emplace_back(in_.data() + in_off_ + 4, len);
    in_off_ += 4 + static_cast<size_t>(len);
  }
  return true;
}

void Session::CompactInput() {
  if (in_off_ == in_.size()) {
    in_.clear();
    in_off_ = 0;
  } else if (in_off_ > kCompactThreshold) {
    in_.erase(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(in_off_));
    in_off_ = 0;
  }
}

void Session::QueueFrame(ByteSpan payload) {
  uint8_t header[4];
  StoreLe32(header, static_cast<uint32_t>(payload.size()));
  out_.insert(out_.end(), header, header + 4);
  out_.insert(out_.end(), payload.begin(), payload.end());
}

void Session::QueueFrames(Bytes& frames) {
  if (out_off_ == out_.size()) {
    out_.swap(frames);
    out_off_ = 0;
  } else {
    out_.insert(out_.end(), frames.begin(), frames.end());
  }
  frames.clear();
}

bool Session::Flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_, MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      CompactOutput();
      return true;  // socket full; EPOLLOUT will resume
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;  // peer gone or fatal error
  }
  CompactOutput();
  return true;
}

void Session::CompactOutput() {
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  } else if (out_off_ > kCompactThreshold) {
    out_.erase(out_.begin(), out_.begin() + static_cast<ptrdiff_t>(out_off_));
    out_off_ = 0;
  }
}

}  // namespace shield::net
