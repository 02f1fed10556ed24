// Lightweight status / result types used across the library.
//
// The library does not throw for expected runtime conditions (key not found,
// integrity failure, rollback detected, ...); operations return a Status or a
// Result<T>. Exceptions are reserved for programming errors during setup.
#ifndef SHIELDSTORE_SRC_COMMON_STATUS_H_
#define SHIELDSTORE_SRC_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace shield {

enum class Code {
  kOk = 0,
  kNotFound,          // key does not exist
  kAlreadyExists,     // insert of a duplicate key
  kIntegrityFailure,  // MAC / MAC-hash mismatch: untrusted memory was tampered
  kRollbackDetected,  // sealed snapshot is older than the monotonic counter
  kInvalidArgument,
  kCapacityExceeded,  // allocator / store out of room
  kUnsupported,       // operation not available in this configuration
  kIoError,           // file or socket failure
  kProtocolError,     // malformed or unauthenticated network message
  kInternal,
  kPartitionRecovering,  // key's partition is quarantined and healing; retry
  kUnsupportedUnderWal,  // retired (no producer); keeps its wire status byte
  kFailingOver,          // node is mid-failover; the operation was not applied
};

// Highest Code value that may appear in a wire status byte. Decoders reject
// anything above this instead of casting it into the trusted enum.
inline constexpr uint8_t kMaxWireStatus = static_cast<uint8_t>(Code::kFailingOver);

// Human-readable name of a status code ("OK", "NOT_FOUND", ...).
std::string_view CodeName(Code code);

// A status code plus an optional detail message.
class Status {
 public:
  Status() : code_(Code::kOk) {}
  explicit Status(Code code) : code_(code) {}
  Status(Code code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  // "NOT_FOUND: no such key" style rendering for logs and errors.
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  Code code_;
  std::string message_;
};

// A value or a non-OK status. Minimal stand-in for std::expected (C++23).
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT: implicit by design
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }
  Result(Code code) : status_(code) {}  // NOLINT: implicit by design

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace shield

#endif  // SHIELDSTORE_SRC_COMMON_STATUS_H_
