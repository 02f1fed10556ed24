#include "src/net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstring>
#include <thread>

namespace shield::net {
namespace {

// SO_SNDTIMEO: a server that stops reading fails a send with kIoError.
constexpr int kSendTimeoutMs = 5000;

timeval ToTimeval(int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
  return tv;
}

// Static span names: the tracer stores the pointer, not a copy.
const char* VerbSpanName(OpCode op) {
  switch (op) {
    case OpCode::kGet: return "client.get";
    case OpCode::kSet: return "client.set";
    case OpCode::kDelete: return "client.delete";
    case OpCode::kAppend: return "client.append";
    case OpCode::kIncrement: return "client.increment";
    case OpCode::kPing: return "client.ping";
    case OpCode::kBatch: return "client.batch";
    case OpCode::kStats: return "client.stats";
    case OpCode::kReplicate: return "client.replicate";
    case OpCode::kTraceDump: return "client.tracedump";
  }
  return "client.op";
}

}  // namespace

Client::Client(const sgx::AttestationAuthority& authority, const sgx::Measurement& expected,
               bool encrypt, const ClientOptions& options)
    : authority_(authority), expected_(expected), encrypt_(encrypt), options_(options) {}

Client::~Client() {
  Close();
}

Status Client::ConnectSocket(uint16_t port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status(Code::kIoError, "socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  // Non-blocking connect + poll: a plain connect() to a dropping host can
  // block for minutes; the caller asked for connect_timeout_ms.
  const int flags = fcntl(fd_, F_GETFL, 0);
  fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      Close();
      return Status(Code::kIoError, std::string("connect: ") + std::strerror(errno));
    }
    pollfd pfd{fd_, POLLOUT, 0};
    const int ready = poll(&pfd, 1, options_.connect_timeout_ms);
    if (ready <= 0) {
      Close();
      return Status(Code::kIoError, ready == 0 ? "connect timed out" : "poll() failed");
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      Close();
      return Status(Code::kIoError, std::string("connect: ") + std::strerror(err));
    }
  }
  fcntl(fd_, F_SETFL, flags);

  // From here all socket I/O (handshake included) is bounded by timeouts: a
  // server that accepts and then hangs yields kIoError, not a stuck client.
  const timeval rcv = ToTimeval(options_.recv_timeout_ms);
  const timeval snd = ToTimeval(kSendTimeoutMs);
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &rcv, sizeof(rcv));
  setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &snd, sizeof(snd));
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::Ok();
}

Status Client::Connect(uint16_t port) {
  port_ = port;
  const int attempts = std::max(options_.connect_attempts, 1);
  int backoff_ms = options_.connect_backoff_ms;
  Status last;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0 && backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
    Close();
    last = ConnectSocket(port);
    if (!last.ok()) {
      continue;
    }
    Result<Bytes> keys = ClientHandshake(fd_, authority_, expected_);
    if (keys.ok()) {
      session_ = std::make_unique<SessionCrypto>(*keys, /*is_client=*/true, encrypt_);
      return Status::Ok();
    }
    last = keys.status();
    Close();
    if (last.code() != Code::kIoError) {
      // Attestation / protocol rejection: retrying cannot help, and hides
      // a possibly-impersonated server behind "transient failure".
      return last;
    }
  }
  return last;
}

void Client::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  session_.reset();
}

Status Client::Reconnect(uint16_t port) {
  if (port == 0) {
    port = port_;
  }
  if (port == 0) {
    return Status(Code::kInvalidArgument, "never connected and no port given");
  }
  Close();  // stale socket AND stale session keys
  // Connect() owns the fresh retry/backoff budget and the new key exchange.
  return Connect(port);
}

Status Client::SendPlaintext(Bytes plaintext) {
  if (!connected()) {
    return Status(Code::kIoError, "not connected");
  }
  // A sampled operation carries its trace context; any other frame is sent
  // bare, byte for byte as it was encoded.
  if (const obs::TraceContext ctx = obs::CurrentTrace(); ctx.active()) {
    plaintext = PrependTraceContext(ctx, plaintext);
  }
  return SendFrame(fd_, session_->Seal(plaintext));
}

Status Client::SendRequest(const Request& request) {
  return SendPlaintext(EncodeRequest(request));
}

Result<Response> Client::ReceiveResponse() {
  if (!connected()) {
    return Status(Code::kIoError, "not connected");
  }
  Result<Bytes> record = RecvFrame(fd_);
  if (!record.ok()) {
    return record.status();
  }
  Result<Bytes> plaintext = session_->Open(*record);
  if (!plaintext.ok()) {
    return plaintext.status();
  }
  return DecodeResponse(*plaintext);
}

Result<Response> Client::Execute(const Request& request) {
  obs::TraceScope span(VerbSpanName(request.op));
  if (Status s = SendRequest(request); !s.ok()) {
    return s;
  }
  return ReceiveResponse();
}

Result<std::vector<Response>> Client::ExecuteBatch(const std::vector<Request>& ops) {
  if (!connected()) {
    return Status(Code::kIoError, "not connected");
  }
  if (ops.empty()) {
    return Status(Code::kProtocolError, "empty batch");
  }
  if (ops.size() > kMaxBatchOps) {
    return Status(Code::kProtocolError, "batch has too many sub-ops");
  }
  obs::TraceScope span("client.batch");
  if (Status s = SendPlaintext(EncodeBatchRequest(ops)); !s.ok()) {
    return s;
  }
  Result<Bytes> record = RecvFrame(fd_);
  if (!record.ok()) {
    return record.status();
  }
  Result<Bytes> plaintext = session_->Open(*record);
  if (!plaintext.ok()) {
    return plaintext.status();
  }
  if (!IsBatchResponse(*plaintext)) {
    // The server rejected the whole frame (e.g. a decode failure inside the
    // enclave) and answered with a single typed response instead.
    Result<Response> single = DecodeResponse(*plaintext);
    if (!single.ok()) {
      return single.status();
    }
    return Status(single->status, "server rejected batch");
  }
  Result<std::vector<Response>> responses = DecodeBatchResponse(*plaintext);
  if (!responses.ok()) {
    return responses.status();
  }
  if (responses->size() != ops.size()) {
    return Status(Code::kProtocolError, "batch response count mismatch");
  }
  return responses;
}

Result<obs::MetricsSnapshot> Client::Stats() {
  Request request;
  request.op = OpCode::kStats;
  Result<Response> response = Execute(request);
  if (!response.ok()) {
    return response.status();
  }
  if (response->status != Code::kOk) {
    return Status(response->status, "stats request rejected");
  }
  return obs::DecodeStatsSnapshot(AsBytes(response->value));
}

Result<std::vector<obs::SpanRecord>> Client::TraceDump() {
  Request request;
  request.op = OpCode::kTraceDump;
  Result<Response> response = Execute(request);
  if (!response.ok()) {
    return response.status();
  }
  if (response->status != Code::kOk) {
    return Status(response->status, "trace dump rejected");
  }
  return obs::DecodeTraceDump(AsBytes(response->value));
}

Result<std::vector<Response>> Client::MGet(const std::vector<std::string>& keys) {
  std::vector<Request> ops;
  ops.reserve(keys.size());
  for (const std::string& key : keys) {
    Request request;
    request.op = OpCode::kGet;
    request.key = key;
    ops.push_back(std::move(request));
  }
  return ExecuteBatch(ops);
}

Status Client::MSet(const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::vector<Request> ops;
  ops.reserve(pairs.size());
  for (const auto& [key, value] : pairs) {
    Request request;
    request.op = OpCode::kSet;
    request.key = key;
    request.value = value;
    ops.push_back(std::move(request));
  }
  Result<std::vector<Response>> responses = ExecuteBatch(ops);
  if (!responses.ok()) {
    return responses.status();
  }
  for (const Response& r : *responses) {
    if (r.status != Code::kOk) {
      return Status(r.status);
    }
  }
  return Status::Ok();
}

Result<Response> Client::ExecuteRetrying(const Request& request) {
  Result<Response> response = Execute(request);
  for (int retry = 0; retry < options_.recovering_retries; ++retry) {
    if (!response.ok() || response->status != Code::kPartitionRecovering) {
      break;
    }
    // The partition is healing; the server rejected the operation before
    // applying anything, so a blind retry cannot double-apply.
    if (options_.recovering_backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.recovering_backoff_ms));
    }
    response = Execute(request);
  }
  return response;
}

Status Client::Set(std::string_view key, std::string_view value) {
  Request request;
  request.op = OpCode::kSet;
  request.key = key;
  request.value = value;
  Result<Response> response = ExecuteRetrying(request);
  if (!response.ok()) {
    return response.status();
  }
  return Status(response->status);
}

Result<std::string> Client::Get(std::string_view key) {
  Request request;
  request.op = OpCode::kGet;
  request.key = key;
  Result<Response> response = ExecuteRetrying(request);
  if (!response.ok()) {
    return response.status();
  }
  if (response->status != Code::kOk) {
    return Status(response->status, "server error");
  }
  return std::move(response->value);
}

Status Client::Delete(std::string_view key) {
  Request request;
  request.op = OpCode::kDelete;
  request.key = key;
  Result<Response> response = ExecuteRetrying(request);
  if (!response.ok()) {
    return response.status();
  }
  return Status(response->status);
}

Status Client::Append(std::string_view key, std::string_view suffix) {
  Request request;
  request.op = OpCode::kAppend;
  request.key = key;
  request.value = suffix;
  Result<Response> response = ExecuteRetrying(request);
  if (!response.ok()) {
    return response.status();
  }
  return Status(response->status);
}

Result<int64_t> Client::Increment(std::string_view key, int64_t delta) {
  Request request;
  request.op = OpCode::kIncrement;
  request.key = key;
  request.delta = delta;
  Result<Response> response = ExecuteRetrying(request);
  if (!response.ok()) {
    return response.status();
  }
  if (response->status != Code::kOk) {
    return Status(response->status, "server error");
  }
  int64_t value = 0;
  const std::string& s = response->value;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status(Code::kProtocolError, "bad increment response");
  }
  return value;
}

}  // namespace shield::net
