#include "src/net/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace shield::net {
namespace {

void PutString(Bytes& out, std::string_view s) {
  uint8_t len[4];
  StoreLe32(len, static_cast<uint32_t>(s.size()));
  out.insert(out.end(), len, len + 4);
  out.insert(out.end(), s.begin(), s.end());
}

bool TakeString(ByteSpan& in, std::string_view& out) {
  if (in.size() < 4) {
    return false;
  }
  const uint32_t len = LoadLe32(in.data());
  in = in.subspan(4);
  if (in.size() < len) {
    return false;
  }
  out = std::string_view(reinterpret_cast<const char*>(in.data()), len);
  in = in.subspan(len);
  return true;
}

bool TakeString(ByteSpan& in, std::string& out) {
  std::string_view view;
  if (!TakeString(in, view)) {
    return false;
  }
  out.assign(view);
  return true;
}

Status WriteAll(int fd, const uint8_t* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status(Code::kIoError, std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status ReadAll(int fd, uint8_t* data, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = recv(fd, data + got, len - got, 0);
    if (n == 0) {
      return Status(Code::kIoError, "connection closed");
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status(Code::kIoError, std::string("recv: ") + std::strerror(errno));
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

void AppendRequest(Bytes& out, const Request& request) {
  out.push_back(static_cast<uint8_t>(request.op));
  uint8_t delta[8];
  StoreLe64(delta, static_cast<uint64_t>(request.delta));
  out.insert(out.end(), delta, delta + 8);
  PutString(out, request.key);
  PutString(out, request.value);
}

// Consumes one self-delimiting sub-request from the front of `in`. kBatch
// is never a valid sub-op (no nesting), and kStats is a singleton-frame
// verb (a snapshot embedded in a batch reply would dwarf the other sub-op
// responses, so it is rejected at decode time).
Status TakeRequest(ByteSpan& in, RequestView& request, bool in_batch) {
  if (in.size() < 9) {
    return Status(Code::kProtocolError, "request too short");
  }
  const uint8_t op = in[0];
  if (op < 1 || op > static_cast<uint8_t>(OpCode::kTraceDump) ||
      op == static_cast<uint8_t>(OpCode::kBatch)) {
    return Status(Code::kProtocolError, "unknown opcode");
  }
  if (in_batch && (op == static_cast<uint8_t>(OpCode::kStats) ||
                   op == static_cast<uint8_t>(OpCode::kReplicate) ||
                   op == static_cast<uint8_t>(OpCode::kTraceDump))) {
    return Status(Code::kProtocolError, "singleton-only verb inside a batch");
  }
  request.op = static_cast<OpCode>(op);
  request.delta = static_cast<int64_t>(LoadLe64(in.data() + 1));
  in = in.subspan(9);
  if (!TakeString(in, request.key) || !TakeString(in, request.value)) {
    return Status(Code::kProtocolError, "malformed request body");
  }
  if (request.key.size() > kMaxKeyBytes) {
    return Status(Code::kProtocolError, "key too long");
  }
  if (request.value.size() > kMaxValueBytes) {
    return Status(Code::kProtocolError, "value too long");
  }
  return Status::Ok();
}

}  // namespace

Request ToRequest(const RequestView& view) {
  Request request;
  request.op = view.op;
  request.key.assign(view.key);
  request.value.assign(view.value);
  request.delta = view.delta;
  return request;
}

Bytes EncodeRequest(const Request& request) {
  Bytes out;
  out.reserve(1 + 8 + 8 + request.key.size() + request.value.size());
  AppendRequest(out, request);
  return out;
}

Result<Request> DecodeRequest(ByteSpan payload) {
  RequestView view;
  if (Status s = DecodeRequestView(payload, view); !s.ok()) {
    return s;
  }
  return ToRequest(view);
}

Status DecodeRequestView(ByteSpan payload, RequestView& request) {
  if (Status s = TakeRequest(payload, request, /*in_batch=*/false); !s.ok()) {
    return s;
  }
  if (!payload.empty()) {
    return Status(Code::kProtocolError, "malformed request body");
  }
  return Status::Ok();
}

Bytes EncodeResponse(const Response& response) {
  Bytes out;
  out.reserve(1 + 4 + response.value.size());
  AppendResponse(out, response.status, response.value);
  return out;
}

void AppendResponse(Bytes& out, Code status, std::string_view value) {
  out.push_back(static_cast<uint8_t>(status));
  PutString(out, value);
}

Result<Response> DecodeResponse(ByteSpan payload) {
  if (payload.empty()) {
    return Status(Code::kProtocolError, "response too short");
  }
  Response response;
  if (payload[0] > kMaxWireStatus) {
    return Status(Code::kProtocolError, "unknown status code");
  }
  response.status = static_cast<Code>(payload[0]);
  ByteSpan rest = payload.subspan(1);
  if (!TakeString(rest, response.value) || !rest.empty()) {
    return Status(Code::kProtocolError, "malformed response body");
  }
  return response;
}

Bytes EncodeBatchRequest(const std::vector<Request>& ops) {
  Bytes out;
  size_t total = 1 + 4;
  for (const Request& op : ops) {
    total += 1 + 8 + 4 + op.key.size() + 4 + op.value.size();
  }
  out.reserve(total);
  out.push_back(static_cast<uint8_t>(OpCode::kBatch));
  uint8_t count[4];
  StoreLe32(count, static_cast<uint32_t>(ops.size()));
  out.insert(out.end(), count, count + 4);
  for (const Request& op : ops) {
    AppendRequest(out, op);
  }
  return out;
}

Result<std::vector<Request>> DecodeBatchRequest(ByteSpan payload) {
  std::vector<RequestView> views;
  if (Status s = DecodeBatchRequestViews(payload, views); !s.ok()) {
    return s;
  }
  std::vector<Request> ops;
  ops.reserve(views.size());
  for (const RequestView& view : views) {
    ops.push_back(ToRequest(view));
  }
  return ops;
}

Status DecodeBatchRequestViews(ByteSpan payload, std::vector<RequestView>& ops) {
  if (payload.size() < 5 || payload[0] != static_cast<uint8_t>(OpCode::kBatch)) {
    return Status(Code::kProtocolError, "not a batch request");
  }
  if (payload.size() > 5 + kMaxBatchBytes) {
    return Status(Code::kProtocolError, "batch payload too large");
  }
  const uint32_t count = LoadLe32(payload.data() + 1);
  if (count == 0) {
    return Status(Code::kProtocolError, "empty batch");
  }
  if (count > kMaxBatchOps) {
    return Status(Code::kProtocolError, "batch has too many sub-ops");
  }
  ByteSpan rest = payload.subspan(5);
  const size_t first = ops.size();
  // A forged count cannot force an allocation beyond what the actual bytes
  // on the wire could possibly hold (each sub-request is >= 17 bytes).
  ops.reserve(first + std::min<size_t>(count, rest.size() / 17 + 1));
  for (uint32_t i = 0; i < count; ++i) {
    RequestView op;
    if (Status s = TakeRequest(rest, op, /*in_batch=*/true); !s.ok()) {
      ops.resize(first);
      return s;
    }
    ops.push_back(op);
  }
  if (!rest.empty()) {
    ops.resize(first);
    return Status(Code::kProtocolError, "trailing bytes after batch");
  }
  return Status::Ok();
}

Bytes EncodeBatchResponse(const std::vector<Response>& responses) {
  Bytes out;
  size_t total = 1 + 4;
  for (const Response& r : responses) {
    total += 1 + 4 + r.value.size();
  }
  out.reserve(total);
  AppendBatchResponseHeader(out, static_cast<uint32_t>(responses.size()));
  for (const Response& r : responses) {
    AppendResponse(out, r.status, r.value);
  }
  return out;
}

void AppendBatchResponseHeader(Bytes& out, uint32_t count) {
  out.push_back(kBatchResponseMarker);
  uint8_t wire[4];
  StoreLe32(wire, count);
  out.insert(out.end(), wire, wire + 4);
}

Result<std::vector<Response>> DecodeBatchResponse(ByteSpan payload) {
  if (payload.size() < 5 || payload[0] != kBatchResponseMarker) {
    return Status(Code::kProtocolError, "not a batch response");
  }
  const uint32_t count = LoadLe32(payload.data() + 1);
  if (count == 0 || count > kMaxBatchOps) {
    return Status(Code::kProtocolError, "bad batch response count");
  }
  ByteSpan rest = payload.subspan(5);
  std::vector<Response> responses;
  responses.reserve(std::min<size_t>(count, rest.size() / 5 + 1));
  for (uint32_t i = 0; i < count; ++i) {
    if (rest.empty()) {
      return Status(Code::kProtocolError, "truncated batch response");
    }
    Response r;
    if (rest[0] > kMaxWireStatus) {
      return Status(Code::kProtocolError, "unknown status code");
    }
    r.status = static_cast<Code>(rest[0]);
    rest = rest.subspan(1);
    if (!TakeString(rest, r.value)) {
      return Status(Code::kProtocolError, "malformed batch response body");
    }
    responses.push_back(std::move(r));
  }
  if (!rest.empty()) {
    return Status(Code::kProtocolError, "trailing bytes after batch response");
  }
  return responses;
}

Bytes PrependTraceContext(const obs::TraceContext& ctx, ByteSpan inner) {
  Bytes out;
  out.reserve(kTraceExtBytes + inner.size());
  out.push_back(kTraceExtMarker);
  out.push_back(kTraceExtVersion);
  uint8_t wire[obs::kTraceContextWireSize];
  obs::EncodeTraceContext(ctx, wire);
  out.insert(out.end(), wire, wire + sizeof(wire));
  out.insert(out.end(), inner.begin(), inner.end());
  return out;
}

Result<std::pair<obs::TraceContext, ByteSpan>> PeelTraceExtension(ByteSpan payload) {
  if (payload.size() < kTraceExtBytes || payload[0] != kTraceExtMarker) {
    return Status(Code::kProtocolError, "malformed trace extension");
  }
  if (payload[1] != kTraceExtVersion) {
    return Status(Code::kProtocolError, "unsupported trace extension version");
  }
  const obs::TraceContext ctx = obs::DecodeTraceContext(payload.data() + 2);
  return std::make_pair(ctx, payload.subspan(kTraceExtBytes));
}

Status SendFrame(int fd, ByteSpan payload) {
  uint8_t len[4];
  StoreLe32(len, static_cast<uint32_t>(payload.size()));
  if (Status s = WriteAll(fd, len, 4); !s.ok()) {
    return s;
  }
  return WriteAll(fd, payload.data(), payload.size());
}

Result<Bytes> RecvFrame(int fd) {
  uint8_t len_bytes[4];
  if (Status s = ReadAll(fd, len_bytes, 4); !s.ok()) {
    return s;
  }
  const uint32_t len = LoadLe32(len_bytes);
  if (len > kMaxFrameBytes) {
    return Status(Code::kProtocolError, "frame too large");
  }
  Bytes payload(len);
  if (Status s = ReadAll(fd, payload.data(), payload.size()); !s.ok()) {
    return s;
  }
  return payload;
}

}  // namespace shield::net
