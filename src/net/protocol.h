// Wire protocol: length-prefixed frames over TCP carrying serialized
// requests/responses (§3.2's operation set, including the server-side
// computations append and increment).
#ifndef SHIELDSTORE_SRC_NET_PROTOCOL_H_
#define SHIELDSTORE_SRC_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/obs/tracer.h"

namespace shield::net {

// Decode-time bounds (fuzz hardening): a forged length field must yield a
// typed kProtocolError, never an attacker-sized allocation or a trusted
// out-of-range enum value.
inline constexpr size_t kMaxKeyBytes = 64u << 10;
inline constexpr size_t kMaxValueBytes = 16u << 20;
// Batch frame bounds: sub-op count and aggregate payload caps, checked
// before any per-op allocation.
inline constexpr size_t kMaxBatchOps = 1024;
inline constexpr size_t kMaxBatchBytes = 32u << 20;

enum class OpCode : uint8_t {
  kGet = 1,
  kSet = 2,
  kDelete = 3,
  kAppend = 4,
  kIncrement = 5,
  kPing = 6,
  // N self-delimiting sub-requests in one frame; one session Seal/Open and
  // one enclave submission amortize over all of them. Never nested.
  kBatch = 7,
  // Observability: the response value carries a versioned metrics snapshot
  // frame (src/obs/snapshot.h). Singleton frames only — rejected inside a
  // kBatch at decode time.
  kStats = 8,
  // Replication: the request value carries a replication payload
  // (src/net/replication.h) — committed WAL entries streamed from a primary's
  // group-commit committers to its warm standby, plus the bootstrap/promote
  // control messages. Singleton frames only — rejected inside a kBatch.
  kReplicate = 9,
  // Observability: drains the server's central span buffer; the response
  // value carries a versioned trace dump (src/obs/tracer.h). Singleton
  // frames only — rejected inside a kBatch.
  kTraceDump = 10,
};

struct Request {
  OpCode op = OpCode::kPing;
  std::string key;
  std::string value;   // set/append payload
  int64_t delta = 0;   // increment amount
};

struct Response {
  Code status = Code::kOk;
  std::string value;  // get result / increment result (decimal)
};

// A decoded request that views the payload it came from (the server
// decodes opened records this way, copying nothing); valid while the
// payload is.
struct RequestView {
  OpCode op = OpCode::kPing;
  std::string_view key;
  std::string_view value;
  int64_t delta = 0;
};

// Copies a view out into an owning Request.
Request ToRequest(const RequestView& view);

Bytes EncodeRequest(const Request& request);
Status DecodeRequestView(ByteSpan payload, RequestView& request);
Bytes EncodeResponse(const Response& response);
Result<Response> DecodeResponse(ByteSpan payload);
// Appends the bytes EncodeResponse would return for (status, value).
void AppendResponse(Bytes& out, Code status, std::string_view value);

// --- batched frames (kBatch) ---
//
// Request: [u8 kBatch][u32 count][count x sub-request], each sub-request in
// the single-request encoding (self-delimiting; kBatch itself is rejected
// inside a batch). Response: [u8 kBatchResponseMarker][u32 count]
// [count x (u8 status, str value)]. The marker byte is outside the valid
// single-response status range, so a receiver can always tell a batch reply
// from a single typed error (e.g. the server's sealed kProtocolError for an
// unauthentic record).
inline constexpr uint8_t kBatchResponseMarker = 0xBA;

inline bool IsBatchRequest(ByteSpan payload) {
  return !payload.empty() && payload[0] == static_cast<uint8_t>(OpCode::kBatch);
}
inline bool IsBatchResponse(ByteSpan payload) {
  return !payload.empty() && payload[0] == kBatchResponseMarker;
}

Bytes EncodeBatchRequest(const std::vector<Request>& ops);
// Appends the batch's sub-requests to `ops`; on an error `ops` is left as
// it was.
Status DecodeBatchRequestViews(ByteSpan payload, std::vector<RequestView>& ops);
Bytes EncodeBatchResponse(const std::vector<Response>& responses);
// Appends a batch-response header for `count` responses; each response then
// follows as AppendResponse bytes.
void AppendBatchResponseHeader(Bytes& out, uint32_t count);
Result<std::vector<Response>> DecodeBatchResponse(ByteSpan payload);

// --- trace-context frame extension ---
//
// A versioned prefix that may precede any sealed request plaintext (single
// or batch): [u8 0xC7][u8 version=1][16-byte trace context]. 0xC7 is
// outside the opcode range and outside the batch marker, so a receiver can
// always distinguish an extended frame from a bare request. A Client
// attaches it exactly when a sampled operation is in flight on the sending
// thread (obs::CurrentTrace().active()), and the server accepts it on any
// session; the extension never changes response bytes. Unknown future
// versions are a typed decode error, not a crash.
inline constexpr uint8_t kTraceExtMarker = 0xC7;
inline constexpr uint8_t kTraceExtVersion = 1;
inline constexpr size_t kTraceExtBytes = 2 + obs::kTraceContextWireSize;

inline bool HasTraceExtension(ByteSpan payload) {
  return !payload.empty() && payload[0] == kTraceExtMarker;
}

// Prepends the extension to an encoded request payload.
Bytes PrependTraceContext(const obs::TraceContext& ctx, ByteSpan inner);

// Splits an extended payload into (context, inner request bytes). Call only
// when HasTraceExtension(); malformed or unknown-version extensions return
// kProtocolError.
Result<std::pair<obs::TraceContext, ByteSpan>> PeelTraceExtension(ByteSpan payload);

// Longest frame payload either side accepts; a longer length prefix is a
// malformed stream.
inline constexpr size_t kMaxFrameBytes = 64u << 20;

// Blocking length-prefixed framing over a socket. A frame is
// [u32 little-endian length][payload]. Recv returns kIoError on EOF.
Status SendFrame(int fd, ByteSpan payload);
Result<Bytes> RecvFrame(int fd);

}  // namespace shield::net

#endif  // SHIELDSTORE_SRC_NET_PROTOCOL_H_
