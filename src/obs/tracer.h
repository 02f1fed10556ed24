// Cross-node request tracing: a 16-byte wire trace context propagated
// through the frame-header extension (src/net/protocol.h), spans recorded
// into per-thread lock-free rings, drained by the maintenance thread into a
// bounded central buffer, and exported over the kTraceDump verb as Chrome
// trace_event JSON.
//
// Recording discipline mirrors metrics.h: every hot-path call is a handful
// of relaxed atomics on thread-owned state, and building with
// -DSHIELD_METRICS=OFF (SHIELD_OBS_NOOP) compiles recording to nothing.
// Span names MUST be string literals (or otherwise outlive the process):
// the ring stores the pointer, not a copy; the wire codec copies.
#ifndef SHIELDSTORE_SRC_OBS_TRACER_H_
#define SHIELDSTORE_SRC_OBS_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"

namespace shield::obs {

// --- trace context (what travels on the wire) --------------------------
//
// 16 bytes: [u64 trace_id LE][7-byte span_id LE][u8 flags], flags bit 0 =
// sampled. Span ids are 56-bit so the context packs into exactly 16 bytes.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  // the sender's current span: the receiver's parent
  bool sampled = false;

  bool active() const { return sampled && trace_id != 0; }
};

inline constexpr size_t kTraceContextWireSize = 16;
inline constexpr uint64_t kSpanIdMask = (uint64_t{1} << 56) - 1;

void EncodeTraceContext(const TraceContext& ctx, uint8_t out[kTraceContextWireSize]);
TraceContext DecodeTraceContext(const uint8_t in[kTraceContextWireSize]);

// --- spans -------------------------------------------------------------

// In-process span record. `name` is a borrowed static string (see header
// comment); everything else is by value.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span = 0;
  uint64_t start_unix_ns = 0;
  uint64_t duration_ns = 0;
  uint32_t tid = 0;
  const char* name = nullptr;
};

// Decoded wire span (kTraceDump): owns its name; `pid` is assigned by the
// merger (0 = the local client process, 1..N = cluster nodes).
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span = 0;
  uint64_t start_unix_ns = 0;
  uint64_t duration_ns = 0;
  uint32_t tid = 0;
  uint32_t pid = 0;
  std::string name;
};

// --- thread-local context & sampling -----------------------------------

// The innermost trace context bound to this thread (zero / unsampled when
// no traced operation is in flight).
TraceContext CurrentTrace();

// Root-op sampling: true every Nth call per thread, where N is the global
// sample-every knob (0 disables sampling entirely, 1 samples everything).
// Default 256 — the paper-budget 1/256 that keeps tracing always-on cheap.
void TraceSetSampleEvery(uint32_t every);
bool SampleRoot();

uint64_t NewTraceId();
uint64_t NewSpanId();

// RAII span. The adopting form binds `parent` (a wire context or a sampled
// root) as the thread's current trace for the scope; the plain form is a
// child of whatever is already bound. Both are inert — no clock reads, no
// ring writes — unless the governing context is sampled.
class TraceScope {
 public:
  explicit TraceScope(const char* name);
  TraceScope(const char* name, const TraceContext& parent);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  bool active() const { return active_; }

 private:
#if SHIELD_OBS_ENABLED
  void Begin(const char* name, const TraceContext& parent);
  TraceContext saved_;
  uint64_t parent_span_ = 0;
  uint64_t start_ns_ = 0;
  const char* name_ = nullptr;
#endif
  bool active_ = false;
};

// RAII sampled root: consults SampleRoot() and, when it fires, starts a new
// trace (fresh trace id, this scope as the root span). Everything nested —
// TraceScope children, the client's frame extension, downstream nodes —
// keys off the context this installs.
class TraceRoot {
 public:
  explicit TraceRoot(const char* name);
  ~TraceRoot() = default;
  TraceRoot(const TraceRoot&) = delete;
  TraceRoot& operator=(const TraceRoot&) = delete;

  bool sampled() const { return scope_.active(); }
  uint64_t trace_id() const { return trace_id_; }

 private:
  uint64_t trace_id_ = 0;
  TraceScope scope_;
};

// --- collection --------------------------------------------------------

// Folds every thread ring into the central buffer (called by the server's
// maintenance thread and before every kTraceDump export). Returns the
// number of spans moved. Ring overflow between drains drops the newest
// spans and bumps the `trace.dropped` counter.
size_t TraceDrain();

// Destructively consumes up to `max` spans from the central buffer, oldest
// first.
std::vector<Span> TraceConsume(size_t max = 16384);

// --- kTraceDump wire codec ---------------------------------------------
//
// [u32 magic][u32 version][u32 count] then per span:
// [u64 trace_id][u64 span_id][u64 parent][u64 start_ns][u64 dur_ns]
// [u32 tid][u8 name_len][name bytes]. Decode is fully bounds-checked and
// returns a typed kProtocolError on any malformed input.
inline constexpr uint32_t kTraceDumpMagic = 0x31445453;  // "STD1" little-endian
inline constexpr uint32_t kTraceDumpVersion = 1;
inline constexpr size_t kMaxTraceDumpSpans = 65536;
inline constexpr size_t kMaxSpanNameBytes = 64;

Bytes EncodeTraceDump(const std::vector<Span>& spans);
Result<std::vector<SpanRecord>> DecodeTraceDump(ByteSpan payload);

// Chrome trace_event JSON ({"traceEvents":[...]}): one complete ("X") event
// per span, ts/dur in microseconds, plus process_name metadata from
// `process_names` indexed by SpanRecord::pid. Loadable in chrome://tracing
// and Perfetto.
std::string RenderChromeTrace(const std::vector<SpanRecord>& spans,
                              const std::vector<std::string>& process_names = {});

}  // namespace shield::obs

#endif  // SHIELDSTORE_SRC_OBS_TRACER_H_
