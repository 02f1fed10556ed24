#include "src/obs/tracer.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <vector>

#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

namespace shield::obs {
namespace {

uint64_t UnixNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

void EncodeTraceContext(const TraceContext& ctx, uint8_t out[kTraceContextWireSize]) {
  StoreLe64(out, ctx.trace_id);
  const uint64_t span = ctx.span_id & kSpanIdMask;
  for (int i = 0; i < 7; ++i) out[8 + i] = static_cast<uint8_t>(span >> (8 * i));
  out[15] = ctx.sampled ? 1 : 0;
}

TraceContext DecodeTraceContext(const uint8_t in[kTraceContextWireSize]) {
  TraceContext ctx;
  ctx.trace_id = LoadLe64(in);
  uint64_t span = 0;
  for (int i = 0; i < 7; ++i) span |= static_cast<uint64_t>(in[8 + i]) << (8 * i);
  ctx.span_id = span;
  ctx.sampled = (in[15] & 0x01) != 0;
  return ctx;
}

#if SHIELD_OBS_ENABLED

namespace {

// Per-thread SPSC span ring. The owning thread is the only producer; the
// drainer (serialised by g_rings_mu) is the only consumer. Rings are
// heap-allocated once per thread and intentionally never freed so a drain
// racing thread exit cannot touch dead memory.
struct SpanRing {
  static constexpr size_t kCapacity = 1024;
  std::atomic<uint64_t> head{0};  // next write slot (producer)
  std::atomic<uint64_t> tail{0};  // next read slot (consumer)
  std::atomic<uint64_t> dropped{0};
  Span slots[kCapacity];

  void Push(const Span& span) {
    const uint64_t h = head.load(std::memory_order_relaxed);
    const uint64_t t = tail.load(std::memory_order_acquire);
    if (h - t >= kCapacity) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slots[h % kCapacity] = span;
    head.store(h + 1, std::memory_order_release);
  }
};

std::mutex g_rings_mu;
std::vector<SpanRing*>& GlobalRings() {
  static std::vector<SpanRing*>* rings = new std::vector<SpanRing*>();
  return *rings;
}

// Central drained-span buffer, bounded so an undrained server cannot grow
// without limit; overflow evicts the oldest spans.
constexpr size_t kCentralCapacity = 65536;
std::mutex g_central_mu;
std::deque<Span>& CentralBuffer() {
  static std::deque<Span>* buf = new std::deque<Span>();
  return *buf;
}

std::atomic<uint32_t> g_sample_every{256};

struct ThreadTraceState {
  TraceContext current;
  SpanRing* ring = nullptr;
  uint64_t rng = 0;
  uint32_t sample_tick = 0;
  uint32_t tid = 0;

  ThreadTraceState() {
    ring = new SpanRing();
    tid = static_cast<uint32_t>(::syscall(SYS_gettid));
    rng = (static_cast<uint64_t>(tid) << 32) ^ UnixNanos() ^
          reinterpret_cast<uintptr_t>(this);
    // Decorrelate the per-thread sampling phase so N threads at 1/N do not
    // all fire on the same op index.
    sample_tick = static_cast<uint32_t>(rng >> 17);
    std::lock_guard<std::mutex> lock(g_rings_mu);
    GlobalRings().push_back(ring);
  }
};

ThreadTraceState& Tls() {
  thread_local ThreadTraceState state;
  return state;
}

uint64_t NextRand(ThreadTraceState& s) {
  // xorshift64* — non-cryptographic; trace ids only need to be unique.
  uint64_t x = s.rng;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  s.rng = x;
  return x * 0x2545f4914f6cdd1dull;
}

Counter* SpansCounter() {
  static Counter* c = &Registry::Global().GetCounter("trace.spans");
  return c;
}
Counter* DroppedCounter() {
  static Counter* c = &Registry::Global().GetCounter("trace.dropped");
  return c;
}

}  // namespace

TraceContext CurrentTrace() { return Tls().current; }

void TraceSetSampleEvery(uint32_t every) {
  g_sample_every.store(every, std::memory_order_relaxed);
}

bool SampleRoot() {
  const uint32_t every = g_sample_every.load(std::memory_order_relaxed);
  if (every == 0) return false;
  if (every == 1) return true;
  ThreadTraceState& s = Tls();
  return ++s.sample_tick % every == 0;
}

uint64_t NewTraceId() {
  uint64_t id;
  do {
    id = NextRand(Tls());
  } while (id == 0);
  return id;
}

uint64_t NewSpanId() {
  uint64_t id;
  do {
    id = NextRand(Tls()) & kSpanIdMask;
  } while (id == 0);
  return id;
}

void TraceScope::Begin(const char* name, const TraceContext& parent) {
  if (!parent.active()) return;
  ThreadTraceState& s = Tls();
  saved_ = s.current;
  parent_span_ = parent.span_id;
  s.current.trace_id = parent.trace_id;
  s.current.span_id = NewSpanId();
  s.current.sampled = true;
  name_ = name;
  start_ns_ = UnixNanos();
  active_ = true;
}

TraceScope::TraceScope(const char* name) { Begin(name, Tls().current); }

TraceScope::TraceScope(const char* name, const TraceContext& parent) {
  Begin(name, parent);
}

TraceScope::~TraceScope() {
  if (!active_) return;
  ThreadTraceState& s = Tls();
  Span span;
  span.trace_id = s.current.trace_id;
  span.span_id = s.current.span_id;
  span.parent_span = parent_span_;
  span.start_unix_ns = start_ns_;
  span.duration_ns = UnixNanos() - start_ns_;
  span.tid = s.tid;
  span.name = name_;
  s.ring->Push(span);
  SpansCounter()->Inc();
  s.current = saved_;
}

TraceRoot::TraceRoot(const char* name)
    : trace_id_(SampleRoot() ? NewTraceId() : 0),
      scope_(name, TraceContext{trace_id_, 0, trace_id_ != 0}) {}

size_t TraceDrain() {
  std::vector<SpanRing*> rings;
  {
    std::lock_guard<std::mutex> lock(g_rings_mu);
    rings = GlobalRings();
  }
  size_t moved = 0;
  uint64_t dropped = 0;
  std::lock_guard<std::mutex> central_lock(g_central_mu);
  std::deque<Span>& central = CentralBuffer();
  for (SpanRing* ring : rings) {
    const uint64_t t = ring->tail.load(std::memory_order_relaxed);
    const uint64_t h = ring->head.load(std::memory_order_acquire);
    for (uint64_t i = t; i < h; ++i) {
      central.push_back(ring->slots[i % SpanRing::kCapacity]);
      ++moved;
    }
    ring->tail.store(h, std::memory_order_release);
    dropped += ring->dropped.exchange(0, std::memory_order_relaxed);
  }
  while (central.size() > kCentralCapacity) central.pop_front();
  if (dropped != 0) DroppedCounter()->Inc(dropped);
  return moved;
}

std::vector<Span> TraceConsume(size_t max) {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(g_central_mu);
  std::deque<Span>& central = CentralBuffer();
  const size_t n = central.size() < max ? central.size() : max;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(central.front());
    central.pop_front();
  }
  return out;
}

#else  // !SHIELD_OBS_ENABLED

TraceContext CurrentTrace() { return {}; }
void TraceSetSampleEvery(uint32_t) {}
bool SampleRoot() { return false; }
uint64_t NewTraceId() { return 0; }
uint64_t NewSpanId() { return 0; }
TraceScope::TraceScope(const char*) {}
TraceScope::TraceScope(const char*, const TraceContext&) {}
TraceScope::~TraceScope() = default;
TraceRoot::TraceRoot(const char* name) : scope_(name) {}
size_t TraceDrain() { return 0; }
std::vector<Span> TraceConsume(size_t) { return {}; }

#endif  // SHIELD_OBS_ENABLED

// --- wire codec (always compiled: decode is needed by tools) ------------

namespace {

void PutU32(Bytes& out, uint32_t v) {
  uint8_t buf[4];
  StoreLe32(buf, v);
  out.insert(out.end(), buf, buf + 4);
}

void PutU64(Bytes& out, uint64_t v) {
  uint8_t buf[8];
  StoreLe64(buf, v);
  out.insert(out.end(), buf, buf + 8);
}

Status Malformed() {
  return Status(Code::kProtocolError, "malformed trace dump");
}

bool Take32(ByteSpan& in, uint32_t* v) {
  if (in.size() < 4) return false;
  *v = LoadLe32(in.data());
  in = in.subspan(4);
  return true;
}

bool Take64(ByteSpan& in, uint64_t* v) {
  if (in.size() < 8) return false;
  *v = LoadLe64(in.data());
  in = in.subspan(8);
  return true;
}

}  // namespace

Bytes EncodeTraceDump(const std::vector<Span>& spans) {
  size_t count = spans.size();
  if (count > kMaxTraceDumpSpans) count = kMaxTraceDumpSpans;
  Bytes out;
  out.reserve(12 + count * 48);
  PutU32(out, kTraceDumpMagic);
  PutU32(out, kTraceDumpVersion);
  PutU32(out, static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) {
    const Span& s = spans[i];
    PutU64(out, s.trace_id);
    PutU64(out, s.span_id);
    PutU64(out, s.parent_span);
    PutU64(out, s.start_unix_ns);
    PutU64(out, s.duration_ns);
    PutU32(out, s.tid);
    const char* name = s.name != nullptr ? s.name : "";
    size_t len = strlen(name);
    if (len > kMaxSpanNameBytes) len = kMaxSpanNameBytes;
    out.push_back(static_cast<uint8_t>(len));
    out.insert(out.end(), reinterpret_cast<const uint8_t*>(name),
               reinterpret_cast<const uint8_t*>(name) + len);
  }
  return out;
}

Result<std::vector<SpanRecord>> DecodeTraceDump(ByteSpan payload) {
  uint32_t magic = 0, version = 0, count = 0;
  if (!Take32(payload, &magic) || magic != kTraceDumpMagic) return Malformed();
  if (!Take32(payload, &version) || version != kTraceDumpVersion) {
    return Status(Code::kProtocolError, "unsupported trace dump version");
  }
  if (!Take32(payload, &count) || count > kMaxTraceDumpSpans) return Malformed();
  std::vector<SpanRecord> spans;
  spans.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SpanRecord r;
    if (!Take64(payload, &r.trace_id) || !Take64(payload, &r.span_id) ||
        !Take64(payload, &r.parent_span) || !Take64(payload, &r.start_unix_ns) ||
        !Take64(payload, &r.duration_ns) || !Take32(payload, &r.tid)) {
      return Malformed();
    }
    if (payload.empty()) return Malformed();
    const size_t name_len = payload[0];
    payload = payload.subspan(1);
    if (name_len > kMaxSpanNameBytes || payload.size() < name_len) {
      return Malformed();
    }
    r.name.assign(reinterpret_cast<const char*>(payload.data()), name_len);
    payload = payload.subspan(name_len);
    spans.push_back(std::move(r));
  }
  if (!payload.empty()) return Malformed();
  return spans;
}

namespace {

void AppendJsonEscaped(std::string& out, const std::string& in) {
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string RenderChromeTrace(const std::vector<SpanRecord>& spans,
                              const std::vector<std::string>& process_names) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (size_t pid = 0; pid < process_names.size(); ++pid) {
    snprintf(buf, sizeof(buf),
             "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,\"tid\":0,"
             "\"args\":{\"name\":\"",
             first ? "" : ",", pid);
    out += buf;
    AppendJsonEscaped(out, process_names[pid]);
    out += "\"}}";
    first = false;
  }
  for (const SpanRecord& s : spans) {
    snprintf(buf, sizeof(buf),
             "%s{\"name\":\"", first ? "" : ",");
    out += buf;
    AppendJsonEscaped(out, s.name);
    snprintf(buf, sizeof(buf),
             "\",\"cat\":\"shield\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
             "\"pid\":%" PRIu32 ",\"tid\":%" PRIu32
             ",\"args\":{\"trace_id\":\"%016" PRIx64 "\",\"span\":\"%014" PRIx64
             "\",\"parent\":\"%014" PRIx64 "\"}}",
             static_cast<double>(s.start_unix_ns) / 1000.0,
             static_cast<double>(s.duration_ns) / 1000.0, s.pid, s.tid,
             s.trace_id, s.span_id, s.parent_span);
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace shield::obs
