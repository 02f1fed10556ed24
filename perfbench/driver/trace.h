// Span recording for the traced in-process run, and the analysis that turns
// spans into per-layer numbers.
//
// Three span kinds, all recorded from this benchmark's own files:
//  * client.request   — send to verified response (loadgen.h RequestSpan);
//  * server.store_call — one call from net::Server into the store it was
//    given, recorded by a decorator (layers.h CountingStore);
//  * store.call       — one call into PartitionedStore, recorded by a
//    subclass (layers.h TimedPartitionedStore); its parent is the enclosing
//    server.store_call on the same thread.
// A server.store_call is tied to the client requests it served by content:
// a set by its unique (key, version), a get by its key and by lying inside
// the request's interval.
#ifndef PERFBENCH_DRIVER_TRACE_H_
#define PERFBENCH_DRIVER_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "driver/loadgen.h"

namespace perfbench {

struct StoreOpRef {
  uint64_t key = 0;
  uint64_t version = 0;  // sets: the version carried by the value
  bool get = true;
};

struct StoreCallSpan {
  uint64_t id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t ops_begin = 0;  // into the op-ref array
  uint32_t ops_count = 0;
  uint32_t mutations = 0;
  uint32_t thread = 0;
};

struct ChildSpan {
  uint64_t parent = 0;  // StoreCallSpan::id
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t thread = 0;
};

struct ServerSpans {
  std::vector<StoreCallSpan> calls;
  std::vector<StoreOpRef> ops;
  std::vector<ChildSpan> children;
};

// Per-thread span buffers; recording is a vector push on the calling
// thread's own buffer. Collect() only while nothing records.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  uint64_t NextCallId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // The calling thread's buffer.
  ServerSpans& Local(uint32_t* thread);
  ServerSpans Collect();

  // The server.store_call open on this thread (0 = none).
  static uint64_t& CurrentCall();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<std::unique_ptr<ServerSpans>> buffers_;
};

struct VerbBreakdown {
  uint64_t requests = 0;
  uint64_t matched = 0;     // requests tied to a server.store_call
  double total_us_p50 = 0;  // client-observed, traced run
  double net_self_us_p50 = 0;
  double wal_self_us_p50 = 0;
  double store_us_p50 = 0;
  double unattributed_us = 0;  // total p50 minus the three layer p50s
};

struct TraceAnalysis {
  double net_self_us_p50 = 0;    // all requests
  double store_call_us_p50 = 0;  // every store.call under a server.store_call
  double wal_call_us_p50 = 0;    // server.store_call with >= 1 mutation
  double wal_self_us_p50 = 0;    // ... minus its store.call children
  uint64_t store_calls = 0;
  uint64_t wal_calls = 0;
  VerbBreakdown get;
  VerbBreakdown set;
};

// `durable`: the decorator wraps a WriteAheadStore, so a store call's self
// time is WAL time; otherwise it wraps PartitionedStore and has none.
TraceAnalysis Analyze(const std::vector<RequestSpan>& requests, const ServerSpans& server,
                      bool durable);

// Writes a Chrome trace_event file (the shieldstore_cli `trace --json`
// format) holding at most `max_requests` requests, evenly sampled, with the
// server spans tied to them.
shield::Status WriteChromeTrace(const std::string& path, const std::vector<RequestSpan>& requests,
                                const ServerSpans& server, size_t max_requests);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_TRACE_H_
