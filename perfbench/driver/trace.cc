#include "driver/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "src/obs/tracer.h"

namespace perfbench {

namespace {

struct LocalSlot {
  const SpanLog* owner = nullptr;
  ServerSpans* buffer = nullptr;
  uint32_t thread = 0;
};
thread_local LocalSlot tls_slot;

double P50Us(std::vector<double>& ns) {
  return ns.empty() ? 0.0 : Percentile(ns, 0.5) / 1e3;
}

// Packs a set's identity; keys stay below 2^24 and versions below 2^40.
uint64_t SetIdentity(uint64_t key, uint64_t version) {
  return (key << 40) ^ version;
}

struct Matched {
  std::vector<int64_t> call_of_request;  // -1 = unmatched
  std::vector<uint64_t> covered_ns;      // per call: union of its children
  std::unordered_map<uint64_t, std::vector<Interval>> children;
};

Matched Match(const std::vector<RequestSpan>& requests, const ServerSpans& server) {
  Matched m;
  const std::vector<StoreCallSpan>& calls = server.calls;
  std::vector<uint32_t> by_start(calls.size());
  for (uint32_t i = 0; i < calls.size(); ++i) {
    by_start[i] = i;
  }
  std::sort(by_start.begin(), by_start.end(),
            [&](uint32_t a, uint32_t b) { return calls[a].start_ns < calls[b].start_ns; });
  std::unordered_map<uint64_t, uint32_t> set_call;
  std::unordered_map<uint64_t, std::vector<uint32_t>> get_calls;  // start order
  for (const uint32_t c : by_start) {
    for (uint32_t k = 0; k < calls[c].ops_count; ++k) {
      const StoreOpRef& op = server.ops[calls[c].ops_begin + k];
      if (op.get) {
        std::vector<uint32_t>& list = get_calls[op.key];
        if (list.empty() || list.back() != c) {
          list.push_back(c);
        }
      } else {
        set_call.emplace(SetIdentity(op.key, op.version), c);
      }
    }
  }
  m.call_of_request.assign(requests.size(), -1);
  for (size_t r = 0; r < requests.size(); ++r) {
    const RequestSpan& req = requests[r];
    if (!req.get) {
      const auto it = set_call.find(SetIdentity(req.key, req.version));
      if (it != set_call.end()) {
        m.call_of_request[r] = it->second;
      }
      continue;
    }
    const auto it = get_calls.find(req.key);
    if (it == get_calls.end()) {
      continue;
    }
    const std::vector<uint32_t>& list = it->second;
    auto pos = std::lower_bound(list.begin(), list.end(), req.start_ns,
                                [&](uint32_t c, uint64_t t) { return calls[c].start_ns < t; });
    for (; pos != list.end() && calls[*pos].start_ns <= req.end_ns; ++pos) {
      if (calls[*pos].end_ns <= req.end_ns) {
        m.call_of_request[r] = *pos;
        break;
      }
    }
  }
  for (const ChildSpan& child : server.children) {
    m.children[child.parent].push_back({child.start_ns, child.end_ns});
  }
  m.covered_ns.resize(calls.size());
  for (size_t c = 0; c < calls.size(); ++c) {
    const auto it = m.children.find(calls[c].id);
    m.covered_ns[c] = it == m.children.end()
                          ? 0
                          : CoveredNs({calls[c].start_ns, calls[c].end_ns}, it->second);
  }
  return m;
}

}  // namespace

ServerSpans& SpanLog::Local(uint32_t* thread) {
  if (tls_slot.owner != this) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ServerSpans>());
    tls_slot = {this, buffers_.back().get(), static_cast<uint32_t>(buffers_.size())};
  }
  *thread = tls_slot.thread;
  return *tls_slot.buffer;
}

ServerSpans SpanLog::Collect() {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerSpans all;
  for (const auto& b : buffers_) {
    const uint32_t base = static_cast<uint32_t>(all.ops.size());
    for (StoreCallSpan call : b->calls) {
      call.ops_begin += base;
      all.calls.push_back(call);
    }
    all.ops.insert(all.ops.end(), b->ops.begin(), b->ops.end());
    all.children.insert(all.children.end(), b->children.begin(), b->children.end());
  }
  return all;
}

uint64_t& SpanLog::CurrentCall() {
  thread_local uint64_t current = 0;
  return current;
}

TraceAnalysis Analyze(const std::vector<RequestSpan>& requests, const ServerSpans& server,
                      bool durable) {
  TraceAnalysis a;
  const Matched m = Match(requests, server);

  std::vector<double> store_ns;
  for (const ChildSpan& child : server.children) {
    store_ns.push_back(static_cast<double>(child.end_ns - child.start_ns));
  }
  a.store_calls = store_ns.size();
  a.store_call_us_p50 = P50Us(store_ns);

  std::vector<double> wal_ns;
  std::vector<double> wal_self_ns;
  for (size_t c = 0; c < server.calls.size(); ++c) {
    const StoreCallSpan& call = server.calls[c];
    if (durable && call.mutations > 0) {
      const uint64_t dur = call.end_ns - call.start_ns;
      wal_ns.push_back(static_cast<double>(dur));
      wal_self_ns.push_back(static_cast<double>(dur - m.covered_ns[c]));
    }
  }
  a.wal_calls = wal_ns.size();
  a.wal_call_us_p50 = P50Us(wal_ns);
  a.wal_self_us_p50 = P50Us(wal_self_ns);

  struct Parts {
    std::vector<double> total, net, wal, store;
  } parts[2];  // [0] gets, [1] sets
  std::vector<double> net_all;
  uint64_t n[2] = {0, 0};
  uint64_t matched[2] = {0, 0};
  for (size_t r = 0; r < requests.size(); ++r) {
    const RequestSpan& req = requests[r];
    if (!req.ok) {
      continue;
    }
    Parts& p = parts[req.get ? 0 : 1];
    ++n[req.get ? 0 : 1];
    const uint64_t dur = req.end_ns - req.start_ns;
    p.total.push_back(static_cast<double>(dur));
    const int64_t c = m.call_of_request[r];
    if (c < 0) {
      continue;
    }
    ++matched[req.get ? 0 : 1];
    const StoreCallSpan& call = server.calls[static_cast<size_t>(c)];
    const uint64_t overlap = CoveredNs({req.start_ns, req.end_ns}, {{call.start_ns, call.end_ns}});
    const uint64_t call_dur = call.end_ns - call.start_ns;
    const uint64_t covered = m.covered_ns[static_cast<size_t>(c)];
    p.net.push_back(static_cast<double>(dur - overlap));
    net_all.push_back(static_cast<double>(dur - overlap));
    p.wal.push_back(durable ? static_cast<double>(call_dur - covered) : 0.0);
    p.store.push_back(static_cast<double>(durable ? covered : call_dur));
  }
  a.net_self_us_p50 = P50Us(net_all);
  VerbBreakdown* out[2] = {&a.get, &a.set};
  for (int v = 0; v < 2; ++v) {
    VerbBreakdown& b = *out[v];
    b.requests = n[v];
    b.matched = matched[v];
    b.total_us_p50 = P50Us(parts[v].total);
    b.net_self_us_p50 = P50Us(parts[v].net);
    b.wal_self_us_p50 = P50Us(parts[v].wal);
    b.store_us_p50 = P50Us(parts[v].store);
    b.unattributed_us = b.total_us_p50 - b.net_self_us_p50 - b.wal_self_us_p50 - b.store_us_p50;
  }
  return a;
}

shield::Status WriteChromeTrace(const std::string& path, const std::vector<RequestSpan>& requests,
                                const ServerSpans& server, size_t max_requests) {
  const Matched m = Match(requests, server);
  const int64_t wall_minus_steady =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count() -
      static_cast<int64_t>(NowNs());
  auto unix_ns = [&](uint64_t steady) {
    return static_cast<uint64_t>(static_cast<int64_t>(steady) + wall_minus_steady);
  };
  const size_t stride = std::max<size_t>(1, (requests.size() + max_requests - 1) / max_requests);
  std::vector<shield::obs::SpanRecord> spans;
  uint64_t next_span = 1;
  for (size_t r = 0; r < requests.size(); r += stride) {
    const RequestSpan& req = requests[r];
    shield::obs::SpanRecord client;
    client.trace_id = req.id + 1;
    client.span_id = next_span++;
    client.start_unix_ns = unix_ns(req.start_ns);
    client.duration_ns = req.end_ns - req.start_ns;
    client.tid = req.thread;
    client.pid = 0;
    client.name = req.get ? "client.request get" : "client.request set";
    spans.push_back(client);
    const int64_t c = m.call_of_request[r];
    if (c < 0) {
      continue;
    }
    const StoreCallSpan& call = server.calls[static_cast<size_t>(c)];
    shield::obs::SpanRecord store_call;
    store_call.trace_id = client.trace_id;
    store_call.span_id = next_span++;
    store_call.parent_span = client.span_id;
    store_call.start_unix_ns = unix_ns(call.start_ns);
    store_call.duration_ns = call.end_ns - call.start_ns;
    store_call.tid = call.thread;
    store_call.pid = 1;
    store_call.name = "server.store_call";
    spans.push_back(store_call);
    const auto it = m.children.find(call.id);
    if (it == m.children.end()) {
      continue;
    }
    for (const Interval& child : it->second) {
      shield::obs::SpanRecord s;
      s.trace_id = client.trace_id;
      s.span_id = next_span++;
      s.parent_span = store_call.span_id;
      s.start_unix_ns = unix_ns(child.start);
      s.duration_ns = child.end - child.start;
      s.tid = call.thread;
      s.pid = 1;
      s.name = "store.call";
      spans.push_back(s);
    }
  }
  const std::string json =
      shield::obs::RenderChromeTrace(spans, {"perfbench client", "in-process server"});
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return shield::Status(shield::Code::kIoError, "cannot write " + path);
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok ? shield::Status::Ok()
                                    : shield::Status(shield::Code::kIoError, "short write " + path);
}

}  // namespace perfbench
