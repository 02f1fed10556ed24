// Command-line client for a shieldstore_server instance.
//
//   shieldstore_cli --port 4555 --measurement <hex from the server> \
//       set mykey myvalue
//   shieldstore_cli --port 4555 --measurement <hex> get mykey
//   shieldstore_cli --port 4555 --measurement <hex> append mykey ",more"
//   shieldstore_cli --port 4555 --measurement <hex> incr counter 5
//   shieldstore_cli --port 4555 --measurement <hex> del mykey
//
// The client refuses to talk to a server whose attested measurement differs
// from --measurement — the remote-attestation trust anchor of §3.2.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/net/client.h"
#include "src/obs/snapshot.h"
#include "src/obs/tracer.h"
#include "src/router/router.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: shieldstore_cli --port N --measurement HEX64 [--authority-seed S]\n"
               "       [--plaintext] [--cluster SPEC] [--trace-sample N] COMMAND ARGS...\n"
               "commands: get K | set K V | del K | append K SUFFIX | incr K DELTA | ping\n"
               "          mset K V [K V ...] | mget K [K ...]   (one kBatch frame)\n"
               "          stats [--prometheus] [--json] [--check]  (kStats snapshot dump)\n"
               "          trace [--json] [CMD ARGS...]  (run CMD sampled at 1/1, then merge\n"
               "          the client's spans with every reachable node's kTraceDump; --json\n"
               "          emits Chrome trace_event JSON for chrome://tracing / Perfetto)\n"
               "cluster proxy mode: --cluster PORT[:FOLLOWER][,PORT[:FOLLOWER]...] routes\n"
               "get/set/del/incr/mset by consistent hash across the listed nodes, failing\n"
               "over to a node's follower if the primary dies; `nodefor K` prints the owner.\n");
}

// Moves the client-local span buffer into `out` tagged with pid 0 ("cli").
void CollectLocalSpans(std::vector<shield::obs::SpanRecord>* out) {
  shield::obs::TraceDrain();
  for (const shield::obs::Span& sp : shield::obs::TraceConsume()) {
    shield::obs::SpanRecord r;
    r.trace_id = sp.trace_id;
    r.span_id = sp.span_id;
    r.parent_span = sp.parent_span;
    r.start_unix_ns = sp.start_unix_ns;
    r.duration_ns = sp.duration_ns;
    r.tid = sp.tid;
    r.pid = 0;
    r.name = sp.name != nullptr ? sp.name : "";
    out->push_back(std::move(r));
  }
}

void PrintSpanTable(const std::vector<shield::obs::SpanRecord>& spans,
                    const std::vector<std::string>& process_names) {
  std::printf("%-18s %-18s %-18s %-10s %12s  %s\n", "trace", "span", "parent", "process",
              "dur_us", "name");
  for (const auto& s : spans) {
    const char* proc =
        s.pid < process_names.size() ? process_names[s.pid].c_str() : "?";
    std::printf("%016llx   %014llx     %014llx     %-10s %12.1f  %s\n",
                static_cast<unsigned long long>(s.trace_id),
                static_cast<unsigned long long>(s.span_id),
                static_cast<unsigned long long>(s.parent_span), proc,
                static_cast<double>(s.duration_ns) / 1e3, s.name.c_str());
  }
}

// --cluster "4555:4556,4557:4558" → router nodes named node0, node1, ...
bool ParseClusterSpec(const std::string& spec, std::vector<shield::router::RouterNode>* nodes) {
  size_t pos = 0;
  int index = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string part = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (part.empty()) {
      return false;
    }
    shield::router::RouterNode node;
    node.name = "node" + std::to_string(index++);
    const size_t colon = part.find(':');
    const int port = std::atoi(part.substr(0, colon).c_str());
    if (port <= 0 || port > 65535) {
      return false;
    }
    node.port = static_cast<uint16_t>(port);
    if (colon != std::string::npos) {
      const int follower = std::atoi(part.substr(colon + 1).c_str());
      if (follower <= 0 || follower > 65535) {
        return false;
      }
      node.follower_port = static_cast<uint16_t>(follower);
    }
    nodes->push_back(std::move(node));
  }
  return !nodes->empty();
}

// Cross-metric invariants a live server's snapshot must satisfy. Returns the
// number of violations (each printed to stderr). Used by check.sh to verify
// the stats pipeline end-to-end, not just that the frame decodes.
int CheckInvariants(const shield::obs::MetricsSnapshot& snap) {
  int violations = 0;
  auto fail = [&violations](const char* what) {
    std::fprintf(stderr, "stats check FAILED: %s\n", what);
    ++violations;
  };
  const uint64_t gets = snap.CounterValue("store.gets");
  const uint64_t hits = snap.CounterValue("store.hits");
  const uint64_t misses = snap.CounterValue("store.misses");
  if (gets != hits + misses) {
    std::fprintf(stderr, "  store.gets=%llu hits=%llu misses=%llu\n",
                 static_cast<unsigned long long>(gets), static_cast<unsigned long long>(hits),
                 static_cast<unsigned long long>(misses));
    fail("store.gets != store.hits + store.misses");
  }
  uint64_t batch_sum = 0;
  for (const char* verb : {"get", "set", "delete", "append", "increment", "ping"}) {
    batch_sum += snap.CounterValue(std::string("net.batch_ops.") + verb);
  }
  if (batch_sum != snap.CounterValue("net.batch_ops")) {
    fail("net.batch_ops != sum of per-verb batch counters");
  }
  if (!snap.Has("stage.decode") || !snap.Has("stage.search_decrypt")) {
    fail("stage trace histograms missing from snapshot");
  }
  if (!snap.Has("sgx.epc.touches") || (!snap.Has("sgx.ecalls") && !snap.Has("sgx.hotcalls"))) {
    fail("sgx EPC / crossing counters missing from snapshot");
  }
  if (!snap.Has("crypto.backend")) {
    fail("crypto.backend gauge missing from snapshot");
  } else if (const int64_t backend = snap.GaugeValue("crypto.backend");
             backend != 0 && backend != 1) {
    fail("crypto.backend gauge out of range (want 0=table, 1=aes-ni)");
  }
  if (!snap.Has("store.crypto.ctr_bytes") || !snap.Has("store.crypto.cmac_bytes")) {
    fail("store crypto byte counters missing from snapshot");
  }
  // EPC plaintext-cache rate arithmetic: hits and misses partition lookups,
  // and the hit rate can never exceed 1. Holds trivially (all zeros) when
  // the cache is disabled, so it is always asserted.
  if (!snap.Has("store.cache.lookups") || !snap.Has("store.cache.hits") ||
      !snap.Has("store.cache.misses") || !snap.Has("store.cache.bytes")) {
    fail("store.cache.* plaintext-cache counters missing from snapshot");
  } else {
    const uint64_t lookups = snap.CounterValue("store.cache.lookups");
    const uint64_t cache_hits = snap.CounterValue("store.cache.hits");
    const uint64_t cache_misses = snap.CounterValue("store.cache.misses");
    if (cache_hits > lookups) {
      fail("store.cache.hits > store.cache.lookups (hit rate over 1)");
    }
    if (cache_hits + cache_misses != lookups) {
      fail("store.cache.hits + store.cache.misses != store.cache.lookups");
    }
  }
  // WAL metrics only exist when the server runs with --heal-dir.
  if (snap.Has("wal.records")) {
    for (const char* name : {"wal.commits", "wal.fsyncs", "wal.group_commits"}) {
      if (!snap.Has(name)) {
        std::fprintf(stderr, "  missing %s\n", name);
        fail("WAL metric set incomplete");
      }
    }
    if (snap.GaugeValue("wal.shards") <= 0) {
      fail("wal.shards gauge not positive");
    }
    // One counter bump covers at least one shard group, and no record is
    // acked before a bump covers it.
    const uint64_t epochs = snap.CounterValue("wal.epochs");
    if (epochs > snap.CounterValue("wal.commits")) {
      fail("wal.epochs > wal.commits");
    }
    if (snap.CounterValue("wal.records") > 0 && epochs == 0) {
      fail("wal.records > 0 with no wal.epochs");
    }
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace shield;
  uint16_t port = 4555;
  std::string measurement_hex;
  std::string authority_seed = "dev-authority";
  std::string cluster_spec;
  bool plaintext = false;
  uint32_t trace_sample = 0;  // 0 = no client-side tracing unless `trace` cmd
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--measurement" && i + 1 < argc) {
      measurement_hex = argv[++i];
    } else if (arg == "--authority-seed" && i + 1 < argc) {
      authority_seed = argv[++i];
    } else if (arg == "--plaintext") {
      plaintext = true;
    } else if (arg == "--cluster" && i + 1 < argc) {
      cluster_spec = argv[++i];
    } else if (arg == "--trace-sample" && i + 1 < argc) {
      trace_sample = static_cast<uint32_t>(std::atoll(argv[++i]));
    } else {
      break;  // start of the command
    }
  }
  if (i >= argc || measurement_hex.size() != 64) {
    Usage();
    return 2;
  }
  // The trace command forces 1/1 sampling: the one op it wraps IS the trace.
  const bool trace_cmd = std::string(argv[i]) == "trace";
  if (trace_cmd) {
    trace_sample = 1;
  }
  obs::TraceSetSampleEvery(trace_sample);
  const bool tracing = trace_sample > 0;
  const Bytes measurement_bytes = HexDecode(measurement_hex);
  if (measurement_bytes.size() != 32) {
    std::fprintf(stderr, "--measurement must be 64 hex characters\n");
    return 2;
  }
  sgx::Measurement expected;
  std::memcpy(expected.data(), measurement_bytes.data(), 32);

  sgx::AttestationAuthority authority(AsBytes(authority_seed));

  // Cluster proxy mode: one attested session per node, keys routed by
  // consistent hash, transparent failover to a node's follower.
  if (!cluster_spec.empty()) {
    std::vector<router::RouterNode> nodes;
    if (!ParseClusterSpec(cluster_spec, &nodes)) {
      std::fprintf(stderr, "bad --cluster spec (want PORT[:FOLLOWER],...)\n");
      return 2;
    }
    router::RouterOptions router_options;
    router_options.encrypt = !plaintext;
    router_options.client.enable_tracing = tracing;
    router::Router rt(authority, expected, std::move(nodes), router_options);
    if (Status s = rt.Start(); !s.ok()) {
      std::fprintf(stderr, "cluster connect failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const std::string command = argv[i];
    auto arg_at = [&](int offset) -> const char* {
      return i + offset < argc ? argv[i + offset] : nullptr;
    };
    int rc = 0;
    if (command == "get" && arg_at(1) != nullptr) {
      Result<std::string> value = rt.Get(arg_at(1));
      if (!value.ok()) {
        std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
        rc = 1;
      } else {
        std::printf("%s\n", value->c_str());
      }
    } else if (command == "set" && arg_at(2) != nullptr) {
      const Status s = rt.Set(arg_at(1), arg_at(2));
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        rc = 1;
      } else {
        std::printf("OK (%s)\n", rt.NodeFor(arg_at(1)).c_str());
      }
    } else if (command == "del" && arg_at(1) != nullptr) {
      const Status s = rt.Delete(arg_at(1));
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        rc = 1;
      } else {
        std::printf("OK\n");
      }
    } else if (command == "incr" && arg_at(2) != nullptr) {
      Result<int64_t> value = rt.Increment(arg_at(1), std::atoll(arg_at(2)));
      if (!value.ok()) {
        std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
        rc = 1;
      } else {
        std::printf("%lld\n", static_cast<long long>(*value));
      }
    } else if (command == "mset" && arg_at(2) != nullptr && (argc - i - 1) % 2 == 0) {
      std::vector<std::pair<std::string, std::string>> pairs;
      for (int j = i + 1; j + 1 < argc; j += 2) {
        pairs.emplace_back(argv[j], argv[j + 1]);
      }
      const Status s = rt.MSet(pairs);
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        rc = 1;
      } else {
        std::printf("OK (%zu keys, one batch frame per owner node)\n", pairs.size());
      }
    } else if (command == "trace") {
      bool json = false;
      int j = i + 1;
      if (j < argc && std::string(argv[j]) == "--json") {
        json = true;
        ++j;
      }
      // Optional traced sub-command, sampled at 1/1 under one fresh root.
      if (j < argc) {
        obs::TraceRoot root("cli.op");
        const std::string sub = argv[j];
        Status s = Status::Ok();
        if (sub == "get" && j + 1 < argc) {
          Result<std::string> value = rt.Get(argv[j + 1]);
          if (!value.ok()) {
            s = value.status();
          }
        } else if (sub == "set" && j + 2 < argc) {
          s = rt.Set(argv[j + 1], argv[j + 2]);
        } else if (sub == "del" && j + 1 < argc) {
          s = rt.Delete(argv[j + 1]);
        } else if (sub == "mset" && j + 2 < argc && (argc - j - 1) % 2 == 0) {
          std::vector<std::pair<std::string, std::string>> pairs;
          for (int k = j + 1; k + 1 < argc; k += 2) {
            pairs.emplace_back(argv[k], argv[k + 1]);
          }
          s = rt.MSet(pairs);
        } else {
          Usage();
          rt.Stop();
          return 2;
        }
        if (!s.ok()) {
          std::fprintf(stderr, "traced op failed: %s\n", s.ToString().c_str());
          rc = 1;
        }
      }
      std::vector<obs::SpanRecord> spans;
      CollectLocalSpans(&spans);
      std::vector<std::string> process_names = {"cli"};
      uint32_t pid = 1;
      for (const std::string& name : rt.Nodes()) {
        Result<std::vector<obs::SpanRecord>> dump = rt.TraceDump(name);
        process_names.push_back(name);
        if (dump.ok()) {
          for (obs::SpanRecord& r : *dump) {
            r.pid = pid;
            spans.push_back(std::move(r));
          }
        } else {
          std::fprintf(stderr, "trace dump from %s failed: %s\n", name.c_str(),
                       dump.status().ToString().c_str());
        }
        ++pid;
      }
      if (json) {
        std::fputs(obs::RenderChromeTrace(spans, process_names).c_str(), stdout);
      } else {
        PrintSpanTable(spans, process_names);
      }
    } else if (command == "nodefor" && arg_at(1) != nullptr) {
      const std::string& owner = rt.NodeFor(arg_at(1));
      std::printf("%s (port %u)\n", owner.c_str(), rt.ActivePort(owner));
    } else {
      Usage();
      rc = 2;
    }
    rt.Stop();
    return rc;
  }

  net::ClientOptions copts;
  copts.enable_tracing = tracing;
  net::Client client(authority, expected, !plaintext, copts);
  if (Status s = client.Connect(port); !s.ok()) {
    std::fprintf(stderr, "connect/attestation failed: %s\n", s.ToString().c_str());
    return 1;
  }

  const std::string command = argv[i];
  auto arg_at = [&](int offset) -> const char* {
    return i + offset < argc ? argv[i + offset] : nullptr;
  };
  if (command == "get" && arg_at(1) != nullptr) {
    Result<std::string> value = client.Get(arg_at(1));
    if (!value.ok()) {
      std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", value->c_str());
  } else if (command == "set" && arg_at(2) != nullptr) {
    const Status s = client.Set(arg_at(1), arg_at(2));
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("OK\n");
  } else if (command == "del" && arg_at(1) != nullptr) {
    const Status s = client.Delete(arg_at(1));
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("OK\n");
  } else if (command == "append" && arg_at(2) != nullptr) {
    const Status s = client.Append(arg_at(1), arg_at(2));
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("OK\n");
  } else if (command == "incr" && arg_at(2) != nullptr) {
    Result<int64_t> value = client.Increment(arg_at(1), std::atoll(arg_at(2)));
    if (!value.ok()) {
      std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
      return 1;
    }
    std::printf("%lld\n", static_cast<long long>(*value));
  } else if (command == "mset" && arg_at(2) != nullptr && (argc - i - 1) % 2 == 0) {
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int j = i + 1; j + 1 < argc; j += 2) {
      pairs.emplace_back(argv[j], argv[j + 1]);
    }
    const Status s = client.MSet(pairs);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("OK (%zu keys, one frame)\n", pairs.size());
  } else if (command == "mget" && arg_at(1) != nullptr) {
    std::vector<std::string> keys;
    for (int j = i + 1; j < argc; ++j) {
      keys.emplace_back(argv[j]);
    }
    Result<std::vector<net::Response>> responses = client.MGet(keys);
    if (!responses.ok()) {
      std::fprintf(stderr, "%s\n", responses.status().ToString().c_str());
      return 1;
    }
    int rc = 0;
    for (size_t j = 0; j < responses->size(); ++j) {
      const net::Response& r = (*responses)[j];
      if (r.status == Code::kOk) {
        std::printf("%s=%s\n", keys[j].c_str(), r.value.c_str());
      } else {
        std::printf("%s: %s\n", keys[j].c_str(),
                    Status(r.status, "").ToString().c_str());
        rc = 1;
      }
    }
    return rc;
  } else if (command == "stats") {
    bool prometheus = false;
    bool json = false;
    bool check = false;
    for (int j = i + 1; j < argc; ++j) {
      const std::string opt = argv[j];
      if (opt == "--prometheus") {
        prometheus = true;
      } else if (opt == "--json") {
        json = true;
      } else if (opt == "--check") {
        check = true;
      } else {
        Usage();
        return 2;
      }
    }
    Result<obs::MetricsSnapshot> snap = client.Stats();
    if (!snap.ok()) {
      std::fprintf(stderr, "stats failed: %s\n", snap.status().ToString().c_str());
      return 1;
    }
    std::fputs(json        ? obs::RenderJson(*snap).c_str()
               : prometheus ? obs::RenderPrometheus(*snap).c_str()
                            : obs::RenderTable(*snap).c_str(),
               stdout);
    if (check) {
      const int violations = CheckInvariants(*snap);
      if (violations > 0) {
        return 1;
      }
      std::printf("stats check OK (%zu metrics)\n", snap->metrics.size());
    }
  } else if (command == "trace") {
    bool json = false;
    int j = i + 1;
    if (j < argc && std::string(argv[j]) == "--json") {
      json = true;
      ++j;
    }
    int rc = 0;
    // Optional traced sub-command, sampled at 1/1 under one fresh root.
    if (j < argc) {
      obs::TraceRoot root("cli.op");
      const std::string sub = argv[j];
      Status s = Status::Ok();
      if (sub == "get" && j + 1 < argc) {
        Result<std::string> value = client.Get(argv[j + 1]);
        if (!value.ok()) {
          s = value.status();
        }
      } else if (sub == "set" && j + 2 < argc) {
        s = client.Set(argv[j + 1], argv[j + 2]);
      } else if (sub == "del" && j + 1 < argc) {
        s = client.Delete(argv[j + 1]);
      } else if (sub == "mset" && j + 2 < argc && (argc - j - 1) % 2 == 0) {
        std::vector<std::pair<std::string, std::string>> pairs;
        for (int k = j + 1; k + 1 < argc; k += 2) {
          pairs.emplace_back(argv[k], argv[k + 1]);
        }
        s = client.MSet(pairs);
      } else if (sub == "ping") {
        net::Request request;
        request.op = net::OpCode::kPing;
        Result<net::Response> response = client.Execute(request);
        if (!response.ok()) {
          s = response.status();
        }
      } else {
        Usage();
        return 2;
      }
      if (!s.ok()) {
        std::fprintf(stderr, "traced op failed: %s\n", s.ToString().c_str());
        rc = 1;
      }
    }
    std::vector<obs::SpanRecord> spans;
    CollectLocalSpans(&spans);
    Result<std::vector<obs::SpanRecord>> dump = client.TraceDump();
    if (dump.ok()) {
      for (obs::SpanRecord& r : *dump) {
        r.pid = 1;
        spans.push_back(std::move(r));
      }
    } else {
      std::fprintf(stderr, "trace dump failed: %s\n",
                   dump.status().ToString().c_str());
      rc = 1;
    }
    const std::vector<std::string> process_names = {"cli", "server"};
    if (json) {
      std::fputs(obs::RenderChromeTrace(spans, process_names).c_str(), stdout);
    } else {
      PrintSpanTable(spans, process_names);
    }
    return rc;
  } else if (command == "ping") {
    net::Request request;
    request.op = net::OpCode::kPing;
    Result<net::Response> response = client.Execute(request);
    if (!response.ok() || response->status != Code::kOk) {
      std::fprintf(stderr, "ping failed\n");
      return 1;
    }
    std::printf("%s\n", response->value.c_str());
  } else {
    Usage();
    return 2;
  }
  return 0;
}
