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
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/snapshot.h"
#include "src/obs/tracer.h"
#include "src/router/router.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: shieldstore_cli --port N --measurement HEX64 [--authority-seed S]\n"
               "       [--plaintext] [--cluster SPEC] COMMAND ARGS...\n"
               "commands: get K | set K V | del K | append K SUFFIX | incr K DELTA | ping\n"
               "          mset K V [K V ...] | mget K [K ...]   (one kBatch frame)\n"
               "          stats [--prometheus] [--json] [--check]  (kStats snapshot dump)\n"
               "          trace [--json] [CMD ARGS...]  (run CMD sampled at 1/1, then merge\n"
               "          the client's spans with every node's kTraceDump; --json emits\n"
               "          Chrome trace_event JSON for chrome://tracing / Perfetto)\n"
               "cluster proxy mode: --cluster PORT[:FOLLOWER][,PORT[:FOLLOWER]...] routes\n"
               "get/set/del/incr/mset (also under trace) by consistent hash across the\n"
               "listed nodes, failing over to a node's follower if the primary dies;\n"
               "`nodefor K` prints the owner. append, mget, stats and ping need --port.\n");
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
  // The decoder refuses an empty batch, so every counted batch frame carried
  // at least one counted sub-op.
  if (shield::net::BatchSubOps(snap) < snap.CounterValue("net.ops.batch")) {
    fail("sum of net.batch_ops.<verb> < net.ops.batch");
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
  // EPC plaintext cache: the hit rate can never exceed 1. Holds trivially
  // (all zeros) when the cache is disabled, so it is always asserted.
  if (!snap.Has("store.cache.lookups") || !snap.Has("store.cache.hits") ||
      !snap.Has("store.cache.bytes")) {
    fail("store.cache.* plaintext-cache counters missing from snapshot");
  } else if (snap.CounterValue("store.cache.hits") > snap.CounterValue("store.cache.lookups")) {
    fail("store.cache.hits > store.cache.lookups (hit rate over 1)");
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

using Args = std::vector<std::string>;
// What a command prints on success, or why it failed; nullopt when the
// arguments name no command of this mode (or lack its operands).
using Outcome = std::optional<shield::Result<std::string>>;

shield::Result<std::string> LineIfOk(const shield::Status& s, std::string line) {
  if (!s.ok()) {
    return s;
  }
  return line;
}

// The data commands both modes serve, written once over the verbs a single
// node's net::Client and the cluster's router::Router share. args[0] is the
// command.
template <typename Kv>
Outcome RunDataCommand(Kv& kv, const Args& args) {
  const std::string& command = args[0];
  const size_t n = args.size();
  if (command == "get" && n >= 2) {
    return kv.Get(args[1]);
  }
  if (command == "set" && n >= 3) {
    return LineIfOk(kv.Set(args[1], args[2]), "OK");
  }
  if (command == "del" && n >= 2) {
    return LineIfOk(kv.Delete(args[1]), "OK");
  }
  if (command == "incr" && n >= 3) {
    const shield::Result<int64_t> value = kv.Increment(args[1], std::atoll(args[2].c_str()));
    return LineIfOk(value.status(), value.ok() ? std::to_string(*value) : "");
  }
  if (command == "mset" && n >= 3 && n % 2 == 1) {
    std::vector<std::pair<std::string, std::string>> pairs;
    for (size_t k = 1; k + 1 < n; k += 2) {
      pairs.emplace_back(args[k], args[k + 1]);
    }
    return LineIfOk(kv.MSet(pairs), "OK (" + std::to_string(pairs.size()) + " keys)");
  }
  return std::nullopt;
}

// The single-node commands with one result line: the shared data commands
// plus append and ping.
Outcome RunNodeCommand(shield::net::Client& client, const Args& args) {
  if (Outcome out = RunDataCommand(client, args)) {
    return out;
  }
  if (args[0] == "append" && args.size() >= 3) {
    return LineIfOk(client.Append(args[1], args[2]), "OK");
  }
  if (args[0] == "ping") {
    shield::net::Request request;
    request.op = shield::net::OpCode::kPing;
    const shield::Result<shield::net::Response> response = client.Execute(request);
    if (!response.ok()) {
      return response.status();
    }
    return LineIfOk(shield::Status(response->status, "ping failed"), response->value);
  }
  return std::nullopt;
}

// Prints an outcome: its line on stdout, or its failure on stderr.
int Report(const shield::Result<std::string>& out) {
  if (!out.ok()) {
    std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", out->c_str());
  return 0;
}

// A process whose span buffer `trace` drains.
struct SpanSource {
  std::string name;
  std::function<shield::Result<std::vector<shield::obs::SpanRecord>>()> dump;
};

// `trace [--json] [CMD ARGS...]`: runs CMD through `run` under one fresh
// root sampled at 1/1, then merges the client's spans with every source's
// dump, each source tagged with its own pid.
int RunTrace(const Args& args, const std::function<Outcome(const Args&)>& run,
             const std::vector<SpanSource>& sources) {
  using namespace shield;
  size_t j = 1;
  const bool json = j < args.size() && args[j] == "--json";
  j += json ? 1 : 0;
  int rc = 0;
  if (j < args.size()) {
    obs::TraceSetSampleEvery(1);
    obs::TraceRoot root("cli.op");
    const Outcome out = run(Args(args.begin() + static_cast<std::ptrdiff_t>(j), args.end()));
    if (!out) {
      Usage();
      return 2;
    }
    if (!out->ok()) {
      std::fprintf(stderr, "traced op failed: %s\n", out->status().ToString().c_str());
      rc = 1;
    }
  }
  std::vector<obs::SpanRecord> spans;
  CollectLocalSpans(&spans);
  std::vector<std::string> process_names = {"cli"};
  for (const SpanSource& source : sources) {
    const uint32_t pid = static_cast<uint32_t>(process_names.size());
    process_names.push_back(source.name);
    Result<std::vector<obs::SpanRecord>> dump = source.dump();
    if (!dump.ok()) {
      std::fprintf(stderr, "trace dump from %s failed: %s\n", source.name.c_str(),
                   dump.status().ToString().c_str());
      rc = 1;
      continue;
    }
    for (obs::SpanRecord& r : *dump) {
      r.pid = pid;
      spans.push_back(std::move(r));
    }
  }
  if (json) {
    std::fputs(obs::RenderChromeTrace(spans, process_names).c_str(), stdout);
  } else {
    PrintSpanTable(spans, process_names);
  }
  return rc;
}

// Cluster proxy mode: the data commands, trace over every node, and nodefor.
int RunCluster(shield::router::Router& rt, const Args& args) {
  if (args[0] == "trace") {
    std::vector<SpanSource> sources;
    for (const std::string& name : rt.Nodes()) {
      sources.push_back({name, [&rt, name] { return rt.TraceDump(name); }});
    }
    return RunTrace(args, [&rt](const Args& sub) { return RunDataCommand(rt, sub); }, sources);
  }
  if (args[0] == "nodefor" && args.size() >= 2) {
    const std::string& owner = rt.NodeFor(args[1]);
    std::printf("%s (port %u)\n", owner.c_str(), rt.ActivePort(owner));
    return 0;
  }
  if (Outcome out = RunDataCommand(rt, args)) {
    return Report(*out);
  }
  Usage();
  return 2;
}

// Single-node mode: every command but nodefor.
int RunNode(shield::net::Client& client, const Args& args) {
  using namespace shield;
  const std::string& command = args[0];
  if (command == "trace") {
    return RunTrace(args, [&client](const Args& sub) { return RunNodeCommand(client, sub); },
                    {{"server", [&client] { return client.TraceDump(); }}});
  }
  if (command == "mget" && args.size() >= 2) {
    const std::vector<std::string> keys(args.begin() + 1, args.end());
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
        std::printf("%s: %s\n", keys[j].c_str(), Status(r.status, "").ToString().c_str());
        rc = 1;
      }
    }
    return rc;
  }
  if (command == "stats") {
    bool prometheus = false;
    bool json = false;
    bool check = false;
    for (size_t j = 1; j < args.size(); ++j) {
      if (args[j] == "--prometheus") {
        prometheus = true;
      } else if (args[j] == "--json") {
        json = true;
      } else if (args[j] == "--check") {
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
      if (CheckInvariants(*snap) > 0) {
        return 1;
      }
      std::printf("stats check OK (%zu metrics)\n", snap->metrics.size());
    }
    return 0;
  }
  if (Outcome out = RunNodeCommand(client, args)) {
    return Report(*out);
  }
  Usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace shield;
  uint16_t port = 4555;
  std::string measurement_hex;
  std::string authority_seed = "dev-authority";
  std::string cluster_spec;
  bool plaintext = false;
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
    } else {
      break;  // start of the command
    }
  }
  if (i >= argc || measurement_hex.size() != 64) {
    Usage();
    return 2;
  }
  const Args args(argv + i, argv + argc);
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
    router::Router rt(authority, expected, std::move(nodes), router_options);
    if (Status s = rt.Start(); !s.ok()) {
      std::fprintf(stderr, "cluster connect failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const int rc = RunCluster(rt, args);
    rt.Stop();
    return rc;
  }

  net::Client client(authority, expected, !plaintext);
  if (Status s = client.Connect(port); !s.ok()) {
    std::fprintf(stderr, "connect/attestation failed: %s\n", s.ToString().c_str());
    return 1;
  }
  return RunNode(client, args);
}
