// Batched operation pipeline: networked throughput vs batch depth.
//
// One real server (encrypted sessions, durable-ack WAL with a group-commit
// window and the daemon's default counter cost — the configuration where
// every singleton mutation pays a window wait, a counter bump and a boundary
// crossing), loaded by C connections issuing write-heavy traffic at kBatch
// depths 1/4/16/64. Depth 1 is the unbatched baseline: each op is its own
// frame, its own session Seal/Open, its own enclave submission, and its own
// group-commit ack. At depth N all of that amortizes N ways — one frame, one
// crossing, one AwaitDurable per touched shard.
//
// Emits BENCH_batch.json for the acceptance gate: depth-16 throughput >= 2x
// depth 1 with group commit enabled.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "bench/netload.h"
#include "src/net/server.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"

namespace shield::bench {
namespace {

int Run(double seconds, const std::string& out_path) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("shield_batch_bench_" + std::to_string(getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  sgx::Enclave enclave(BenchEnclave());
  const sgx::AttestationAuthority authority(AsBytes("batch-bench"));
  const sgx::SealingService sealer(AsBytes("batch-bench"), enclave.measurement());
  sgx::MonotonicCounterService::Options counter_opts;
  counter_opts.backing_file = dir + "/counters.bin";
  sgx::MonotonicCounterService counters(counter_opts);

  shieldstore::Options options;
  options.num_buckets = 1 << 14;
  shieldstore::PartitionedStore store(enclave, options, 4);

  // Durable acks: the discipline where batching pays off most — every
  // singleton Set waits out a group-commit window; a batch waits once per
  // touched shard.
  shieldstore::OpLogOptions log_opts;
  log_opts.path = dir + "/wal.log";
  log_opts.group_commit_window_us = 100;
  log_opts.group_commit_ops = 64;
  shieldstore::WriteAheadStore wal(store, sealer, counters, log_opts);
  if (!wal.Open().ok()) {
    std::fprintf(stderr, "wal open failed\n");
    std::filesystem::remove_all(dir);
    return 2;
  }

  net::ServerOptions server_options;
  server_options.port = 0;
  net::Server server(enclave, wal, authority, server_options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    std::filesystem::remove_all(dir);
    return 2;
  }

  const workload::DataSet ds = workload::MediumDataSet();
  const size_t num_keys = Scaled(4'000);

  NetLoadOptions load;
  load.connections = 4;
  load.seconds = seconds;

  Table table("Batched pipeline: networked write-heavy Kop/s vs kBatch depth "
              "(durable group-commit acks)");
  table.Header({"depth", "Kop/s", "speedup", "crossings saved"});

  std::string json = "{\n  \"bench\": \"batch_throughput\",\n"
                     "  \"wal\": \"group_commit_window_us=100, durable acks\",\n"
                     "  \"connections\": " + std::to_string(load.connections) +
                     ",\n  \"results\": [\n";
  double depth1_kops = 0;
  double depth16_kops = 0;
  bool first = true;
  // Each batch sub-op beyond the first would otherwise have been its own
  // frame, session Seal/Open and enclave submission.
  const auto saved_crossings = [&server] {
    const obs::MetricsSnapshot snap = server.BuildStatsSnapshot();
    return net::BatchSubOps(snap) - snap.CounterValue("net.ops.batch");
  };
  for (size_t depth : {1, 4, 16, 64}) {
    const uint64_t saved_before = saved_crossings();
    const double kops =
        RunBatchedNetworkLoad(server.port(), authority, enclave.measurement(), ds, num_keys,
                              depth, load);
    const uint64_t saved = saved_crossings() - saved_before;
    if (depth == 1) {
      depth1_kops = kops;
    }
    if (depth == 16) {
      depth16_kops = kops;
    }
    const double speedup = depth1_kops > 0 ? kops / depth1_kops : 0;
    table.Row({std::to_string(depth), Fmt(kops), Fmt(speedup, "%.2fx"),
               std::to_string(saved)});
    json += std::string(first ? "" : ",\n") + "    {\"depth\": " + std::to_string(depth) +
            ", \"kops\": " + Fmt(kops, "%.2f") +
            ", \"saved_crossings\": " + std::to_string(saved) + "}";
    first = false;
  }
  const double speedup_at_16 = depth1_kops > 0 ? depth16_kops / depth1_kops : 0;
  json += "\n  ],\n  \"speedup_at_depth_16\": " + Fmt(speedup_at_16, "%.2f") + "\n}\n";
  std::ofstream(out_path) << json;
  std::printf("# wrote %s; target: depth 16 >= 2x depth 1 (got %.2fx)\n", out_path.c_str(),
              speedup_at_16);

  server.Stop();
  std::filesystem::remove_all(dir);
  return speedup_at_16 >= 2.0 ? 0 : 1;
}

}  // namespace
}  // namespace shield::bench

int main(int argc, char** argv) {
  double seconds = 0.4;
  std::string out = "BENCH_batch.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      seconds = 0.1;
    } else if (arg == "--seconds" && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_batch_throughput [--smoke] [--seconds S] [--out PATH]\n");
      return 2;
    }
  }
  return shield::bench::Run(seconds, out);
}
