// Standalone ShieldStore server daemon.
//
// Runs the full stack: simulated enclave, partitioned store, attestation
// authority, encrypted network front end, optional durability.
//
//   shieldstore_server --port 4555 --partitions 4 --buckets 1048576 \
//       --hotcalls --authority-seed my-deployment
//
// With --heal-dir DIR the daemon becomes durable and self-healing: the
// untrusted heap is mmap'd onto per-partition arena files in DIR/heap, every
// acknowledged mutation is write-ahead logged, each log compaction audits
// its partitions and writes a cold copy of each arena to DIR/cold (a restart
// writes none: it attaches the arenas and replays the logs since), a paced
// background scrub audits the table, and a partition that fails an integrity
// check is quarantined and rebuilt online (its cold copy, or the empty store
// if its shard never compacted, + its shard's committed log) while the rest
// of the store keeps serving. Without it the
// daemon serves volatile data, optionally still scrubbed in the background.
//
// The enclave measurement is printed at startup; clients pass it to
// shieldstore_cli (out-of-band trust anchor, like a release checksum).
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <string>

#include "src/crypto/aes.h"
#include "src/net/server.h"
#include "src/obs/audit.h"
#include "src/obs/snapshot.h"
#include "src/obs/tracer.h"
#include "src/obs/watchdog.h"
#include "src/router/replica.h"
#include "src/router/shipper.h"
#include "src/shieldstore/oplog.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) {
  g_stop = 1;
}

struct Flags {
  uint16_t port = 4555;
  size_t partitions = 2;
  size_t buckets = 1 << 18;
  size_t epc_mb = 64;
  bool hotcalls = false;
  bool plaintext = false;
  std::string authority_seed = "dev-authority";
  std::string enclave_name = "shieldstore-server-v1";
  std::string heal_dir;         // empty = volatile (no WAL, no recovery)
  size_t persist_capacity_mb = 256;  // arena capacity per partition (--heal-dir)
  int scrub_interval_ms = 50;   // maintenance cadence; 0 disables the scrub
  size_t scrub_budget = 0;      // buckets per tick; 0 = Options default
  size_t wal_shards = 0;        // log shards; 0 = one per partition
  uint32_t wal_window_us = 200;  // group-commit window; must be > 0 (0 drops the hold)
  size_t wal_group_ops = 64;    // cap that closes a group early
  size_t wal_compact_bytes = 64 << 20;  // compact a shard log past this; 0 = never
  int stats_interval_s = 30;    // metrics report cadence; 0 disables
  bool stats_prometheus = false;  // full Prometheus-style dump each report
  std::string stats_json;       // periodic obs::RenderJson dump to this file
  size_t io_threads = 4;        // reactor epoll threads
  size_t max_sessions = 16384;  // live-session cap (excess accepts rejected)
  size_t coalesce_depth = 64;   // implicit pipelined batching; 1 disables
  int hotcall_idle_us = 50;     // idle responder sleep; 0 = legacy pure-spin
  bool replica = false;         // warm standby: accept a primary's kReplicate stream
  uint16_t replica_of = 0;      // that primary's port — informational (push model)
  uint16_t replicate_to = 0;    // primary: ship committed WAL entries to this follower port
  uint32_t trace_sample = 256;  // sample 1-in-N root ops; 1 = every op, 0 = tracing off
  std::string audit_log;        // hash-chained security audit log; empty = off
  int slo_interval_s = 5;       // SLO watchdog cadence; 0 disables the watchdog
  int slo_stage_p99_ms = 50;    // breach: any stage.* p99 over this
  int slo_op_p99_ms = 200;      // breach: any net.latency.* p99 over this
  int slo_loop_lag_p99_ms = 200;  // breach: reactor loop-lag p99 over this
  long long slo_repl_backlog = 65536;  // breach: replication backlog entries over this
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: shieldstore_server [--port N] [--partitions N] [--buckets N]\n"
               "    [--epc-mb N] [--hotcalls] [--plaintext] [--authority-seed S] [--name S]\n"
               "    [--heal-dir DIR] [--persist-capacity-mb N]\n"
               "    [--scrub-interval-ms N] [--scrub-budget N]\n"
               "    [--wal-shards N] [--wal-window-us N] [--wal-group-ops N]\n"
               "    [--wal-compact-bytes N] [--stats-interval-s N] [--stats-prometheus]\n"
               "    [--stats-json FILE] [--io-threads N] [--max-sessions N]\n"
               "    [--coalesce-depth N] [--hotcall-idle-us N]\n"
               "    [--replica-of PRIMARY_PORT] [--replicate-to FOLLOWER_PORT]\n"
               "    [--trace-sample N] [--audit-log FILE] [--slo-interval-s N]\n"
               "    [--slo-stage-p99-ms N] [--slo-op-p99-ms N] [--slo-loop-lag-p99-ms N]\n"
               "    [--slo-repl-backlog N]\n"
               "durability: --wal-window-us N (N >= 1, default 200) is the group-commit\n"
               "window; every ack waits until its record is fsync'd and counter-bumped.\n"
               "observability: --trace-sample N samples 1-in-N root operations into the\n"
               "cross-node tracer (1 = every op, 0 = off; dump with `shieldstore_cli\n"
               "trace`). --audit-log FILE appends every integrity-relevant event to a\n"
               "hash-chained, fsync'd audit log (verify offline with audit_verify).\n"
               "--slo-* set the watchdog thresholds; breaches bump slo.breaches and land\n"
               "in the audit log.\n"
               "replication: --replica-of makes this node a warm standby (the primary on\n"
               "PRIMARY_PORT pushes its stream here; the port is recorded for logs).\n"
               "--replicate-to ships every committed WAL entry to the follower listening\n"
               "on FOLLOWER_PORT (requires --heal-dir; both nodes must share the binary\n"
               "and --authority-seed so the sessions attest).\n"
               "--heal-dir DIR mmaps the untrusted heap onto p<i>.heap arenas in DIR/heap\n"
               "(--persist-capacity-mb each) and writes their cold copies to DIR/cold:\n"
               "restart attaches the arenas in O(1) and replays only the WAL tail. The\n"
               "partition and WAL-shard counts are fixed per heal directory.\n");
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool missing_value = false;
    auto next = [&]() -> const char* {
      if (i + 1 < argc) {
        return argv[++i];
      }
      missing_value = true;
      return "";
    };
    if (arg == "--port") {
      flags->port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--partitions") {
      flags->partitions = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--buckets") {
      flags->buckets = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--epc-mb") {
      flags->epc_mb = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--hotcalls") {
      flags->hotcalls = true;
    } else if (arg == "--plaintext") {
      flags->plaintext = true;
    } else if (arg == "--authority-seed") {
      flags->authority_seed = next();
    } else if (arg == "--name") {
      flags->enclave_name = next();
    } else if (arg == "--heal-dir") {
      flags->heal_dir = next();
    } else if (arg == "--persist-capacity-mb") {
      flags->persist_capacity_mb = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--scrub-interval-ms") {
      flags->scrub_interval_ms = std::atoi(next());
    } else if (arg == "--scrub-budget") {
      flags->scrub_budget = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--wal-shards") {
      flags->wal_shards = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--wal-window-us") {
      flags->wal_window_us = static_cast<uint32_t>(std::atoll(next()));
    } else if (arg == "--wal-group-ops") {
      flags->wal_group_ops = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--wal-compact-bytes") {
      flags->wal_compact_bytes = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--stats-interval-s") {
      flags->stats_interval_s = std::atoi(next());
    } else if (arg == "--stats-prometheus") {
      flags->stats_prometheus = true;
    } else if (arg == "--stats-json") {
      flags->stats_json = next();
    } else if (arg == "--io-threads") {
      flags->io_threads = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--max-sessions") {
      flags->max_sessions = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--coalesce-depth") {
      flags->coalesce_depth = static_cast<size_t>(std::atoll(next()));
    } else if (arg == "--hotcall-idle-us") {
      flags->hotcall_idle_us = std::atoi(next());
    } else if (arg == "--replica-of") {
      flags->replica = true;
      flags->replica_of = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--replicate-to") {
      flags->replicate_to = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--trace-sample") {
      flags->trace_sample = static_cast<uint32_t>(std::atoll(next()));
    } else if (arg == "--audit-log") {
      flags->audit_log = next();
    } else if (arg == "--slo-interval-s") {
      flags->slo_interval_s = std::atoi(next());
    } else if (arg == "--slo-stage-p99-ms") {
      flags->slo_stage_p99_ms = std::atoi(next());
    } else if (arg == "--slo-op-p99-ms") {
      flags->slo_op_p99_ms = std::atoi(next());
    } else if (arg == "--slo-loop-lag-p99-ms") {
      flags->slo_loop_lag_p99_ms = std::atoi(next());
    } else if (arg == "--slo-repl-backlog") {
      flags->slo_repl_backlog = std::atoll(next());
    } else {
      PrintUsage();
      return false;
    }
    if (missing_value) {
      std::fprintf(stderr, "%s needs a value\n", arg.c_str());
      PrintUsage();
      return false;
    }
  }
  return true;
}

// printf's %llu takes unsigned long long, which uint64_t need not be.
unsigned long long Ull(uint64_t v) { return static_cast<unsigned long long>(v); }

// One metrics report, printed by the periodic reporter and at shutdown. The
// "stats:" line covers `now` less `since` (a rate when `since` is an earlier
// snapshot, whole-run totals when it is empty); the batch, WAL and
// self-healing lines are cumulative.
void PrintReport(const shield::obs::MetricsSnapshot& now,
                 const shield::obs::MetricsSnapshot& since) {
  const shield::obs::MetricsSnapshot d = shield::obs::Delta(since, now);
  const uint64_t req = d.CounterValue("net.requests");
  std::printf("stats: %llu req", Ull(req));
  if (since.unix_nanos > 0 && d.unix_nanos > 0) {
    std::printf(" (%.1f/s)", static_cast<double>(req) * 1e9 / static_cast<double>(d.unix_nanos));
  }
  std::printf(" | get %llu set %llu batch %llu (%llu sub-ops) | inflight %lld",
              Ull(d.CounterValue("net.ops.get")), Ull(d.CounterValue("net.ops.set")),
              Ull(d.CounterValue("net.ops.batch")), Ull(d.CounterValue("net.batch_ops")),
              static_cast<long long>(now.GaugeValue("net.inflight")));
  if (const auto* h = d.Histogram("net.latency.get"); h != nullptr && h->count > 0) {
    std::printf(" | get p50/p95/p99 %.0f/%.0f/%.0f us", h->Quantile(0.50) / 1e3,
                h->Quantile(0.95) / 1e3, h->Quantile(0.99) / 1e3);
  }
  const uint64_t batches = now.CounterValue("net.batches");
  const uint64_t batch_ops = now.CounterValue("net.batch_ops");
  std::printf("\nbatch: %llu batches, %llu sub-ops (mean %.1f/batch), %llu crossings saved, "
              "%llu coalesced runs of %llu pipelined frames\n",
              Ull(batches), Ull(batch_ops),
              batches > 0 ? static_cast<double>(batch_ops) / static_cast<double>(batches) : 0.0,
              Ull(now.CounterValue("net.crossings_saved")),
              Ull(now.CounterValue("net.coalesced.batches")),
              Ull(now.CounterValue("net.coalesced.ops")));
  if (now.Has("wal.records")) {
    const auto* per_bump = now.Histogram("wal.epoch_records");
    std::printf("wal: %llu records, %llu commits, %llu fsyncs, %llu compactions, "
                "%llu log bytes over %lld shards, %llu counter bumps (%.1f records/bump)\n",
                Ull(now.CounterValue("wal.records")), Ull(now.CounterValue("wal.commits")),
                Ull(now.CounterValue("wal.fsyncs")), Ull(now.CounterValue("wal.compactions")),
                static_cast<unsigned long long>(now.GaugeValue("wal.log_bytes")),
                static_cast<long long>(now.GaugeValue("wal.shards")),
                Ull(now.CounterValue("wal.epochs")), per_bump != nullptr ? per_bump->Mean() : 0.0);
  }
  if (now.Has("heal.recoveries")) {
    std::printf("self-healing: %llu recoveries (%llu failed), %llu violations detected\n",
                Ull(now.CounterValue("heal.recoveries")),
                Ull(now.CounterValue("heal.failed_recoveries")),
                Ull(now.CounterValue("heal.violations_detected")));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace shield;
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    return 2;
  }
  if (flags.wal_window_us == 0) {
    // Window 0 disables the group-commit hold: committers fsync whatever has
    // arrived and the bumper covers it without waiting, so groups shrink and
    // CPU per op rises (DESIGN.md §17, "Fixed window").
    std::fprintf(stderr,
                 "--wal-window-us must be >= 1: window 0 disables the group-commit hold,\n"
                 "which costs CPU per write without making acks any more durable\n");
    return 2;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // Observability plumbing first: events from the very first attach/restore
  // must already land in the audit chain and the tracer.
  obs::TraceSetSampleEvery(flags.trace_sample);
  obs::AuditLog audit_log;
  if (!flags.audit_log.empty()) {
    if (Status s = audit_log.Open(flags.audit_log); !s.ok()) {
      // A refused chain means the existing log failed verification. Starting
      // anyway would silently fork history; make the operator move it aside.
      std::fprintf(stderr, "audit log open failed: %s\n", s.ToString().c_str());
      return 1;
    }
    obs::InstallAuditLog(&audit_log);
  }

  sgx::EnclaveConfig enclave_config;
  enclave_config.name = flags.enclave_name;
  enclave_config.epc.epc_bytes = flags.epc_mb << 20;
  sgx::Enclave enclave(enclave_config);
  sgx::AttestationAuthority authority(AsBytes(flags.authority_seed));

  shieldstore::Options options;
  options.num_buckets = flags.buckets;
  if (flags.scrub_budget > 0) {
    options.scrub_budget_buckets = flags.scrub_budget;
  }
  if (!flags.heal_dir.empty()) {
    options.persist_dir = flags.heal_dir + "/heap";
  }
  options.persist_capacity_bytes = std::max<size_t>(flags.persist_capacity_mb, 1) << 20;
  shieldstore::PartitionedStore store(enclave, options, flags.partitions);

  // Self-healing stack (only when --heal-dir names a durable directory).
  std::unique_ptr<sgx::SealingService> sealer;
  std::unique_ptr<sgx::MonotonicCounterService> counters;
  std::unique_ptr<shieldstore::WriteAheadStore> wal;
  std::unique_ptr<shieldstore::SelfHealer> healer;
  if (!flags.heal_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(flags.heal_dir, ec);
    sealer = std::make_unique<sgx::SealingService>(AsBytes(flags.authority_seed),
                                                   enclave.measurement());
    sgx::MonotonicCounterService::Options counter_opts;
    counter_opts.backing_file = flags.heal_dir + "/counters.bin";
    counters = std::make_unique<sgx::MonotonicCounterService>(counter_opts);
    shieldstore::OpLogOptions log_opts;
    log_opts.path = flags.heal_dir + "/wal.log";
    log_opts.num_shards = flags.wal_shards;
    log_opts.group_commit_window_us = flags.wal_window_us;
    log_opts.group_commit_ops = std::max<size_t>(flags.wal_group_ops, 1);
    wal = std::make_unique<shieldstore::WriteAheadStore>(store, *sealer, *counters, log_opts);
    if (Status s = wal->Open(); !s.ok()) {
      std::fprintf(stderr, "oplog open failed: %s\n", s.ToString().c_str());
      return 1;
    }
    shieldstore::SelfHealOptions heal_opts;
    heal_opts.directory = flags.heal_dir + "/cold";
    heal_opts.scrub = flags.scrub_interval_ms > 0;
    heal_opts.compact_log_bytes = flags.wal_compact_bytes;
    healer = std::make_unique<shieldstore::SelfHealer>(*wal, *sealer, *counters, heal_opts);
    // Restore the previous run's durable state (the attached arenas + the
    // committed suffix of every shard log) into the empty store; Start() then
    // repairs any cold copy a compaction crash left behind. Replayed ops go
    // straight to the inner store so they are not re-logged.
    const auto restore_start = std::chrono::steady_clock::now();
    if (Status s = healer->Restore(); !s.ok()) {
      std::fprintf(stderr, "restore failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const auto restore_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - restore_start)
                                .count();
    if (store.Size() > 0) {
      std::printf("self-healing: restored %zu keys from %s in %.2f ms "
                  "(arena attach + WAL tail; entry MACs re-verify lazily)\n",
                  store.Size(), flags.heal_dir.c_str(), static_cast<double>(restore_ns) / 1e6);
    }
    if (Status s = healer->Start(); !s.ok()) {
      std::fprintf(stderr, "cold-copy repair failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  if (flags.replicate_to != 0 && wal == nullptr) {
    std::fprintf(stderr, "--replicate-to requires --heal-dir (replication ships the WAL)\n");
    return 2;
  }

  // Warm standby: the primary's WalShipper pushes kReplicate frames at us;
  // they apply through the SAME facade clients would write through, so a
  // follower with --heal-dir re-logs every replicated entry into its own WAL
  // and is itself durable (and promotable) state.
  std::unique_ptr<router::ReplicaNode> replica;
  if (flags.replica) {
    replica = std::make_unique<router::ReplicaNode>(
        wal != nullptr ? static_cast<kv::KeyValueStore&>(*wal)
                       : static_cast<kv::KeyValueStore&>(store));
  }

  // Set after the Server is constructed; the maintenance lambda (created
  // first) reads its stats snapshot for the report and the watchdog.
  net::Server* server_ref = nullptr;
  net::ServerOptions server_options;
  if (replica != nullptr) {
    server_options.replicate_handler = [&replica](const net::Request& request) {
      return replica->HandleReplicate(request);
    };
  }
  server_options.port = flags.port;
  server_options.use_hotcalls = flags.hotcalls;
  server_options.enclave_workers = flags.partitions;
  server_options.encrypt = !flags.plaintext;
  server_options.hotcall_idle_sleep_us = flags.hotcall_idle_us;
  server_options.io_threads = std::max<size_t>(flags.io_threads, 1);
  server_options.max_sessions = std::max<size_t>(flags.max_sessions, 1);
  server_options.coalesce_depth = std::max<size_t>(flags.coalesce_depth, 1);
  // SLO watchdog: evaluated from the maintenance thread over registry deltas.
  // Breaches bump slo.breaches and land in the audit chain (kSloBreach).
  std::shared_ptr<obs::SloWatchdog> watchdog;
  if (flags.slo_interval_s > 0) {
    obs::SloThresholds thresholds;
    thresholds.stage_p99_ns = static_cast<uint64_t>(std::max(flags.slo_stage_p99_ms, 1)) * 1000000ull;
    thresholds.op_p99_ns = static_cast<uint64_t>(std::max(flags.slo_op_p99_ms, 1)) * 1000000ull;
    thresholds.loop_lag_p99_ns =
        static_cast<uint64_t>(std::max(flags.slo_loop_lag_p99_ms, 1)) * 1000000ull;
    thresholds.repl_backlog_entries = std::max<int64_t>(flags.slo_repl_backlog, 1);
    watchdog = std::make_shared<obs::SloWatchdog>(thresholds);
  }
  // One maintenance thread does every periodic chore: the self-healing tick
  // (recovery, compaction, paced scrub) or, in volatile mode, the bare scrub
  // — a violation there quarantines the partition for good, as there is no
  // WAL to heal from — plus the stats report and the SLO watchdog. It ticks
  // every --scrub-interval-ms, or once a second when that is 0 (scrub off).
  const bool scrub = flags.scrub_interval_ms > 0;
  if (healer != nullptr || scrub || flags.stats_interval_s > 0 || watchdog != nullptr) {
    const int interval_ms = scrub ? flags.scrub_interval_ms : 1000;
    const auto every = [interval_ms](int seconds) {
      return seconds > 0 ? std::max<uint64_t>(uint64_t{1000} * seconds / interval_ms, 1) : 0;
    };
    const uint64_t stats_every = every(flags.stats_interval_s);
    const uint64_t slo_every = watchdog != nullptr ? every(flags.slo_interval_s) : 0;
    server_options.maintenance = [&healer, &store, &server_ref, &flags, watchdog, scrub,
                                  stats_every, slo_every, ticks = uint64_t{0},
                                  last = obs::MetricsSnapshot{}]() mutable {
      if (healer != nullptr) {
        healer->Tick();
      } else if (scrub) {
        (void)store.ScrubTick();
      }
      ++ticks;
      if (server_ref == nullptr) {
        return;
      }
      if (stats_every > 0 && ticks % stats_every == 0) {
        // Rates over the last interval, plus cumulative context.
        obs::MetricsSnapshot now = server_ref->BuildStatsSnapshot();
        if (!flags.stats_json.empty()) {
          // Machine-readable dump for scrapers: written whole, then renamed,
          // so a reader never sees a torn file.
          const std::string tmp = flags.stats_json + ".tmp";
          if (FILE* f = std::fopen(tmp.c_str(), "wb"); f != nullptr) {
            const std::string json = obs::RenderJson(now);
            std::fwrite(json.data(), 1, json.size(), f);
            std::fclose(f);
            std::rename(tmp.c_str(), flags.stats_json.c_str());
          }
        }
        PrintReport(now, last);
        if (flags.stats_prometheus) {
          std::fputs(obs::RenderPrometheus(now).c_str(), stdout);
        }
        std::fflush(stdout);
        last = std::move(now);
      }
      if (slo_every > 0 && ticks % slo_every == 0) {
        watchdog->Evaluate(server_ref->BuildStatsSnapshot());
      }
    };
    server_options.maintenance_interval_ms = interval_ms;
  }
  net::Server server(enclave, wal != nullptr ? static_cast<kv::KeyValueStore&>(*wal)
                                             : static_cast<kv::KeyValueStore&>(store),
                     authority, server_options);
  server_ref = &server;

  // Primary half of replication. Install the sink BEFORE Attach() so entries
  // committed during the bootstrap dump are backlogged, not lost. A failed
  // attach (follower still booting) is not fatal: the commit path keeps
  // retrying the connection and the follower forces a bootstrap on contact.
  std::unique_ptr<router::WalShipper> shipper;
  if (flags.replicate_to != 0) {
    router::ShipperOptions ship_opts;
    ship_opts.follower_port = flags.replicate_to;
    ship_opts.encrypt = !flags.plaintext;
    // Epoch must change across primary restarts so a follower never merges
    // two primary lifetimes into one stream.
    ship_opts.epoch = (static_cast<uint64_t>(std::time(nullptr)) << 16) ^
                      static_cast<uint64_t>(getpid());
    if (ship_opts.epoch == 0) {
      ship_opts.epoch = 1;
    }
    ship_opts.attach_attempts = 50;
    // Thread trace contexts through the replication stream: a sampled
    // mutation's trace follows its WAL records onto the follower.
    ship_opts.client.enable_tracing = flags.trace_sample > 0;
    shipper = std::make_unique<router::WalShipper>(*wal, authority, enclave.measurement(),
                                                   ship_opts);
    wal->SetReplicationSink(shipper.get());
    if (Status s = shipper->Attach(); !s.ok()) {
      std::fprintf(stderr, "replication attach deferred: %s (commit path will retry)\n",
                   s.ToString().c_str());
    }
  }

  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("shieldstore: listening on 127.0.0.1:%u (%s entry, %s)\n", server.port(),
              flags.hotcalls ? "HotCalls" : "ECALL",
              flags.plaintext ? "PLAINTEXT sessions" : "encrypted sessions");
  std::printf("enclave measurement (give to clients): %s\n",
              HexEncode(ByteSpan(enclave.measurement().data(), 32)).c_str());
  std::printf("reactor: %zu io threads, %zu max sessions, coalesce depth %zu\n",
              server_options.io_threads, server_options.max_sessions,
              server_options.coalesce_depth);
  std::printf("crypto: %s backend (aes-ni %s)\n",
              crypto::AesBackendName(crypto::Aes128::Backend()),
              crypto::AesNiAvailable() ? "available" : "unavailable");
  if (flags.trace_sample > 0) {
    std::printf("tracing: sampling 1-in-%u root ops (drain with `shieldstore_cli trace`)\n",
                flags.trace_sample);
  }
  if (audit_log.is_open()) {
    std::printf("audit: hash-chained log at %s (%llu records so far)\n",
                flags.audit_log.c_str(),
                static_cast<unsigned long long>(audit_log.records_written()));
  }
  if (watchdog != nullptr) {
    std::printf("slo watchdog: every %d s (stage p99 %d ms, op p99 %d ms, loop lag p99 %d ms, "
                "repl backlog %lld)\n",
                flags.slo_interval_s, flags.slo_stage_p99_ms, flags.slo_op_p99_ms,
                flags.slo_loop_lag_p99_ms, flags.slo_repl_backlog);
  }
  if (healer != nullptr) {
    std::printf("self-healing: on (dir %s, %zu MB arena per partition, scrub every %d ms)\n",
                flags.heal_dir.c_str(), flags.persist_capacity_mb, flags.scrub_interval_ms);
    std::printf("wal: %zu shards, %u us group-commit window, %zu ops/group, compact at %zu bytes\n",
                wal->num_shards(), flags.wal_window_us, flags.wal_group_ops,
                flags.wal_compact_bytes);
  } else if (flags.scrub_interval_ms > 0) {
    std::printf("self-healing: off (background scrub every %d ms)\n", flags.scrub_interval_ms);
  }
  if (replica != nullptr) {
    std::printf("replication: warm standby for primary on port %u (kPromote flips to primary)\n",
                flags.replica_of);
  }
  if (shipper != nullptr) {
    std::printf("replication: shipping committed WAL entries to follower on port %u (%s)\n",
                flags.replicate_to, shipper->connected() ? "attached" : "attach pending");
  }
  std::fflush(stdout);

  // Serve until signalled.
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("shutting down (%llu requests served)\n",
              static_cast<unsigned long long>(server.requests_served()));
  server.Stop();
  if (shipper != nullptr) {
    // Detach before the shipper is destroyed (it dies before the WAL).
    wal->SetReplicationSink(nullptr);
    std::printf("replication: %zu entries still backlogged at shutdown\n",
                shipper->backlog_entries());
  }
  // Whole-run totals, rendered like the periodic report.
  PrintReport(server.BuildStatsSnapshot(), obs::MetricsSnapshot{});
  return 0;
}
