// The networked ShieldStore front end (§6.4).
//
// Untrusted I/O threads own the sockets (an enclave cannot issue system
// calls); every request must enter the enclave for session decryption and
// store access. A small epoll reactor pool (ServerOptions::io_threads)
// multiplexes thousands of non-blocking sessions; adjacent complete
// pipelined singleton frames from one session are coalesced into one
// enclave submission and one store ExecuteBatch (implicit batching), with
// responses in order and byte-identical to sequential execution. Every data
// request reaches the store through that one ExecuteBatch path: a lone
// singleton frame is a run of one, and an explicit kBatch frame is one
// batch. Durable acks never block a serving thread: the store's SubmitBatch
// returns a durability requirement with the results, the sealed responses
// wait in the session's FIFO, and the store's DurabilityWatch wakes the
// reactor to release them once fsync'd, counter-bumped and shipped.
// Two enclave entry mechanisms reproduce the paper's comparison:
//  * ECALL per submission — two ~8000-cycle crossings each;
//  * HotCalls — the I/O thread publishes the run in shared memory and a
//    dedicated in-enclave worker thread polls and executes it, no crossings.
#ifndef SHIELDSTORE_SRC_NET_SERVER_H_
#define SHIELDSTORE_SRC_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "src/kv/interface.h"
#include "src/net/channel.h"
#include "src/net/protocol.h"
#include "src/net/reactor.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/sgx/attestation.h"
#include "src/sgx/enclave.h"
#include "src/sgx/hotcalls.h"

namespace shield::net {

struct ServerOptions {
  uint16_t port = 0;  // 0 = ephemeral; read back with port()
  bool use_hotcalls = false;
  size_t enclave_workers = 2;  // HotCalls responder threads
  bool encrypt = true;         // session record protection (±net crypto, §6.4)

  // Reactor sizing: untrusted epoll I/O threads and the live-session cap
  // (accepts past the cap are closed immediately and counted).
  size_t io_threads = 4;
  size_t max_sessions = 16384;

  // Implicit pipelined batching: up to this many adjacent complete singleton
  // frames from one session are executed as one store batch (one enclave
  // submission, one durability requirement per touched WAL shard). 1
  // disables coalescing; responses are byte-identical either way.
  size_t coalesce_depth = 64;

  // Metrics registry for per-verb counters, end-to-end latency histograms,
  // the in-flight gauge, and the enclave-boundary stage tracer. nullptr
  // uses the process-wide obs::Registry::Global(); tests inject a fresh
  // registry for exact-count assertions.
  obs::Registry* metrics = nullptr;

  // Replication hook: when set, kReplicate frames (singleton-only, already
  // session-authenticated) are handed to the deployment instead of answering
  // kUnsupported. A warm standby points this at ReplicaNode::HandleReplicate;
  // the net layer stays ignorant of replication semantics.
  std::function<Response(const Request&)> replicate_handler;

  // Background maintenance, run on a dedicated thread for the server's
  // lifetime: called every maintenance_interval_ms while serving. The
  // self-healing deployment points this at SelfHealer::Tick so the paced
  // scrub and partition recovery ride alongside live traffic — the listener
  // never stops, healthy partitions keep serving, and keys in a quarantined
  // partition answer with the typed kPartitionRecovering until healed.
  std::function<void()> maintenance;
  int maintenance_interval_ms = 20;
};

// Sub-ops carried by kBatch frames: the sum of a snapshot's
// net.batch_ops.<verb> counters (net.ops.batch counts the frames).
uint64_t BatchSubOps(const obs::MetricsSnapshot& snap);

class Server {
 public:
  // `store` must be thread-safe (e.g. PartitionedStore); it is shared by
  // all connections.
  Server(sgx::Enclave& enclave, kv::KeyValueStore& store,
         const sgx::AttestationAuthority& authority, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  Status Start();
  void Stop();

  uint16_t port() const { return port_; }
  // Frames served, read from this server's net.requests counter (see
  // ServerOptions::metrics). Servers sharing a registry share the total; a
  // SHIELD_METRICS=OFF build reads 0. Batching figures come from
  // BuildStatsSnapshot(): net.ops.batch counts kBatch frames, the
  // net.batch_ops.<verb> counters their sub-ops, and the net.coalesce_depth
  // histogram the coalesced runs (count) and the frames they held (sum).
  uint64_t requests_served() const { return requests_->Value(); }
  size_t live_sessions() const { return reactor_ != nullptr ? reactor_->live_sessions() : 0; }

  // One tear-free fold of everything observable from this server: the
  // registry (per-verb counters, latency + stage histograms, and whatever
  // the storage layers recorded there when they share it: partition health,
  // WAL, self-heal), plus the engine's own counters bridged at read time —
  // the store's kv::StoreStats, EPC paging and crossing counters from the
  // enclave. This is the payload of the kStats protocol verb and the
  // daemon's --stats line.
  obs::MetricsSnapshot BuildStatsSnapshot();

 private:
  // One reactor frame run posted to a HotCalls responder: every complete
  // sealed record buffered for one session, answered in order.
  struct SessionRunTask {
    SessionCrypto* session;
    std::span<const ByteSpan> records;
    FrameRun* run;
  };

  void EnclaveWorkerLoop();
  void MaintenanceLoop();
  // Enclave-side processing of one session run, in one pass over buffers
  // the serving thread reuses: open every record in receipt order (one
  // OpenRun), decode to views, execute — coalescing adjacent singleton ops
  // into one store batch — writing each response in place into
  // run.frames, and seal them all (one SealFrames), merging the store's
  // durability requirements into run.requirement. Sets run.close_after on
  // an unauthentic record (typed error is still the last response). Used by
  // both entry mechanisms.
  void ProcessSessionRun(SessionCrypto& session, std::span<const ByteSpan> records,
                         FrameRun& run);
  // Reactor settle hook: releases a run once its requirement is durable,
  // recording its hold (stage.commit_wait) and per-verb latency then.
  Reactor::Handlers::Settle SettleRun(FrameRun& run);
  // Control verbs only (stats, replicate, trace dump; a smuggled kBatch
  // opcode answers kProtocolError). Data verbs never come here.
  Response Dispatch(const Request& request);
  // The only data path: maps wire requests onto ONE store SubmitBatch call,
  // merges its durability requirement into run.requirement and appends the
  // unsealed responses to run.frames, each frame with a `mac_slot`-byte MAC
  // slot. `implicit` selects the framing and the metric family: true for a
  // run of singleton frames (one frame, or reactor-coalesced pipelined
  // frames; one response frame per op), false for an explicit kBatch frame
  // (one batch-response frame).
  void RunOps(std::span<const RequestView> ops, bool implicit, FrameRun& run, size_t mac_slot);

  sgx::Enclave& enclave_;
  kv::KeyValueStore& store_;
  const sgx::AttestationAuthority& authority_;
  ServerOptions options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::unique_ptr<Reactor> reactor_;
  // The store's durable watermarks (nullptr for a volatile store: nothing
  // is ever held) and this server's wake subscription on them.
  kv::DurabilityWatch* watch_ = nullptr;
  uint64_t watch_token_ = 0;

  std::unique_ptr<sgx::HotCallChannel> hotcalls_;
  std::vector<std::thread> enclave_workers_;

  std::thread maintenance_thread_;
  std::mutex maintenance_mutex_;
  std::condition_variable maintenance_cv_;  // wakes the thread on Stop()

  // Metric handles, cached at construction (registry lookups take a mutex).
  // Verb-indexed arrays use the raw opcode (1..10); slot 0 stays null.
  static constexpr size_t kVerbSlots = 11;
  obs::Registry* metrics_ = nullptr;
  obs::Counter* op_counters_[kVerbSlots] = {};        // net.ops.<verb>
  obs::Counter* batch_verb_counters_[kVerbSlots] = {};  // net.batch_ops.<verb>
  obs::Histogram* op_latency_[kVerbSlots] = {};       // net.latency.<verb>, e2e ns
  obs::Counter* requests_ = nullptr;                  // net.requests (frames)
  obs::Gauge* inflight_ = nullptr;                    // net.inflight
  obs::Counter* auth_failures_ = nullptr;             // net.auth_failures
  obs::Counter* protocol_errors_ = nullptr;           // net.protocol_errors
  obs::Histogram* batch_frame_bytes_ = nullptr;       // net.batch_frame_bytes
  obs::Histogram* coalesce_depth_ = nullptr;          // net.coalesce_depth (runs > 1)
  obs::Counter* maintenance_ticks_ = nullptr;         // net.maintenance_ticks
};

}  // namespace shield::net

#endif  // SHIELDSTORE_SRC_NET_SERVER_H_
