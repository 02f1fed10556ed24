#include "src/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "src/common/logging.h"
#include "src/crypto/aes.h"

namespace shield::net {

namespace {

// Indexed by raw opcode; slot 0 is the "unknown" sentinel.
constexpr const char* kVerbNames[] = {nullptr,  "get",  "set",   "delete", "append",
                                      "increment", "ping", "batch", "stats", "replicate",
                                      "tracedump"};

// Server-side span names, indexed the same way (static literals: the tracer
// stores the pointer).
constexpr const char* kServerSpanNames[] = {
    "server.op",        "server.get",   "server.set",   "server.delete",
    "server.append",    "server.increment", "server.ping", "server.batch",
    "server.stats",     "server.replicate", "server.tracedump"};

// One decoded frame of a run. Its requests are [begin, end) of
// RunScratch::ops: one for a singleton frame, the sub-requests of a kBatch.
struct Unit {
  enum Kind : uint8_t { kOp, kSingle, kBatch, kError } kind = kError;
  uint32_t begin = 0;
  uint32_t end = 0;
  obs::TraceContext trace;  // peeled frame-header extension (if any)
};

// What one run needs beyond its FrameRun. The serving thread (a reactor
// thread under ECALLs, a responder under HotCalls) keeps one and reuses it,
// so steady runs allocate nothing here.
struct RunScratch {
  Bytes plaintext;              // every opened record of the run
  std::vector<ByteSpan> opened;  // one view per record, into plaintext
  std::vector<Unit> units;
  // Every decoded request in frame order, views into plaintext. Adjacent
  // kOp units' requests are adjacent here, so a coalesced run is a span.
  std::vector<RequestView> ops;
  // The store batch, and ops parked off its end: their key and value
  // strings keep their capacity from run to run.
  std::vector<kv::BatchOp> store_ops;
  std::vector<kv::BatchOp> spare_ops;
};

RunScratch& ThreadScratch() {
  thread_local RunScratch scratch;
  return scratch;
}

// The store op a wire verb runs as; false for pings and control verbs.
bool StoreOpType(OpCode op, kv::BatchOpType* type) {
  switch (op) {
    case OpCode::kGet:
      *type = kv::BatchOpType::kGet;
      return true;
    case OpCode::kSet:
      *type = kv::BatchOpType::kSet;
      return true;
    case OpCode::kDelete:
      *type = kv::BatchOpType::kDelete;
      return true;
    case OpCode::kAppend:
      *type = kv::BatchOpType::kAppend;
      return true;
    case OpCode::kIncrement:
      *type = kv::BatchOpType::kIncrement;
      return true;
    case OpCode::kPing:
    case OpCode::kBatch:
    case OpCode::kStats:
    case OpCode::kReplicate:
    case OpCode::kTraceDump:
      return false;
  }
  return false;
}

// Sizes `ops` to `n`, parking dropped ops in `spare` and taking parked ones
// back first.
void ResizeOps(std::vector<kv::BatchOp>& ops, std::vector<kv::BatchOp>& spare, size_t n) {
  while (ops.size() > n) {
    spare.push_back(std::move(ops.back()));
    ops.pop_back();
  }
  while (ops.size() < n) {
    if (spare.empty()) {
      ops.emplace_back();
    } else {
      ops.push_back(std::move(spare.back()));
      spare.pop_back();
    }
  }
}

// Appends one unsealed single-response frame.
void AppendResponseFrame(FrameRun& run, Code status, std::string_view value, size_t mac_slot) {
  const size_t start = run.BeginFrame();
  AppendResponse(run.frames, status, value);
  run.EndFrame(start, mac_slot);
}

}  // namespace

Server::Server(sgx::Enclave& enclave, kv::KeyValueStore& store,
               const sgx::AttestationAuthority& authority, const ServerOptions& options)
    : enclave_(enclave), store_(store), authority_(authority), options_(options) {
  metrics_ = options_.metrics != nullptr ? options_.metrics : &obs::Registry::Global();
  for (size_t op = 1; op < kVerbSlots; ++op) {
    const std::string verb = kVerbNames[op];
    op_counters_[op] = &metrics_->GetCounter("net.ops." + verb);
    op_latency_[op] = &metrics_->GetHistogram("net.latency." + verb);
    // kBatch/kStats are never valid sub-ops, so no batch counters for them.
    if (op <= static_cast<size_t>(OpCode::kPing)) {
      batch_verb_counters_[op] = &metrics_->GetCounter("net.batch_ops." + verb);
    }
  }
  requests_ = &metrics_->GetCounter("net.requests");
  batches_ = &metrics_->GetCounter("net.batches");
  batch_ops_ = &metrics_->GetCounter("net.batch_ops");
  crossings_saved_ = &metrics_->GetCounter("net.crossings_saved");
  inflight_ = &metrics_->GetGauge("net.inflight");
  auth_failures_ = &metrics_->GetCounter("net.auth_failures");
  protocol_errors_ = &metrics_->GetCounter("net.protocol_errors");
  batch_frame_bytes_ = &metrics_->GetHistogram("net.batch_frame_bytes");
  coalesced_batches_ = &metrics_->GetCounter("net.coalesced.batches");
  coalesced_ops_ = &metrics_->GetCounter("net.coalesced.ops");
  coalesce_depth_ = &metrics_->GetHistogram("net.coalesce_depth");
  maintenance_ticks_ = &metrics_->GetCounter("net.maintenance_ticks");
  watch_ = store_.durability_watch();
}

Server::~Server() {
  Stop();
}

Status Server::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status(Code::kIoError, "socket() failed");
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status(Code::kIoError, "bind() failed");
  }
  socklen_t addr_len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  // Deep backlog: a many-session client ramp (bench_netload's 10k sockets)
  // arrives much faster than single-core handshakes drain it.
  if (listen(listen_fd_, 1024) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status(Code::kIoError, "listen() failed");
  }

  if (options_.use_hotcalls) {
    hotcalls_ = std::make_unique<sgx::HotCallChannel>(512);
    for (size_t i = 0; i < std::max<size_t>(options_.enclave_workers, 1); ++i) {
      enclave_workers_.emplace_back([this] { EnclaveWorkerLoop(); });
    }
  }
  if (options_.maintenance) {
    maintenance_thread_ = std::thread([this] { MaintenanceLoop(); });
  }

  ReactorOptions ropts;
  ropts.io_threads = options_.io_threads;
  ropts.max_sessions = options_.max_sessions;
  ropts.coalesce_depth = std::max<size_t>(options_.coalesce_depth, 1);
  ropts.sessions_gauge = &metrics_->GetGauge("net.sessions");
  ropts.sessions_opened = &metrics_->GetCounter("net.sessions_opened");
  ropts.sessions_rejected = &metrics_->GetCounter("net.sessions_rejected");
  ropts.loop_lag = &metrics_->GetHistogram("net.reactor_loop_lag");

  Reactor::Handlers handlers;
  handlers.on_handshake = [this](Session& s, ByteSpan hello, Bytes* reply) {
    // Handshake: enclave work, entered once per connection.
    Result<ServerHandshakeReply> hs = enclave_.boundary().Ecall(
        [&] { return ServerHandshakeHello(hello, enclave_, authority_); });
    if (!hs.ok()) {
      SHIELD_LOG(Info) << "handshake failed: " << hs.status().ToString();
      return false;
    }
    s.InstallCrypto(hs->key_material, options_.encrypt);
    *reply = std::move(hs->reply);
    return true;
  };
  handlers.on_frames = [this](Session& s, std::span<const ByteSpan> records, FrameRun& run) {
    inflight_->Add(static_cast<int64_t>(records.size()));
    if (options_.use_hotcalls) {
      SessionRunTask task{s.crypto(), records, &run};
      bool submitted;
      {
        // Boundary round-trip: post in shared memory -> responder done flag.
        obs::ScopedStage stage(metrics_, obs::Stage::kEnclaveSubmit);
        submitted = hotcalls_->Call(0, &task);
      }
      if (!submitted) {
        run.close_after = true;  // server stopping
      }
    } else {
      // Classic path: one ECALL (two crossings) per run of frames.
      obs::ScopedStage stage(metrics_, obs::Stage::kEnclaveSubmit);
      enclave_.boundary().Ecall([&] {
        ProcessSessionRun(*s.crypto(), records, run);
        return 0;
      });
    }
    run.executed_at = obs::TimerStart();
    inflight_->Add(-static_cast<int64_t>(records.size()));
  };
  handlers.settle = [this](FrameRun& run) { return SettleRun(run); };

  reactor_ = std::make_unique<Reactor>(ropts, std::move(handlers));
  if (Status s = reactor_->Start(listen_fd_); !s.ok()) {
    reactor_.reset();
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (watch_ != nullptr) {
    // Committers publish watermarks; every loop then settles its held runs.
    watch_token_ = watch_->Subscribe([this] { reactor_->WakeAll(); });
  }
  return Status::Ok();
}

Reactor::Handlers::Settle Server::SettleRun(FrameRun& run) {
  if (!run.requirement.empty()) {
    Status failure;
    switch (watch_->Check(run.requirement, &failure)) {
      case kv::DurabilityWatch::State::kPending:
        return Reactor::Handlers::Settle::kHold;
      case kv::DurabilityWatch::State::kFailed:
        SHIELD_LOG(Warning) << "closing session: held responses can never become durable: "
                            << failure.ToString();
        return Reactor::Handlers::Settle::kFail;
      case kv::DurabilityWatch::State::kDurable:
        break;
    }
  }
  if (!run.stamps.empty()) {
    const uint64_t now = obs::TimerStart();
    if (!run.requirement.empty()) {
      metrics_->StageHistogram(obs::Stage::kCommitWait).RecordCycles(now - run.executed_at);
    }
    for (const auto& [verb, t_start] : run.stamps) {
      op_latency_[verb]->RecordCycles(now - t_start);
    }
  }
  return Reactor::Handlers::Settle::kRelease;
}

void Server::MaintenanceLoop() {
  // Paced driver for the self-healing tick (or any other periodic chore):
  // runs beside the serving threads and exits promptly on Stop().
  const auto interval =
      std::chrono::milliseconds(std::max(options_.maintenance_interval_ms, 1));
  std::unique_lock<std::mutex> lock(maintenance_mutex_);
  while (!stopping_.load(std::memory_order_acquire)) {
    lock.unlock();
    options_.maintenance();
    // Fold per-thread span rings into the central buffer so kTraceDump sees
    // spans from every I/O and responder thread, and overflow drops are
    // bounded by one maintenance interval.
    obs::TraceDrain();
    maintenance_ticks_->Inc();
    lock.lock();
    maintenance_cv_.wait_for(lock, interval, [this] {
      return stopping_.load(std::memory_order_acquire);
    });
  }
}

void Server::Stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(maintenance_mutex_);
    maintenance_cv_.notify_all();
  }
  if (maintenance_thread_.joinable()) {
    maintenance_thread_.join();
  }
  // No wakes once the reactor starts tearing down its wake fds; its Stop
  // drain polls held runs instead.
  if (watch_token_ != 0) {
    watch_->Unsubscribe(watch_token_);
    watch_token_ = 0;
  }
  // Reactor first: its threads drain pending responses (an in-flight
  // request keeps its write side so the response still reaches the client)
  // and may be parked inside a HotCall, so the responders must outlive them.
  if (reactor_ != nullptr) {
    reactor_->Stop();
  }
  if (listen_fd_ >= 0) {
    shutdown(listen_fd_, SHUT_RDWR);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  if (hotcalls_ != nullptr) {
    hotcalls_->Stop();
    for (std::thread& t : enclave_workers_) {
      if (t.joinable()) {
        t.join();
      }
    }
    enclave_workers_.clear();
  }
}

Response Server::Dispatch(const Request& request) {
  Response response;
  if (obs::Counter* c = op_counters_[static_cast<uint8_t>(request.op)]; c != nullptr) {
    c->Inc();
  }
  switch (request.op) {
    case OpCode::kStats: {
      // Snapshot-on-read: folding the registry and bridging component stats
      // happens only when a client asks, never on the op hot path.
      const Bytes frame = obs::EncodeStatsSnapshot(BuildStatsSnapshot());
      response.status = Code::kOk;
      response.value.assign(reinterpret_cast<const char*>(frame.data()), frame.size());
      break;
    }
    case OpCode::kReplicate:
      // Replication semantics live with the deployment (ReplicaNode on a
      // warm standby, a replication host on a primary); a server with no
      // handler is simply not part of a replicated topology.
      if (options_.replicate_handler) {
        response = options_.replicate_handler(request);
      } else {
        response.status = Code::kUnsupported;
      }
      break;
    case OpCode::kTraceDump: {
      // Destructive drain of the span buffer: fold every thread ring first
      // so the dump includes spans recorded since the last maintenance tick.
      obs::TraceDrain();
      const Bytes frame = obs::EncodeTraceDump(obs::TraceConsume());
      response.status = Code::kOk;
      response.value.assign(reinterpret_cast<const char*>(frame.data()), frame.size());
      break;
    }
    case OpCode::kGet:
    case OpCode::kSet:
    case OpCode::kDelete:
    case OpCode::kAppend:
    case OpCode::kIncrement:
    case OpCode::kPing:
    case OpCode::kBatch:
      // Data verbs and pings always run through RunOps (a singleton frame
      // is a run of one), and batch frames are decoded apart; what reaches
      // here is a kBatch opcode smuggled into a single-op frame.
      response.status = Code::kProtocolError;
      break;
  }
  return response;
}

void Server::RunOps(std::span<const RequestView> ops, bool implicit, FrameRun& run,
                    size_t mac_slot) {
  // The one wire->store mapping: pings answer inline; everything else
  // funnels into ONE store SubmitBatch call, where the engine amortizes
  // locks / MAC recomputes / log appends and never waits for a commit.
  // Metric family: explicit kBatch frames count as batch sub-ops; implicit
  // runs (a singleton frame, or reactor-coalesced pipelined frames) count
  // as the singleton requests they are — exactly what sequential execution
  // would have recorded.
  RunScratch& scratch = ThreadScratch();
  std::vector<kv::BatchOp>& batch = scratch.store_ops;
  obs::Counter* const* family = implicit ? op_counters_ : batch_verb_counters_;
  size_t stored = 0;
  kv::BatchOpType type;
  for (const RequestView& r : ops) {
    if (obs::Counter* c = family[static_cast<uint8_t>(r.op)]; c != nullptr) {
      c->Inc();
    }
    stored += StoreOpType(r.op, &type) ? 1 : 0;
  }
  ResizeOps(batch, scratch.spare_ops, stored);
  size_t j = 0;
  for (const RequestView& r : ops) {
    if (StoreOpType(r.op, &type)) {
      kv::BatchOp& op = batch[j++];
      op.type = type;
      op.key.assign(r.key);
      op.value.assign(r.value);
      op.delta = r.delta;
    }
  }
  std::vector<kv::BatchOpResult> results;
  if (!batch.empty()) {
    kv::DurabilityRequirement needs;
    results = store_.SubmitBatch(batch, needs);
    run.requirement.Merge(needs);
  }
  size_t batch_frame = 0;
  if (!implicit) {
    batch_frame = run.BeginFrame();
    AppendBatchResponseHeader(run.frames, static_cast<uint32_t>(ops.size()));
  }
  j = 0;
  for (const RequestView& r : ops) {
    Code status = Code::kProtocolError;  // control verbs never join a run
    std::string_view value;
    if (StoreOpType(r.op, &type)) {
      status = Code::kOk;
      if (j < results.size()) {
        const kv::BatchOpResult& result = results[j];
        status = result.status.code();
        // Singleton response semantics: only gets and increments carry values.
        if (result.status.ok() && (r.op == OpCode::kGet || r.op == OpCode::kIncrement)) {
          value = result.value;
        }
      }
      ++j;
    } else if (r.op == OpCode::kPing) {
      status = Code::kOk;
      value = "pong";
    }
    if (implicit) {
      AppendResponseFrame(run, status, value, mac_slot);
    } else {
      AppendResponse(run.frames, status, value);
    }
  }
  if (!implicit) {
    run.EndFrame(batch_frame, mac_slot);
    batches_->Inc();
    batch_ops_->Inc(ops.size());
    // Each sub-op beyond the first would otherwise have been its own frame,
    // session Seal/Open, and enclave submission.
    crossings_saved_->Inc(ops.size() - 1);
  } else if (ops.size() > 1) {
    // A run of one is a plain singleton request: it coalesced nothing.
    coalesced_batches_->Inc();
    coalesced_ops_->Inc(ops.size());
    coalesce_depth_->Record(ops.size());
  }
}

void Server::ProcessSessionRun(SessionCrypto& session, std::span<const ByteSpan> records,
                               FrameRun& run) {
  RunScratch& scratch = ThreadScratch();

  // Phase 1: open every record in receipt order, in one call whose record
  // MACs run in CMAC lanes (the session's receive sequence numbers fix the
  // order anyway). An unauthentic record stops the run: everything before
  // it is still served, then the typed error becomes the session's last
  // response. Nothing in that record can be trusted, so it is not
  // dispatched — but the client learns why it is being dropped from a
  // sealed typed error rather than a silent hangup.
  if (scratch.opened.size() < records.size()) {
    scratch.opened.resize(records.size());
  }
  size_t opened;
  {
    obs::ScopedStage stage(metrics_, obs::Stage::kSessionOpen);
    opened = session.OpenRun(records, scratch.plaintext,
                             std::span<ByteSpan>(scratch.opened).first(records.size()));
  }
  const bool auth_failed = opened < records.size();

  // Decode every opened record to views into the plaintext.
  std::vector<Unit>& units = scratch.units;
  std::vector<RequestView>& ops = scratch.ops;
  units.clear();
  ops.clear();
  {
    obs::ScopedStage stage(metrics_, obs::Stage::kDecode);
    for (size_t r = 0; r < opened; ++r) {
      Unit& u = units.emplace_back();
      u.begin = static_cast<uint32_t>(ops.size());
      u.end = u.begin;
      // The optional trace-context extension precedes the request proper.
      // Accepted unconditionally (it rode inside the authenticated record);
      // a malformed extension is a typed protocol error like any bad request.
      ByteSpan payload = scratch.opened[r];
      if (HasTraceExtension(payload)) {
        Result<std::pair<obs::TraceContext, ByteSpan>> peeled = PeelTraceExtension(payload);
        if (!peeled.ok()) {
          protocol_errors_->Inc();
          continue;
        }
        u.trace = peeled->first;
        payload = peeled->second;
      }
      if (IsBatchRequest(payload)) {
        // One open and one seal cover every sub-op in the frame — the whole
        // point of the batch opcode. A malformed batch answers with a SINGLE
        // typed error (the client's decoder falls back on the marker).
        // Frame-size distribution feeds capacity planning: router-forwarded
        // batches and pipelined clients show up here without a packet
        // capture.
        batch_frame_bytes_->Record(payload.size());
        if (DecodeBatchRequestViews(payload, ops).ok()) {
          u.kind = Unit::kBatch;
        } else {
          protocol_errors_->Inc();
        }
      } else {
        RequestView request;
        if (DecodeRequestView(payload, request).ok()) {
          // Plain data ops (and pings) coalesce; kStats/kReplicate keep their
          // singleton semantics and break a run.
          u.kind = request.op <= OpCode::kPing ? Unit::kOp : Unit::kSingle;
          ops.push_back(request);
        } else {
          protocol_errors_->Inc();
        }
      }
      u.end = static_cast<uint32_t>(ops.size());
    }
  }

  // A durable store may hold the run, so latency is recorded at release;
  // otherwise once the run is sealed. A coalesced frame is attributed its
  // whole run (that IS its latency).
  auto stamp = [&](OpCode op, uint64_t t_start) {
    const uint8_t verb = static_cast<uint8_t>(op);
    if (verb != 0 && verb < kVerbSlots) {
      run.stamps.emplace_back(verb, t_start);
    }
  };

  // Phase 2: execute in frame order, writing each response in place in frame
  // order (send sequence numbers make any other order a forgery). Adjacent
  // kOp units become ONE store batch — the implicit kBatch a merely-
  // pipelining client never had to ask for — with responses byte-identical
  // to sequential dispatch.
  const size_t mac_slot = session.overhead();
  size_t i = 0;
  while (i < units.size()) {
    const uint64_t t_start = obs::TimerStart();
    const Unit& u = units[i];
    switch (u.kind) {
      case Unit::kOp: {
        size_t j = i + 1;
        while (j < units.size() && units[j].kind == Unit::kOp) {
          ++j;
        }
        const std::span<const RequestView> run_ops(ops.data() + u.begin, units[j - 1].end - u.begin);
        // A coalesced run carries at most a handful of traced frames; the
        // run-level span adopts the first sampled context so the client's
        // frame shows up under the submission that actually executed it. A
        // run of one keeps its verb's span name.
        obs::TraceContext run_trace;
        for (size_t k = i; k < j; ++k) {
          if (units[k].trace.active()) {
            run_trace = units[k].trace;
            break;
          }
        }
        obs::TraceScope span(run_ops.size() == 1
                                 ? kServerSpanNames[static_cast<uint8_t>(run_ops[0].op)]
                                 : "server.coalesced",
                             run_trace);
        RunOps(run_ops, /*implicit=*/true, run, mac_slot);
        for (const RequestView& op : run_ops) {
          stamp(op.op, t_start);
        }
        i = j;
        break;
      }
      case Unit::kSingle: {
        const RequestView& request = ops[u.begin];
        const uint8_t verb = static_cast<uint8_t>(request.op);
        obs::TraceScope span(kServerSpanNames[verb < kVerbSlots ? verb : 0], u.trace);
        const Response response = Dispatch(ToRequest(request));
        AppendResponseFrame(run, response.status, response.value, mac_slot);
        stamp(request.op, t_start);
        ++i;
        break;
      }
      case Unit::kBatch: {
        const uint8_t verb = static_cast<uint8_t>(OpCode::kBatch);
        obs::TraceScope span(kServerSpanNames[verb], u.trace);
        op_counters_[verb]->Inc();
        RunOps(std::span<const RequestView>(ops.data() + u.begin, u.end - u.begin),
               /*implicit=*/false, run, mac_slot);
        stamp(OpCode::kBatch, t_start);
        ++i;
        break;
      }
      case Unit::kError:
        AppendResponseFrame(run, Code::kProtocolError, {}, mac_slot);
        ++i;
        break;
    }
  }
  requests_->Inc(units.size());

  if (auth_failed) {
    auth_failures_->Inc();
    AppendResponseFrame(run, Code::kProtocolError, {}, mac_slot);
    run.close_after = true;
  }
  {
    obs::ScopedStage stage(metrics_, obs::Stage::kSessionSeal);
    session.SealFrames(run.frames);
  }
  if (watch_ == nullptr) {
    // End-to-end server-side latency: run entered -> response sealed.
    const uint64_t now = obs::TimerStart();
    for (const auto& [verb, t_start] : run.stamps) {
      op_latency_[verb]->RecordCycles(now - t_start);
    }
    run.stamps.clear();
  }
}

void Server::EnclaveWorkerLoop() {
  // A HotCalls responder: a thread that entered the enclave once and now
  // serves shared-memory requests without ever crossing the boundary.
  // Backoff discipline: spin (yield) through short gaps so a loaded server
  // keeps its exit-less latency, but once kIdleSpinPolls come up empty,
  // sleep kIdleSleep per poll so an IDLE server stops pegging cores (the
  // first request after an idle period waits at most that long). Any served
  // request resets the spin budget.
  constexpr uint64_t kIdleSpinPolls = 1024;
  constexpr auto kIdleSleep = std::chrono::microseconds(50);
  uint64_t idle_polls = 0;
  const auto serve = [this](uint16_t, void* data) {
    SessionRunTask* task = static_cast<SessionRunTask*>(data);
    ProcessSessionRun(*task->session, task->records, *task->run);
  };
  while (!hotcalls_->stopped()) {
    if (hotcalls_->Poll(serve)) {
      idle_polls = 0;
    } else if (++idle_polls < kIdleSpinPolls) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(kIdleSleep);
    }
  }
  // Drain after stop so no caller is left waiting.
  while (hotcalls_->Poll(serve)) {
  }
}

obs::MetricsSnapshot Server::BuildStatsSnapshot() {
  obs::MetricsSnapshot snap = metrics_->Snapshot();
  // Store-level stats through the kv interface (atomic per-field folds).
  const kv::StoreStats ss = store_.stats();
  snap.SetCounter("store.gets", ss.gets);
  snap.SetCounter("store.sets", ss.sets);
  snap.SetCounter("store.deletes", ss.deletes);
  snap.SetCounter("store.appends", ss.appends);
  snap.SetCounter("store.hits", ss.hits);
  snap.SetCounter("store.misses", ss.misses);
  snap.SetCounter("store.decryptions", ss.decryptions);
  snap.SetCounter("store.mac_verifications", ss.mac_verifications);
  // EPC plaintext-cache effectiveness (§6.3): probes, outcomes, and bytes
  // resident, so operators can size Options::cache_bytes from a live server.
  snap.SetCounter("store.cache.lookups", ss.cache_lookups);
  snap.SetCounter("store.cache.hits", ss.cache_hits);
  snap.SetCounter("store.cache.misses",
                  ss.cache_lookups >= ss.cache_hits ? ss.cache_lookups - ss.cache_hits : 0);
  snap.SetGauge("store.cache.bytes", static_cast<int64_t>(ss.cache_bytes));
  snap.SetCounter("store.crypto.ctr_bytes", ss.crypto_ctr_bytes);
  snap.SetCounter("store.crypto.cmac_bytes", ss.crypto_cmac_bytes);
  // Which AES implementation produced this process's numbers (0 = table
  // reference, 1 = AES-NI) — benches record it alongside their BENCH_*.json.
  snap.SetGauge("crypto.backend",
                crypto::Aes128::Backend() == crypto::AesBackend::kAesNi ? 1 : 0);
  // Enclave-boundary and EPC paging counters (§6: crossing + paging costs).
  const sgx::EpcStats epc = enclave_.epc().stats();
  snap.SetCounter("sgx.epc.touches", epc.touches);
  snap.SetCounter("sgx.epc.faults", epc.faults);
  snap.SetCounter("sgx.epc.evictions", epc.evictions);
  snap.SetGauge("sgx.epc.resident_pages", static_cast<int64_t>(epc.resident_pages));
  snap.SetCounter("sgx.ecalls", enclave_.boundary().ecall_count());
  snap.SetCounter("sgx.ocalls", enclave_.boundary().ocall_count());
  if (hotcalls_ != nullptr) {
    snap.SetCounter("sgx.hotcalls", hotcalls_->calls_served());
  }
  return snap;
}

}  // namespace shield::net
