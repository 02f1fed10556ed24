#include "driver/layers.h"

#include <algorithm>
#include <filesystem>

#include "src/common/bytes.h"
#include "src/net/protocol.h"
#include "src/shieldstore/oplog.h"

namespace perfbench {

namespace kv = shield::kv;
namespace net = shield::net;
namespace sgx = shield::sgx;
namespace ss = shield::shieldstore;

namespace {

// The version a set's value carries (ValueFor's "v<key>:<version>" prefix);
// 0 when the value is not in that format.
uint64_t VersionIn(std::string_view value) {
  const size_t colon = value.find(':');
  uint64_t v = 0;
  for (size_t i = colon == std::string_view::npos ? value.size() : colon + 1;
       i < value.size() && value[i] >= '0' && value[i] <= '9'; ++i) {
    v = v * 10 + static_cast<uint64_t>(value[i] - '0');
  }
  return v;
}

StoreOpRef RefOf(std::string_view key, bool get, std::string_view value) {
  StoreOpRef ref;
  ParseKey(key, &ref.key);
  ref.get = get;
  ref.version = get ? 0 : VersionIn(value);
  return ref;
}

// Depth of nested PartitionedStore entry points on this thread; only the
// outermost one is a store.call span.
thread_local int tls_store_depth = 0;

sgx::EnclaveConfig EnclaveConfigFor() {
  sgx::EnclaveConfig config;
  config.name = DaemonDefaults::kEnclaveName;
  config.epc.epc_bytes = DaemonDefaults::kEpcMb << 20;
  return config;
}

ss::Options StoreOptionsFor() {
  ss::Options options;
  options.num_buckets = DaemonDefaults::kBuckets;
  return options;
}

double MedianOf(std::vector<double> v) {
  return v.empty() ? 0.0 : Percentile(v, 0.5);
}

template <typename Fn>
double TimeLoopNs(double seconds, Fn&& one) {
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t n = 0;
  uint64_t now = start;
  do {
    for (int i = 0; i < 64; ++i) {
      one();
    }
    n += 64;
    now = NowNs();
  } while (now < deadline);
  return static_cast<double>(now - start) / static_cast<double>(n);
}

}  // namespace

// ------------------------------------------------- TimedPartitionedStore

template <typename Fn>
auto TimedPartitionedStore::Timed(Fn&& fn) -> decltype(fn()) {
  const uint64_t parent = SpanLog::CurrentCall();
  if (parent == 0 || tls_store_depth > 0 || !spans_.enabled()) {
    ++tls_store_depth;
    auto result = fn();
    --tls_store_depth;
    return result;
  }
  ++tls_store_depth;
  const uint64_t start = NowNs();
  auto result = fn();
  const uint64_t end = NowNs();
  --tls_store_depth;
  uint32_t thread = 0;
  spans_.Local(&thread).children.push_back({parent, start, end, thread});
  return result;
}

Status TimedPartitionedStore::Set(std::string_view key, std::string_view value) {
  return Timed([&] { return PartitionedStore::Set(key, value); });
}
Result<std::string> TimedPartitionedStore::Get(std::string_view key) {
  return Timed([&] { return PartitionedStore::Get(key); });
}
Status TimedPartitionedStore::Delete(std::string_view key) {
  return Timed([&] { return PartitionedStore::Delete(key); });
}
Status TimedPartitionedStore::Append(std::string_view key, std::string_view suffix) {
  return Timed([&] { return PartitionedStore::Append(key, suffix); });
}
Result<int64_t> TimedPartitionedStore::Increment(std::string_view key, int64_t delta) {
  return Timed([&] { return PartitionedStore::Increment(key, delta); });
}
std::vector<kv::BatchOpResult> TimedPartitionedStore::ExecuteBatch(
    const std::vector<kv::BatchOp>& ops) {
  return Timed([&] { return PartitionedStore::ExecuteBatch(ops); });
}

// ---------------------------------------------------------- CountingStore

template <typename Fn>
auto CountingStore::Call(const StoreOpRef* refs, size_t n, Fn&& fn) -> decltype(fn()) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  ops_.fetch_add(n, std::memory_order_relaxed);
  if (!spans_.enabled()) {
    return fn();
  }
  const uint64_t id = spans_.NextCallId();
  SpanLog::CurrentCall() = id;
  const uint64_t start = NowNs();
  auto result = fn();
  const uint64_t end = NowNs();
  SpanLog::CurrentCall() = 0;
  uint32_t thread = 0;
  ServerSpans& local = spans_.Local(&thread);
  StoreCallSpan span;
  span.id = id;
  span.start_ns = start;
  span.end_ns = end;
  span.ops_begin = static_cast<uint32_t>(local.ops.size());
  span.ops_count = static_cast<uint32_t>(n);
  span.thread = thread;
  for (size_t i = 0; i < n; ++i) {
    local.ops.push_back(refs[i]);
    span.mutations += refs[i].get ? 0 : 1;
  }
  local.calls.push_back(span);
  return result;
}

Status CountingStore::Set(std::string_view key, std::string_view value) {
  const StoreOpRef ref = RefOf(key, false, value);
  return Call(&ref, 1, [&] { return inner_.Set(key, value); });
}
Result<std::string> CountingStore::Get(std::string_view key) {
  const StoreOpRef ref = RefOf(key, true, {});
  return Call(&ref, 1, [&] { return inner_.Get(key); });
}
Status CountingStore::Delete(std::string_view key) {
  const StoreOpRef ref = RefOf(key, false, {});
  return Call(&ref, 1, [&] { return inner_.Delete(key); });
}
Status CountingStore::Append(std::string_view key, std::string_view suffix) {
  const StoreOpRef ref = RefOf(key, false, {});
  return Call(&ref, 1, [&] { return inner_.Append(key, suffix); });
}
Result<int64_t> CountingStore::Increment(std::string_view key, int64_t delta) {
  const StoreOpRef ref = RefOf(key, false, {});
  return Call(&ref, 1, [&] { return inner_.Increment(key, delta); });
}
std::vector<kv::BatchOpResult> CountingStore::ExecuteBatch(const std::vector<kv::BatchOp>& ops) {
  std::vector<StoreOpRef> refs;
  if (spans_.enabled()) {
    refs.reserve(ops.size());
    for (const kv::BatchOp& op : ops) {
      refs.push_back(RefOf(op.key, op.type == kv::BatchOpType::kGet, op.value));
    }
  }
  return Call(refs.data(), ops.size(), [&] { return inner_.ExecuteBatch(ops); });
}

// --------------------------------------------------------- InProcessStack

InProcessStack::InProcessStack(const WorkloadSpec& spec, const std::string& dir, SpanLog& spans)
    : spec_(spec),
      dir_(dir),
      enclave_(EnclaveConfigFor()),
      authority_(shield::AsBytes(DaemonDefaults::kAuthoritySeed)),
      store_(enclave_, StoreOptionsFor(), DaemonDefaults::kPartitions, spans) {
  kv::KeyValueStore* top = &store_;
  if (spec.durable) {
    sealer_ = std::make_unique<sgx::SealingService>(shield::AsBytes(DaemonDefaults::kAuthoritySeed),
                                                    enclave_.measurement());
    sgx::MonotonicCounterService::Options counter_opts;
    counter_opts.backing_file = dir_ + "/counters.bin";
    counters_ = std::make_unique<sgx::MonotonicCounterService>(counter_opts);
    ss::OpLogOptions log_opts;
    log_opts.path = dir_ + "/wal.log";
    log_opts.num_shards = 0;
    log_opts.group_commit_window_us = DaemonDefaults::kWalWindowUs;
    log_opts.group_commit_ops = DaemonDefaults::kWalGroupOps;
    wal_ = std::make_unique<ss::WriteAheadStore>(store_, *sealer_, *counters_, log_opts);
    top = wal_.get();
  }
  counting_ = std::make_unique<CountingStore>(*top, spans);
}

InProcessStack::~InProcessStack() {
  Stop();
}

Status InProcessStack::Start() {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  net::ServerOptions options;
  options.port = 0;
  options.enclave_workers = DaemonDefaults::kPartitions;
  options.io_threads = DaemonDefaults::kIoThreads;
  options.coalesce_depth = DaemonDefaults::kCoalesceDepth;
  options.maintenance_interval_ms = DaemonDefaults::kScrubIntervalMs;
  if (spec_.durable) {
    if (Status s = wal_->Open(); !s.ok()) {
      return s;
    }
    ss::SelfHealOptions heal_opts;
    heal_opts.directory = dir_ + "/snapshots";
    heal_opts.scrub = true;
    heal_opts.compact_log_bytes = DaemonDefaults::kWalCompactBytes;
    healer_ = std::make_unique<ss::SelfHealer>(*wal_, *sealer_, *counters_, heal_opts);
    if (Status s = healer_->Restore(); !s.ok()) {
      return s;
    }
    if (Status s = healer_->Start(); !s.ok()) {
      return s;
    }
    options.maintenance = [this] { healer_->Tick(); };
  } else {
    options.maintenance = [this] { (void)store_.ScrubTick(); };
  }
  server_ = std::make_unique<net::Server>(enclave_, *counting_, authority_, options);
  return server_->Start();
}

void InProcessStack::Stop() {
  if (server_ != nullptr) {
    server_->Stop();
  }
}

// ------------------------------------------------------------------ rungs

double SealOpenNs(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  shield::Bytes key_material(net::SessionCrypto::kKeyMaterialSize);
  shield::Xoshiro256 rng(seed);
  for (uint8_t& b : key_material) {
    b = static_cast<uint8_t>(rng.Next());
  }
  net::SessionCrypto client(key_material, /*is_client=*/true, /*encrypt=*/true);
  net::SessionCrypto server(key_material, /*is_client=*/false, /*encrypt=*/true);
  OpStream ops(spec, seed, kSessions + 1);
  // Pre-encode a ring of requests and responses so the loop times crypto.
  std::vector<shield::Bytes> requests;
  std::vector<shield::Bytes> responses;
  for (int i = 0; i < 256; ++i) {
    const OpStream::Op op = ops.Next();
    net::Request request;
    request.op = op.get ? net::OpCode::kGet : net::OpCode::kSet;
    request.key = KeyFor(op.key);
    net::Response response;
    if (op.get) {
      response.value = ValueFor(op.key, 0, spec.value_bytes);
    } else {
      request.value = ValueFor(op.key, 0, spec.value_bytes);
    }
    requests.push_back(net::EncodeRequest(request));
    responses.push_back(net::EncodeResponse(response));
  }
  size_t i = 0;
  bool intact = true;
  const double ns = TimeLoopNs(seconds, [&] {
    const size_t k = i++ % requests.size();
    intact &= server.Open(client.Seal(requests[k])).ok();
    intact &= client.Open(server.Seal(responses[k])).ok();
  });
  return intact ? ns : -1.0;
}

double StoreBatchNsPerOp(ss::PartitionedStore& store, const WorkloadSpec& spec, uint64_t seed,
                         size_t batch, double seconds) {
  OpStream ops(spec, seed, kSessions + 2);
  batch = std::max<size_t>(batch, 1);
  uint64_t version = 1;
  std::vector<kv::BatchOp> group(batch);
  const double per_batch = TimeLoopNs(seconds, [&] {
    for (kv::BatchOp& op : group) {
      const OpStream::Op o = ops.Next();
      op.key = KeyFor(o.key);
      op.type = o.get ? kv::BatchOpType::kGet : kv::BatchOpType::kSet;
      op.value = o.get ? std::string() : ValueFor(o.key, version++ * kVersionStride, spec.value_bytes);
    }
    (void)store.PartitionedStore::ExecuteBatch(group);
  });
  return per_batch / static_cast<double>(batch);
}

double StoreSingleNsPerOp(ss::PartitionedStore& store, const WorkloadSpec& spec, uint64_t seed,
                          double seconds) {
  OpStream ops(spec, seed, kSessions + 3);
  uint64_t version = 1;
  return TimeLoopNs(seconds, [&] {
    const OpStream::Op o = ops.Next();
    const std::string key = KeyFor(o.key);
    if (o.get) {
      (void)store.PartitionedStore::Get(key);
    } else {
      (void)store.PartitionedStore::Set(key, ValueFor(o.key, version++ * kVersionStride,
                                                      spec.value_bytes));
    }
  });
}

Result<WalRung> MeasureWal(const std::string& dir, const WorkloadSpec& spec,
                           const sgx::Measurement& measurement, size_t records_per_commit,
                           int rounds) {
  sgx::SealingService sealer(shield::AsBytes(DaemonDefaults::kAuthoritySeed), measurement);
  sgx::MonotonicCounterService::Options counter_opts;
  counter_opts.backing_file = dir + "/rung-counters.bin";
  sgx::MonotonicCounterService counters(counter_opts);
  ss::OpLogOptions log_opts;
  log_opts.path = dir + "/rung-wal.log";
  ss::OperationLog log(sealer, counters, log_opts);
  if (Status s = log.Open(); !s.ok()) {
    return s;
  }
  records_per_commit = std::max<size_t>(records_per_commit, 1);
  OpStream ops(spec, 7, kSessions + 4);
  std::vector<double> append_ns;
  std::vector<double> prepare_ns;
  std::vector<double> sync_ns;
  uint64_t version = 1;
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < records_per_commit; ++i) {
      const OpStream::Op o = ops.Next();
      const std::string key = KeyFor(o.key);
      const std::string value = ValueFor(o.key, version++, spec.value_bytes);
      const uint64_t t0 = NowNs();
      if (Status s = log.AppendSet(key, value); !s.ok()) {
        return s;
      }
      append_ns.push_back(static_cast<double>(NowNs() - t0));
    }
    const uint64_t t1 = NowNs();
    if (Status s = log.CommitPrepare(); !s.ok()) {
      return s;
    }
    const uint64_t t2 = NowNs();
    if (Status s = log.CommitSync(); !s.ok()) {
      return s;
    }
    const uint64_t t3 = NowNs();
    prepare_ns.push_back(static_cast<double>(t2 - t1));
    sync_ns.push_back(static_cast<double>(t3 - t2));
  }
  WalRung rung;
  rung.append_us = MedianOf(append_ns) / 1e3;
  rung.commit_prepare_us = MedianOf(prepare_ns) / 1e3;
  rung.fsync_us = MedianOf(sync_ns) / 1e3;
  return rung;
}

Result<double> MeasureCounterIncrementUs(const std::string& dir, int rounds) {
  sgx::MonotonicCounterService::Options options;
  options.backing_file = dir + "/rung-increment.bin";
  sgx::MonotonicCounterService counters(options);
  Result<uint32_t> id = counters.CreateCounter();
  if (!id.ok()) {
    return id.status();
  }
  std::vector<double> ns;
  for (int r = 0; r < rounds; ++r) {
    const uint64_t t0 = NowNs();
    Result<uint64_t> v = counters.Increment(*id);
    if (!v.ok()) {
      return v.status();
    }
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  return MedianOf(ns) / 1e3;
}

}  // namespace perfbench
