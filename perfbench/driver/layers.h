// The daemon's stack rebuilt in-process from the same flag values, with
// benchmark-owned seams for counting and spans, plus the "rungs": each
// layer's public entry point driven directly with the workload's op stream.
#ifndef PERFBENCH_DRIVER_LAYERS_H_
#define PERFBENCH_DRIVER_LAYERS_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/kv/interface.h"
#include "driver/loadgen.h"
#include "src/net/server.h"
#include "src/sgx/attestation.h"
#include "src/sgx/counter.h"
#include "src/sgx/enclave.h"
#include "src/sgx/seal.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"
#include "driver/trace.h"

namespace perfbench {

// The daemon's defaults that the in-process stack must mirror
// (tools/shieldstore_server.cc Flags), plus the two flags the benchmark sets.
struct DaemonDefaults {
  static constexpr size_t kPartitions = 2;
  static constexpr size_t kBuckets = 1 << 18;
  static constexpr size_t kEpcMb = 64;
  static constexpr size_t kIoThreads = 2;  // --io-threads 2
  static constexpr size_t kCoalesceDepth = 64;
  static constexpr int kScrubIntervalMs = 50;
  static constexpr uint32_t kWalWindowUs = 200;
  static constexpr size_t kWalGroupOps = 64;
  static constexpr size_t kWalCompactBytes = size_t{64} << 20;
  static constexpr const char* kAuthoritySeed = "dev-authority";
  static constexpr const char* kEnclaveName = "shieldstore-server-v1";
};

// PartitionedStore whose public entry points record store.call spans while
// a server.store_call is open on the calling thread.
class TimedPartitionedStore : public shield::shieldstore::PartitionedStore {
 public:
  TimedPartitionedStore(shield::sgx::Enclave& enclave, const shield::shieldstore::Options& options,
                        size_t partitions, SpanLog& spans)
      : PartitionedStore(enclave, options, partitions), spans_(spans) {}

  Status Set(std::string_view key, std::string_view value) override;
  Result<std::string> Get(std::string_view key) override;
  Status Delete(std::string_view key) override;
  Status Append(std::string_view key, std::string_view suffix) override;
  Result<int64_t> Increment(std::string_view key, int64_t delta) override;
  std::vector<shield::kv::BatchOpResult> ExecuteBatch(
      const std::vector<shield::kv::BatchOp>& ops) override;

 private:
  template <typename Fn>
  auto Timed(Fn&& fn) -> decltype(fn());

  SpanLog& spans_;
};

// Sits between net::Server and the store it serves: counts calls and ops,
// and records server.store_call spans when span recording is on.
class CountingStore : public shield::kv::KeyValueStore {
 public:
  CountingStore(shield::kv::KeyValueStore& inner, SpanLog& spans) : inner_(inner), spans_(spans) {}

  Status Set(std::string_view key, std::string_view value) override;
  Result<std::string> Get(std::string_view key) override;
  Status Delete(std::string_view key) override;
  Status Append(std::string_view key, std::string_view suffix) override;
  Result<int64_t> Increment(std::string_view key, int64_t delta) override;
  Result<bool> Exists(std::string_view key) override { return inner_.Exists(key); }
  std::vector<shield::kv::BatchOpResult> ExecuteBatch(
      const std::vector<shield::kv::BatchOp>& ops) override;
  size_t Size() const override { return inner_.Size(); }
  std::string Name() const override { return inner_.Name(); }
  shield::kv::StoreStats stats() const override { return inner_.stats(); }

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  uint64_t ops() const { return ops_.load(std::memory_order_relaxed); }

 private:
  template <typename Fn>
  auto Call(const StoreOpRef* refs, size_t n, Fn&& fn) -> decltype(fn());

  shield::kv::KeyValueStore& inner_;
  SpanLog& spans_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> ops_{0};
};

// Enclave + PartitionedStore (+ WAL, counter, self-healer when durable) +
// net::Server, built as tools/shieldstore_server.cc builds them.
class InProcessStack {
 public:
  InProcessStack(const WorkloadSpec& spec, const std::string& dir, SpanLog& spans);
  ~InProcessStack();
  InProcessStack(const InProcessStack&) = delete;
  InProcessStack& operator=(const InProcessStack&) = delete;

  Status Start();
  void Stop();

  uint16_t port() const { return server_->port(); }
  const shield::sgx::AttestationAuthority& authority() const { return authority_; }
  const shield::sgx::Measurement& measurement() const { return enclave_.measurement(); }
  shield::sgx::Enclave& enclave() { return enclave_; }
  TimedPartitionedStore& store() { return store_; }
  shield::shieldstore::WriteAheadStore* wal() { return wal_.get(); }
  const CountingStore& counting() const { return *counting_; }

 private:
  const WorkloadSpec& spec_;
  std::string dir_;
  shield::sgx::Enclave enclave_;
  shield::sgx::AttestationAuthority authority_;
  TimedPartitionedStore store_;
  std::unique_ptr<shield::sgx::SealingService> sealer_;
  std::unique_ptr<shield::sgx::MonotonicCounterService> counters_;
  std::unique_ptr<shield::shieldstore::WriteAheadStore> wal_;
  std::unique_ptr<shield::shieldstore::SelfHealer> healer_;
  std::unique_ptr<CountingStore> counting_;
  std::unique_ptr<shield::net::Server> server_;
};

// --- rungs -----------------------------------------------------------------

// SessionCrypto Seal + Open of one request and one response at the
// workload's sizes, in ns per request/response pair.
double SealOpenNs(const WorkloadSpec& spec, uint64_t seed, double seconds);
// PartitionedStore::ExecuteBatch over the op stream in batches of `batch`,
// in ns per op. Bypasses any span recording.
double StoreBatchNsPerOp(shield::shieldstore::PartitionedStore& store, const WorkloadSpec& spec,
                         uint64_t seed, size_t batch, double seconds);
// PartitionedStore::Get / Set, one op per call, in ns per op.
double StoreSingleNsPerOp(shield::shieldstore::PartitionedStore& store, const WorkloadSpec& spec,
                          uint64_t seed, double seconds);

struct WalRung {
  double append_us = 0;          // OperationLog::AppendSet, median per call
  double commit_prepare_us = 0;  // CommitPrepare (counter bump + flush), median
  double fsync_us = 0;           // CommitSync, median
};
// A standalone OperationLog in `dir` with the daemon's default counter cost,
// committing every `records_per_commit` appends, for `rounds` commits.
Result<WalRung> MeasureWal(const std::string& dir, const WorkloadSpec& spec,
                           const shield::sgx::Measurement& measurement,
                           size_t records_per_commit, int rounds);
// MonotonicCounterService::Increment at the default cost, backing file in
// `dir`; median microseconds per call.
Result<double> MeasureCounterIncrementUs(const std::string& dir, int rounds);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LAYERS_H_
