// The key-value store interface every engine in this repository implements:
// ShieldStore, the naive SGX baseline, the NoSGX baseline, the
// memcached-like store, and the Eleos-backed store. Benchmarks and the
// network server are written against this interface only.
#ifndef SHIELDSTORE_SRC_KV_INTERFACE_H_
#define SHIELDSTORE_SRC_KV_INTERFACE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace shield::kv {

// One sub-operation of a batch (see KeyValueStore::ExecuteBatch).
enum class BatchOpType : uint8_t {
  kGet,
  kSet,
  kDelete,
  kAppend,
  kIncrement,
};

struct BatchOp {
  BatchOpType type = BatchOpType::kGet;
  std::string key;
  std::string value;  // set payload / append suffix
  int64_t delta = 0;  // increment amount
};

struct BatchOpResult {
  Status status;
  // kGet: the value. kIncrement: the new value in decimal. kAppend: the
  // resulting value (a write-ahead wrapper logs resulting state, not the
  // computation). Empty otherwise.
  std::string value;
};

struct StoreStats {
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t deletes = 0;
  uint64_t appends = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t decryptions = 0;        // entry decrypt operations (Figure 9)
  uint64_t mac_verifications = 0;  // bucket-set MAC-hash checks
  uint64_t cache_hits = 0;         // EPC-resident plaintext cache (§6.3)
  uint64_t cache_lookups = 0;      // plaintext-cache probes (hits + misses)
  uint64_t cache_bytes = 0;        // plaintext bytes resident in the cache
  uint64_t crypto_ctr_bytes = 0;   // bytes through AES-CTR (entry payloads)
  uint64_t crypto_cmac_bytes = 0;  // bytes through CMAC (entry + set MACs)
};

// What a set of results depends on before it may be revealed: per WAL
// shard, the sequence that shard's durable watermark must reach. A mutation
// needs its own record; a get needs every record its shard had appended when
// it ran, so it never shows state a crash could take back. Empty = the
// results are durable as returned (a volatile store, or nothing pending).
struct DurabilityRequirement {
  std::vector<std::pair<uint32_t, uint64_t>> shards;  // (shard, sequence), one per shard

  bool empty() const { return shards.empty(); }
  // Adds `shard` >= `sequence`, keeping the larger bound for a known shard.
  void Require(uint32_t shard, uint64_t sequence);
  void Merge(const DurabilityRequirement& other);
};

// The durable watermarks a store publishes for the requirements it hands
// out of SubmitBatch. Checking is non-blocking; subscribers hear about every
// advance or latch, so a caller holding results never has to wait on a
// condition variable to learn when to release them. Wait is the blocking
// form, for synchronous callers.
class DurabilityWatch {
 public:
  enum class State : uint8_t { kDurable, kPending, kFailed };

  // kFailed (with *failure set to the latched status) once a shard the
  // requirement names can never reach its sequence.
  State Check(const DurabilityRequirement& requirement, Status* failure) const;
  // Blocks until `shard` is durable through `sequence` (Ok) or latched (the
  // latched status).
  Status Wait(size_t shard, uint64_t sequence);

  // `listener` runs on the publishing thread after every Publish/Latch. It
  // must be quick and must not call back into the store. Unsubscribe returns
  // only once no call to that listener is in flight, so the listener's
  // captures may be destroyed right after.
  uint64_t Subscribe(std::function<void()> listener);
  void Unsubscribe(uint64_t token);

  // Publisher side (the store). Reset sizes the watermark table (kept
  // watermarks stay) and clears every latch; Publish only ever raises one.
  void Reset(size_t shards);
  // Raises every shard's watermark (index = shard) with one wake.
  void Publish(const std::vector<uint64_t>& durable);
  void Latch(size_t shard, const Status& failure);

 private:
  void Notify();

  mutable std::mutex mu_;  // guards durable_ and latched_
  std::condition_variable changed_;  // Wait's: any publish or latch
  std::vector<uint64_t> durable_;
  std::vector<Status> latched_;
  // Held while listeners run, so Unsubscribe can wait them out.
  std::mutex listeners_mu_;
  std::vector<std::pair<uint64_t, std::function<void()>>> listeners_;
  uint64_t next_token_ = 1;
};

class KeyValueStore {
 public:
  virtual ~KeyValueStore() = default;

  // Inserts or overwrites.
  virtual Status Set(std::string_view key, std::string_view value) = 0;

  // kNotFound when absent; kIntegrityFailure if tampering is detected.
  virtual Result<std::string> Get(std::string_view key) = 0;

  virtual Status Delete(std::string_view key) = 0;

  // Server-side computation on the stored value (§3.2): concatenates
  // `suffix` to the current value (kNotFound when the key is absent).
  virtual Status Append(std::string_view key, std::string_view suffix);

  // Server-side computation: parses the value as a decimal integer, adds
  // `delta`, stores and returns the new value.
  virtual Result<int64_t> Increment(std::string_view key, int64_t delta);

  virtual Result<bool> Exists(std::string_view key);

  // Executes `ops` and returns one result per op, positionally. Contract:
  //  * per-op statuses — there is NO cross-op atomicity; op i failing does
  //    not undo op j;
  //  * ops on the same key are applied in batch order (engines may reorder
  //    across keys/partitions, which commutes);
  //  * the final store state equals executing the ops one at a time.
  // Leaf engines implement the primitives above and inherit this default,
  // which runs the ops sequentially (or override it to amortize per-op
  // fixed costs such as MAC-hash recomputation). Serving decorators derive
  // from BatchFirstStore instead and implement ONLY ExecuteBatch.
  virtual std::vector<BatchOpResult> ExecuteBatch(const std::vector<BatchOp>& ops);

  // The non-waiting half of ExecuteBatch: executes `ops` and sets
  // `requirement` to what the results depend on (see durability_watch()).
  // Revealing a result before its requirement is durable is the caller's
  // bug. The default executes synchronously and requires nothing.
  virtual std::vector<BatchOpResult> SubmitBatch(const std::vector<BatchOp>& ops,
                                                 DurabilityRequirement& requirement);

  // Watermarks that SubmitBatch requirements are checked against; nullptr
  // (the default) means SubmitBatch never leaves anything pending.
  virtual DurabilityWatch* durability_watch() { return nullptr; }

  // Number of live keys.
  virtual size_t Size() const = 0;

  virtual std::string Name() const = 0;

  virtual StoreStats stats() const { return {}; }
};

// Base for serving decorators (partition locking, write-ahead logging)
// whose request handling lives in ONE place: ExecuteBatch. Every singleton
// verb runs as a batch of one, so locking, quarantine, log append and the
// commit wait exist once per layer. ExecuteBatch is pure here — inheriting
// KeyValueStore's sequential default as well would recurse forever.
class BatchFirstStore : public KeyValueStore {
 public:
  Status Set(std::string_view key, std::string_view value) override;
  Result<std::string> Get(std::string_view key) override;
  Status Delete(std::string_view key) override;
  Status Append(std::string_view key, std::string_view suffix) override;
  Result<int64_t> Increment(std::string_view key, int64_t delta) override;
  std::vector<BatchOpResult> ExecuteBatch(const std::vector<BatchOp>& ops) override = 0;
};

// Runs one batch sub-op against `store` through its virtual interface —
// the shared building block for every ExecuteBatch implementation (the
// default loop here, and the partition-grouped override). Captures the
// resulting value for kAppend/kIncrement per the BatchOpResult contract.
BatchOpResult ExecuteSingleOp(KeyValueStore& store, const BatchOp& op);

}  // namespace shield::kv

#endif  // SHIELDSTORE_SRC_KV_INTERFACE_H_
