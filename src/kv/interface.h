// The key-value store interface every engine in this repository implements:
// ShieldStore, the naive SGX baseline, the NoSGX baseline, the
// memcached-like store, and the Eleos-backed store. Benchmarks and the
// network server are written against this interface only.
#ifndef SHIELDSTORE_SRC_KV_INTERFACE_H_
#define SHIELDSTORE_SRC_KV_INTERFACE_H_

#include <cstdint>
#include <string>
#include <string_view>
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
