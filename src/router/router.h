// Multi-node front end: consistent-hash routing with warm-standby failover.
//
// A Router owns one attested net::Client per named node and routes each key
// to its ring owner. Nodes optionally carry a follower (warm standby fed by
// the primary's WalShipper); when the primary stops answering — detected by
// the background health probe or by an I/O failure on a live operation — the
// router runs the failover sequence:
//
//   serving --(probe/op failures >= threshold)--> suspect
//   suspect --(reconnect to primary succeeds)--> serving
//   suspect --(reconnect fails, follower configured)--> failing-over:
//       1. kPromote to the follower (idempotent; a racing second router or a
//          re-sent promote is harmless)
//       2. swap the node's address to the follower's port
//       3. full Reconnect — new socket AND new attestation handshake; the
//          old session keys never existed on the promoted node
//   failing-over --(promote + reconnect succeed)--> serving (on standby)
//   suspect --(no follower / promote fails)--> dead
//
// While a node is failing over (or dead), operations routed to it fail with
// the typed kFailingOver after a bounded retry — callers distinguish "the
// cluster is healing, try again shortly" from data errors. Retried mutations
// are safe for Set/Delete/Append-free workloads (Set is idempotent); blind
// retry of Increment/Append after an ACK LOSS can double-apply — the same
// at-least-once caveat every network store has without request dedup.
#ifndef SHIELDSTORE_SRC_ROUTER_ROUTER_H_
#define SHIELDSTORE_SRC_ROUTER_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/client.h"
#include "src/obs/metrics.h"
#include "src/router/hashring.h"

namespace shield::router {

struct RouterNode {
  std::string name;           // ring identity (stable across failover)
  uint16_t port = 0;          // primary address
  uint16_t follower_port = 0; // warm standby; 0 = none (node can only die)
};

struct RouterOptions {
  bool encrypt = true;
  net::ClientOptions client;     // per-node connections (ops + probes)
  int probe_interval_ms = 200;   // health probe cadence (0 = no probe thread)
  int probe_failures = 2;        // consecutive failures before failover
  int op_retries = 3;            // per-operation tries across a failover
  int retry_backoff_ms = 100;    // between tries (covers promote+handshake)
  obs::Registry* metrics = nullptr;
};

class Router {
 public:
  Router(const sgx::AttestationAuthority& authority, const sgx::Measurement& expected,
         std::vector<RouterNode> nodes, const RouterOptions& options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Connects every node's client and starts the probe thread. A primary
  // unreachable at startup goes straight through the recovery sequence
  // (reconnect, else promote its standby) — a router started mid-outage must
  // still form; only a node with no reachable primary AND no promotable
  // standby fails Start().
  Status Start();
  void Stop();

  // Key operations, routed by ring ownership with bounded failover retry.
  Status Set(std::string_view key, std::string_view value);
  Result<std::string> Get(std::string_view key);
  Status Delete(std::string_view key);
  Result<int64_t> Increment(std::string_view key, int64_t delta);

  // Multi-key set: pairs are grouped by ring owner and each group rides ONE
  // kBatch frame to its node (one session Seal/Open, one enclave submission,
  // one group-commit wait per touched WAL shard). Each group gets the same
  // bounded failover retry as a single op; the first failing group's status
  // is returned (earlier groups may have applied — the usual at-least-once
  // caveat of retried mutations).
  Status MSet(const std::vector<std::pair<std::string, std::string>>& pairs);

  // Drains the span buffer of node `name` (kTraceDump). The cli's `trace`
  // command merges these per-node dumps with the client-side spans into one
  // Chrome trace.
  Result<std::vector<obs::SpanRecord>> TraceDump(const std::string& name);

  // Ring introspection (tests, cli).
  const std::string& NodeFor(std::string_view key) const;
  std::vector<std::string> Nodes() const;
  // The port node `name` currently serves on (follower port after failover;
  // 0 = unknown node or dead).
  uint16_t ActivePort(const std::string& name) const;
  uint64_t failovers() const { return failovers_.load(std::memory_order_relaxed); }

  // Forces the failover sequence for `name` now (tests; the probe thread and
  // op path call this internally). Returns the node's post-sequence health.
  Status FailOver(const std::string& name);

 private:
  struct Node {
    RouterNode config;
    std::mutex mutex;  // serializes this node's client (ops + probe + failover)
    std::unique_ptr<net::Client> client;
    uint16_t active_port = 0;
    bool on_follower = false;  // failover happened: serving from the standby
    bool dead = false;         // no (further) standby; operations fail typed
    int probe_misses = 0;
  };

  Node* FindNode(const std::string& name);
  const Node* FindNode(const std::string& name) const;
  // Routes `request` to its ring owner through CallWithRetry.
  Result<net::Response> Execute(const net::Request& request);
  // The bounded failover retry every routed call goes through: backoff
  // between tries, recover a disconnected client first, run `call` on the
  // node's client, and run the recovery sequence after a failed call.
  template <typename Call>
  auto CallWithRetry(Node& node, const Call& call) -> decltype(call(*node.client));
  // Requires node.mutex: try to restore service, promoting if needed.
  Status RecoverNodeLocked(Node& node);
  void ProbeLoop();

  const sgx::AttestationAuthority& authority_;
  sgx::Measurement expected_;
  RouterOptions options_;
  ConsistentHashRing ring_;
  std::vector<std::unique_ptr<Node>> nodes_;

  std::thread probe_thread_;
  std::mutex probe_mutex_;
  std::condition_variable probe_cv_;
  bool stopping_ = false;

  std::atomic<uint64_t> failovers_{0};
  obs::Counter* failovers_ctr_ = nullptr;     // router.failovers
  obs::Counter* retries_ctr_ = nullptr;       // router.op_retries
  obs::Counter* failing_over_ctr_ = nullptr;  // router.failing_over_errors
  obs::Gauge* dead_nodes_ = nullptr;          // router.dead_nodes
};

}  // namespace shield::router

#endif  // SHIELDSTORE_SRC_ROUTER_ROUTER_H_
