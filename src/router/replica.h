// Warm-standby replica: applies a primary's replication stream.
//
// A follower process runs the full server stack (store, WAL, healer) but
// receives its writes over the kReplicate verb instead of from clients: the
// primary's WalShipper bootstraps it with a snapshot dump, then tails the
// committed WAL entries. Because frames are applied through the follower's
// OWN WriteAheadStore facade, every replicated mutation is re-logged locally
// — a promoted follower has its own durable history and can itself be
// checkpointed, compacted, healed, and (transitively) replicated.
//
// State machine per follower:
//
//   empty --kHello--> bootstrapping --kSnapshotChunk*--> bootstrapping
//        --kSnapshotDone--> tailing --kEntries*--> tailing
//        --kPromote--> primary (terminal; further entries are refused)
//
// Watermarks: per WAL shard, the highest ship sequence applied. The first
// kEntries frame a shard sees after a bootstrap SETS its base (the snapshot
// subsumes everything earlier); from then on a frame must overlap or extend
// the watermark — a duplicate prefix (shipper retransmit after reconnect) is
// skipped idempotently, a gap is refused with kInvalidArgument so the
// shipper falls back to a fresh bootstrap instead of silently losing the
// missing records.
#ifndef SHIELDSTORE_SRC_ROUTER_REPLICA_H_
#define SHIELDSTORE_SRC_ROUTER_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/kv/interface.h"
#include "src/net/protocol.h"
#include "src/net/replication.h"
#include "src/obs/metrics.h"

namespace shield::router {

class ReplicaNode {
 public:
  // `store` is the follower's serving store (normally its WriteAheadStore
  // facade, so replicated entries hit the local WAL). `metrics` nullptr uses
  // the process-wide registry.
  explicit ReplicaNode(kv::KeyValueStore& store, obs::Registry* metrics = nullptr);

  // The server's ServerOptions::replicate_handler. The request's value field
  // carries one ReplicateFrame; the response's value always carries this
  // node's ReplicaStatusFrame (role, epoch, watermarks), and the status code
  // classifies the outcome:
  //   kOk              frame accepted/applied
  //   kProtocolError   malformed frame (fuzz posture: typed, never a crash)
  //   kInvalidArgument epoch mismatch or sequence gap — shipper must resync
  //   kUnsupported     this node is primary now; the (stale) shipper detaches
  net::Response HandleReplicate(const net::Request& request);

  // Idempotent role flip, also reachable over the wire via kPromote — the
  // router promotes through the verb so it works cross-process.
  void Promote();

  net::ReplicaRole role() const;
  uint64_t epoch() const;
  std::vector<uint64_t> watermarks() const;
  uint64_t applied_entries() const {
    return applied_entries_.load(std::memory_order_relaxed);
  }

 private:
  net::Response Reply(Code code) const;  // status frame under lock
  net::Response ReplyLocked(Code code) const;

  kv::KeyValueStore& store_;
  mutable std::mutex mutex_;
  net::ReplicaRole role_ = net::ReplicaRole::kFollower;
  uint64_t epoch_ = 0;  // 0 = never bootstrapped
  bool bootstrapping_ = false;
  std::vector<uint64_t> watermarks_;  // per shard, ship-seq space
  std::vector<bool> fresh_;           // shard has seen no kEntries since bootstrap
  std::atomic<uint64_t> applied_entries_{0};

  // repl.* metric handles (cached; registry lookups take a mutex).
  obs::Counter* frames_ = nullptr;            // repl.frames
  obs::Counter* applied_ = nullptr;           // repl.applied_entries
  obs::Counter* snapshot_entries_ = nullptr;  // repl.snapshot_entries
  obs::Counter* rejected_ = nullptr;          // repl.rejected_frames
  obs::Gauge* role_gauge_ = nullptr;          // repl.role (1=follower, 2=primary)
};

}  // namespace shield::router

#endif  // SHIELDSTORE_SRC_ROUTER_REPLICA_H_
