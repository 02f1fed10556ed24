// WAL shipper: the primary half of warm-standby replication.
//
// Implements shieldstore::ReplicationSink over a net::Client, so the
// WriteAheadStore's per-shard committer streams every committed group to the
// follower BEFORE its writers are acked (the zero-loss half of the failover
// invariant: acked ⇒ logged ∧ shipped).
//
// Bootstrap (Attach) runs in three steps designed so installing the sink
// FIRST costs nothing in correctness:
//   1. the caller installs this sink on its WriteAheadStore — steady-state
//      entries from here on land in the shipper's backlog;
//   2. kHello, then a snapshot dump of every partition (under that
//      partition's lock, the same primitive Repartition's dump uses) as
//      kSnapshotChunk frames, then kSnapshotDone;
//   3. the backlog drains in ship order.
// An entry can thus reach the follower twice — once inside the dump and once
// from the backlog — but the backlog copy is the NEWER state and applies
// last, so last-writer-wins makes the interleaving correct.
//
// Disconnects: ship failures buffer the batch in the backlog and the next
// ShipCommitted retries the connection on a time-gated backoff; after a
// reconnect the stream resumes contiguously from the buffered frames. If the
// follower reports a sequence gap anyway (kInvalidArgument — e.g. the
// backlog overflowed its cap and dropped), the shipper falls back to a full
// re-bootstrap rather than ever skipping records. A follower that reports
// itself promoted (kUnsupported) detaches the shipper permanently: this
// primary has been failed over and its stream is now garbage.
#ifndef SHIELDSTORE_SRC_ROUTER_SHIPPER_H_
#define SHIELDSTORE_SRC_ROUTER_SHIPPER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/net/client.h"
#include "src/net/replication.h"
#include "src/obs/metrics.h"
#include "src/shieldstore/selfheal.h"

namespace shield::router {

struct ShipperOptions {
  uint16_t follower_port = 0;
  // Primary boot epoch, stamped into every frame. Must change across primary
  // restarts (the tools derive it from boot time) so a follower can never
  // merge two different primary lifetimes into one stream.
  uint64_t epoch = 1;
  bool encrypt = true;
  // Connection behaviour while attaching / reconnecting.
  net::ClientOptions client;
  // Attach() retries this many times (the follower may still be booting).
  int attach_attempts = 20;
  int attach_backoff_ms = 100;
  // Min interval between reconnect attempts from the ship path (keeps a dead
  // follower from adding a connect timeout to every commit).
  int reconnect_interval_ms = 500;
  // Backlog cap in ENTRIES across all buffered frames; overflowing drops the
  // oldest frames (counted in repl.backlog_dropped) and forces a bootstrap
  // resync on the next successful reconnect.
  size_t max_backlog_entries = 1u << 20;
  obs::Registry* metrics = nullptr;
};

class WalShipper : public shieldstore::ReplicationSink {
 public:
  // `wal` is the primary's store facade: Attach() dumps its partitions and
  // the caller installs the shipper on it. `expected` is the follower's
  // enclave measurement (identical binaries + flags → identical measurement,
  // so the primary's own measurement is what the tools pass).
  WalShipper(shieldstore::WriteAheadStore& wal, const sgx::AttestationAuthority& authority,
             const sgx::Measurement& expected, const ShipperOptions& options);
  ~WalShipper() override;

  // Connects (with retry — the follower may still be booting) and runs the
  // bootstrap. Call AFTER installing the sink (SetReplicationSink) so
  // entries committed during the dump are backlogged, not lost.
  Status Attach();

  // ReplicationSink: called by the WAL's committers, outside shard locks.
  Status ShipCommitted(size_t shard, uint64_t first_seq,
                       std::vector<shieldstore::ReplicatedOp> ops) override;

  bool connected() const;
  bool detached() const;
  size_t backlog_entries() const;

 private:
  struct PendingFrame {
    uint32_t shard = 0;
    uint64_t first_seq = 0;
    std::vector<net::ReplicateEntry> entries;
  };

  // All Locked methods require mutex_ held. Bootstrap releases and reacquires
  // `lock` around the partition dump (see the .cc for the lock-order note).
  Status BootstrapLocked(std::unique_lock<std::mutex>& lock);
  Status SendFrameLocked(const net::ReplicateFrame& frame);
  Status DrainBacklogLocked();
  void BufferLocked(PendingFrame frame);
  Status EnsureConnectedLocked();

  shieldstore::WriteAheadStore& wal_;
  const sgx::AttestationAuthority& authority_;
  sgx::Measurement expected_;
  ShipperOptions options_;

  mutable std::mutex mutex_;
  std::unique_ptr<net::Client> client_;
  bool connected_ = false;
  bool bootstrapping_ = false;   // dump in progress: ship → backlog
  bool resync_needed_ = false;   // stream integrity lost: re-bootstrap
  bool detached_ = false;        // follower promoted: stop forever
  std::deque<PendingFrame> backlog_;
  size_t backlog_entries_ = 0;
  std::chrono::steady_clock::time_point last_connect_attempt_{};

  // repl.* metric handles.
  obs::Counter* shipped_frames_ = nullptr;   // repl.shipped_frames
  obs::Counter* shipped_entries_ = nullptr;  // repl.shipped_entries
  obs::Counter* ship_errors_ = nullptr;      // repl.ship_errors
  obs::Counter* resyncs_ = nullptr;          // repl.resyncs
  obs::Counter* backlog_dropped_ = nullptr;  // repl.backlog_dropped
  obs::Gauge* backlog_gauge_ = nullptr;      // repl.backlog_entries
  obs::Gauge* connected_gauge_ = nullptr;    // repl.connected
};

}  // namespace shield::router

#endif  // SHIELDSTORE_SRC_ROUTER_SHIPPER_H_
