// Replication payload codec for the kReplicate wire verb.
//
// A kReplicate request's `value` field carries one ReplicateFrame; the
// response's `value` carries one ReplicaStatusFrame. Frames travel inside the
// attested session like every other verb, so the stream inherits the channel's
// confidentiality/integrity — what this codec adds is structure plus the same
// fuzz posture as the rest of the protocol: every length and count is checked
// against hard caps BEFORE any allocation, and any malformed input decodes to
// a typed kProtocolError, never a crash or an attacker-sized buffer.
//
// Message flow (primary ships, follower applies):
//   kHello         primary -> follower   announce (epoch, shard count)
//   kSnapshotChunk primary -> follower   bootstrap state dump (Set entries)
//   kSnapshotDone  primary -> follower   bootstrap complete; tailing begins
//   kEntries       primary -> follower   committed WAL entries, contiguous
//                                        ship sequences per shard
//   kPromote       router  -> follower   become primary (idempotent)
//   kQuery         anyone  -> node       report role/epoch/watermarks
#ifndef SHIELDSTORE_SRC_NET_REPLICATION_H_
#define SHIELDSTORE_SRC_NET_REPLICATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/kv/interface.h"

namespace shield::net {

// Decode-time bounds, mirroring the kBatch caps: a forged count must not
// yield an attacker-sized allocation.
inline constexpr size_t kMaxReplicateEntries = 1024;
inline constexpr size_t kMaxReplicateBytes = 32u << 20;
inline constexpr size_t kMaxReplicateShards = 4096;

enum class ReplicateType : uint8_t {
  kHello = 1,
  kSnapshotChunk = 2,
  kSnapshotDone = 3,
  kEntries = 4,
  kPromote = 5,
  kQuery = 6,
};

struct ReplicateFrame {
  ReplicateType type = ReplicateType::kQuery;
  // Primary boot epoch: a follower only applies entries of the epoch it was
  // bootstrapped into; a mismatch forces a fresh bootstrap instead of a
  // silent cross-epoch merge.
  uint64_t epoch = 0;
  uint32_t shard = 0;       // kEntries: source WAL shard
  uint64_t first_seq = 0;   // kEntries: ship sequence of entries[0]
  uint32_t num_shards = 0;  // kHello: primary's WAL shard count
  // kSnapshotChunk / kEntries: kSet or kDelete with the resulting state; on
  // the wire an op byte (0 set, 1 delete), the key and the value.
  std::vector<kv::BatchOp> entries;
};

enum class ReplicaRole : uint8_t {
  kFollower = 1,
  kPrimary = 2,  // after promotion (or on a node that never was a replica)
};

// Follower's answer to every replicate request: its role, the epoch it is
// tracking, and the per-shard ship-sequence watermark (the highest contiguous
// sequence applied). The shipper resumes from these after a reconnect; the
// router reads them to confirm catch-up before redirecting clients.
struct ReplicaStatusFrame {
  ReplicaRole role = ReplicaRole::kFollower;
  uint64_t epoch = 0;
  std::vector<uint64_t> watermarks;  // indexed by shard
};

Bytes EncodeReplicateFrame(const ReplicateFrame& frame);
Result<ReplicateFrame> DecodeReplicateFrame(ByteSpan payload);

Bytes EncodeReplicaStatus(const ReplicaStatusFrame& status);
Result<ReplicaStatusFrame> DecodeReplicaStatus(ByteSpan payload);

}  // namespace shield::net

#endif  // SHIELDSTORE_SRC_NET_REPLICATION_H_
