#include "src/net/replication.h"

#include <algorithm>

#include "src/net/protocol.h"

namespace shield::net {
namespace {

void PutU32(Bytes& out, uint32_t v) {
  uint8_t b[4];
  StoreLe32(b, v);
  out.insert(out.end(), b, b + 4);
}

void PutU64(Bytes& out, uint64_t v) {
  uint8_t b[8];
  StoreLe64(b, v);
  out.insert(out.end(), b, b + 8);
}

void PutString(Bytes& out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

bool TakeU32(ByteSpan& in, uint32_t& v) {
  if (in.size() < 4) {
    return false;
  }
  v = LoadLe32(in.data());
  in = in.subspan(4);
  return true;
}

bool TakeU64(ByteSpan& in, uint64_t& v) {
  if (in.size() < 8) {
    return false;
  }
  v = LoadLe64(in.data());
  in = in.subspan(8);
  return true;
}

bool TakeString(ByteSpan& in, std::string& out) {
  uint32_t len = 0;
  if (!TakeU32(in, len) || in.size() < len) {
    return false;
  }
  out.assign(reinterpret_cast<const char*>(in.data()), len);
  in = in.subspan(len);
  return true;
}

Status Malformed(const char* what) {
  return Status(Code::kProtocolError, what);
}

}  // namespace

Bytes EncodeReplicateFrame(const ReplicateFrame& frame) {
  Bytes out;
  size_t total = 1 + 8 + 4 + 8 + 4 + 4;
  for (const kv::BatchOp& e : frame.entries) {
    total += 1 + 4 + e.key.size() + 4 + e.value.size();
  }
  out.reserve(total);
  out.push_back(static_cast<uint8_t>(frame.type));
  PutU64(out, frame.epoch);
  PutU32(out, frame.shard);
  PutU64(out, frame.first_seq);
  PutU32(out, frame.num_shards);
  PutU32(out, static_cast<uint32_t>(frame.entries.size()));
  for (const kv::BatchOp& e : frame.entries) {
    out.push_back(e.type == kv::BatchOpType::kDelete ? 1 : 0);
    PutString(out, e.key);
    PutString(out, e.value);
  }
  return out;
}

Result<ReplicateFrame> DecodeReplicateFrame(ByteSpan payload) {
  if (payload.size() > kMaxReplicateBytes) {
    return Malformed("replicate frame too large");
  }
  if (payload.empty()) {
    return Malformed("empty replicate frame");
  }
  const uint8_t type = payload[0];
  if (type < static_cast<uint8_t>(ReplicateType::kHello) ||
      type > static_cast<uint8_t>(ReplicateType::kQuery)) {
    return Malformed("unknown replicate type");
  }
  ReplicateFrame frame;
  frame.type = static_cast<ReplicateType>(type);
  ByteSpan rest = payload.subspan(1);
  uint32_t count = 0;
  if (!TakeU64(rest, frame.epoch) || !TakeU32(rest, frame.shard) ||
      !TakeU64(rest, frame.first_seq) || !TakeU32(rest, frame.num_shards) ||
      !TakeU32(rest, count)) {
    return Malformed("truncated replicate header");
  }
  if (frame.shard >= kMaxReplicateShards || frame.num_shards > kMaxReplicateShards) {
    return Malformed("replicate shard out of range");
  }
  if (count > kMaxReplicateEntries) {
    return Malformed("too many replicate entries");
  }
  const bool carries_entries = frame.type == ReplicateType::kSnapshotChunk ||
                               frame.type == ReplicateType::kEntries;
  if (!carries_entries && count != 0) {
    return Malformed("entries on a control frame");
  }
  // A forged count cannot force an allocation beyond what the bytes on the
  // wire could hold (each entry is >= 9 bytes).
  frame.entries.reserve(std::min<size_t>(count, rest.size() / 9 + 1));
  for (uint32_t i = 0; i < count; ++i) {
    if (rest.empty()) {
      return Malformed("truncated replicate entry");
    }
    kv::BatchOp e;
    if (rest[0] > 1) {
      return Malformed("bad replicate entry op");
    }
    e.type = rest[0] == 1 ? kv::BatchOpType::kDelete : kv::BatchOpType::kSet;
    rest = rest.subspan(1);
    if (!TakeString(rest, e.key) || !TakeString(rest, e.value)) {
      return Malformed("truncated replicate entry");
    }
    if (e.key.size() > kMaxKeyBytes) {
      return Malformed("replicate key too long");
    }
    if (e.value.size() > kMaxValueBytes) {
      return Malformed("replicate value too long");
    }
    if (e.key.empty()) {
      return Malformed("empty replicate key");
    }
    frame.entries.push_back(std::move(e));
  }
  if (!rest.empty()) {
    return Malformed("trailing bytes after replicate frame");
  }
  return frame;
}

Bytes EncodeReplicaStatus(const ReplicaStatusFrame& status) {
  Bytes out;
  out.reserve(1 + 8 + 4 + 8 * status.watermarks.size());
  out.push_back(static_cast<uint8_t>(status.role));
  PutU64(out, status.epoch);
  PutU32(out, static_cast<uint32_t>(status.watermarks.size()));
  for (const uint64_t w : status.watermarks) {
    PutU64(out, w);
  }
  return out;
}

Result<ReplicaStatusFrame> DecodeReplicaStatus(ByteSpan payload) {
  if (payload.empty()) {
    return Malformed("empty replica status");
  }
  const uint8_t role = payload[0];
  if (role != static_cast<uint8_t>(ReplicaRole::kFollower) &&
      role != static_cast<uint8_t>(ReplicaRole::kPrimary)) {
    return Malformed("unknown replica role");
  }
  ReplicaStatusFrame status;
  status.role = static_cast<ReplicaRole>(role);
  ByteSpan rest = payload.subspan(1);
  uint32_t count = 0;
  if (!TakeU64(rest, status.epoch) || !TakeU32(rest, count)) {
    return Malformed("truncated replica status");
  }
  if (count > kMaxReplicateShards) {
    return Malformed("too many watermarks");
  }
  if (rest.size() != size_t{count} * 8) {
    return Malformed("malformed watermark vector");
  }
  status.watermarks.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t w = 0;
    TakeU64(rest, w);
    status.watermarks.push_back(w);
  }
  return status;
}

}  // namespace shield::net
