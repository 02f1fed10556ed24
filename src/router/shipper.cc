#include "src/router/shipper.h"

#include <algorithm>
#include <thread>

#include "src/common/logging.h"
#include "src/obs/tracer.h"

namespace shield::router {
namespace {

// Bootstrap chunking: well under the codec caps so a chunk always decodes.
constexpr size_t kChunkEntries = 512;
constexpr size_t kChunkBytes = 1u << 20;

}  // namespace

WalShipper::WalShipper(shieldstore::WriteAheadStore& wal,
                       const sgx::AttestationAuthority& authority,
                       const sgx::Measurement& expected, const ShipperOptions& options)
    : wal_(wal), authority_(authority), expected_(expected), options_(options) {
  obs::Registry* reg =
      options_.metrics != nullptr ? options_.metrics : &obs::Registry::Global();
  shipped_frames_ = &reg->GetCounter("repl.shipped_frames");
  shipped_entries_ = &reg->GetCounter("repl.shipped_entries");
  ship_errors_ = &reg->GetCounter("repl.ship_errors");
  resyncs_ = &reg->GetCounter("repl.resyncs");
  backlog_dropped_ = &reg->GetCounter("repl.backlog_dropped");
  backlog_gauge_ = &reg->GetGauge("repl.backlog_entries");
  connected_gauge_ = &reg->GetGauge("repl.connected");
}

WalShipper::~WalShipper() = default;

Status WalShipper::SendFrameLocked(const net::ReplicateFrame& frame) {
  if (client_ == nullptr || !connected_) {
    return Status(Code::kIoError, "shipper not connected");
  }
  net::Request request;
  request.op = net::OpCode::kReplicate;
  const Bytes encoded = net::EncodeReplicateFrame(frame);
  request.value.assign(AsString(encoded));
  Result<net::Response> response = client_->Execute(request);
  if (!response.ok()) {
    connected_ = false;
    connected_gauge_->Set(0);
    ship_errors_->Inc();
    return response.status();
  }
  switch (response->status) {
    case Code::kOk:
      return Status::Ok();
    case Code::kUnsupported:
      // The follower is primary now: this node has been failed over. Its
      // stream is garbage — stop forever rather than fight the new primary.
      detached_ = true;
      SHIELD_LOG(Warning) << "replication follower reports itself promoted; detaching shipper";
      return Status(Code::kUnsupported, "follower promoted");
    case Code::kInvalidArgument:
      // Epoch mismatch or sequence gap: the stream lost integrity and only a
      // fresh bootstrap can restore it. Never skip records to "catch up".
      resync_needed_ = true;
      ship_errors_->Inc();
      return Status(Code::kInvalidArgument, "follower requires resync");
    default:
      ship_errors_->Inc();
      return Status(response->status, "follower rejected replicate frame");
  }
}

void WalShipper::BufferLocked(net::ReplicateFrame frame) {
  backlog_entries_ += frame.entries.size();
  backlog_.push_back(std::move(frame));
  while (backlog_entries_ > options_.max_backlog_entries && !backlog_.empty()) {
    // Overflow: drop oldest. The per-shard stream is no longer contiguous,
    // so only a fresh bootstrap may resume it.
    backlog_entries_ -= backlog_.front().entries.size();
    backlog_dropped_->Inc(backlog_.front().entries.size());
    backlog_.pop_front();
    resync_needed_ = true;
  }
  backlog_gauge_->Set(static_cast<int64_t>(backlog_entries_));
}

Status WalShipper::DrainBacklogLocked() {
  Status st;
  while (st.ok() && !backlog_.empty()) {
    const net::ReplicateFrame& frame = backlog_.front();
    st = SendFrameLocked(frame);
    if (st.ok()) {
      shipped_frames_->Inc();
      shipped_entries_->Inc(frame.entries.size());
      backlog_entries_ -= frame.entries.size();
      backlog_.pop_front();
    }
  }
  backlog_gauge_->Set(static_cast<int64_t>(backlog_entries_));
  return st;
}

Status WalShipper::EnsureConnectedLocked() {
  if (detached_) {
    return Status(Code::kUnsupported, "shipper detached");
  }
  if (connected_) {
    return Status::Ok();
  }
  const auto now = std::chrono::steady_clock::now();
  if (now - last_connect_attempt_ <
      std::chrono::milliseconds(options_.reconnect_interval_ms)) {
    return Status(Code::kIoError, "follower unreachable (backoff)");
  }
  last_connect_attempt_ = now;
  if (client_ == nullptr) {
    return Status(Code::kInvalidArgument, "Attach() never ran");
  }
  if (Status st = client_->Reconnect(options_.follower_port); !st.ok()) {
    return st;
  }
  connected_ = true;
  connected_gauge_->Set(1);
  return Status::Ok();
}

Status WalShipper::BootstrapLocked(std::unique_lock<std::mutex>& lock) {
  bootstrapping_ = true;
  resyncs_->Inc();
  net::ReplicateFrame hello;
  hello.type = net::ReplicateType::kHello;
  hello.epoch = options_.epoch;
  hello.num_shards = static_cast<uint32_t>(wal_.num_shards());
  if (Status st = SendFrameLocked(hello); !st.ok()) {
    bootstrapping_ = false;
    resync_needed_ = true;
    return st;
  }
  // Dump every partition. The collect step runs with OUR mutex released
  // (ShipCommitted callers meanwhile buffer into the backlog) because it
  // takes the store's partition locks — holding this mutex across those
  // would couple the shipper into the store's lock order.
  shieldstore::PartitionedStore& inner = wal_.inner();
  const size_t parts = inner.num_partitions();
  for (size_t p = 0; p < parts; ++p) {
    std::vector<net::ReplicateFrame> chunks;
    lock.unlock();
    size_t chunk_bytes = 0;
    Status collected = inner.WithPartitionLocked(p, [&](shieldstore::Store& partition) {
      return partition.ForEachDecrypted(
          [&](std::string_view key, std::string_view value) {
            if (chunks.empty() || chunks.back().entries.size() >= kChunkEntries ||
                chunk_bytes >= kChunkBytes) {
              chunks.emplace_back();
              chunks.back().type = net::ReplicateType::kSnapshotChunk;
              chunks.back().epoch = options_.epoch;
              chunk_bytes = 0;
            }
            chunks.back().entries.push_back(
                {kv::BatchOpType::kSet, std::string(key), std::string(value)});
            chunk_bytes += key.size() + value.size();
            return Status::Ok();
          });
    });
    lock.lock();
    if (!collected.ok()) {
      // A quarantined partition, or one whose audited walk (ForEachDecrypted)
      // just found a silent tamper and quarantined it: its in-memory state is
      // untrusted, so none of what the walk collected ships. Heal first,
      // attach after.
      bootstrapping_ = false;
      resync_needed_ = true;
      return collected;
    }
    for (const net::ReplicateFrame& frame : chunks) {
      if (Status st = SendFrameLocked(frame); !st.ok()) {
        bootstrapping_ = false;
        resync_needed_ = true;
        return st;
      }
    }
  }
  net::ReplicateFrame done;
  done.type = net::ReplicateType::kSnapshotDone;
  done.epoch = options_.epoch;
  if (Status st = SendFrameLocked(done); !st.ok()) {
    bootstrapping_ = false;
    resync_needed_ = true;
    return st;
  }
  bootstrapping_ = false;
  resync_needed_ = false;
  // Entries committed during the dump now stream in ship order. Any overlap
  // with the dump is resolved by the follower: the backlog copy is newer
  // state and applies last (and per-shard watermarks dedupe retransmits).
  return DrainBacklogLocked();
}

Status WalShipper::Attach() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (detached_) {
    return Status(Code::kUnsupported, "shipper detached");
  }
  if (client_ == nullptr) {
    client_ = std::make_unique<net::Client>(authority_, expected_, options_.encrypt,
                                            options_.client);
  }
  Status last;
  for (int attempt = 0; attempt < std::max(options_.attach_attempts, 1); ++attempt) {
    if (attempt > 0) {
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.attach_backoff_ms));
      lock.lock();
    }
    last = client_->connected() ? client_->Reconnect(options_.follower_port)
                                : client_->Connect(options_.follower_port);
    if (last.ok()) {
      break;
    }
  }
  if (!last.ok()) {
    return last;
  }
  connected_ = true;
  connected_gauge_->Set(1);
  last_connect_attempt_ = std::chrono::steady_clock::now();
  return BootstrapLocked(lock);
}

Status WalShipper::ShipCommitted(size_t shard, uint64_t first_seq,
                                 std::vector<kv::BatchOp> ops) {
  obs::TraceScope span("repl.ship");
  std::unique_lock<std::mutex> lock(mutex_);
  if (detached_) {
    return Status::Ok();  // failed-over primary: drop silently, it is history
  }
  // Chunk to respect the codec's per-frame entry cap (a committer can take
  // more than one batch's worth of records during a long fsync).
  size_t i = 0;
  while (i < ops.size()) {
    net::ReplicateFrame frame;
    frame.type = net::ReplicateType::kEntries;
    frame.epoch = options_.epoch;
    frame.shard = static_cast<uint32_t>(shard);
    frame.first_seq = first_seq + i;
    size_t bytes = 0;
    while (i < ops.size() && frame.entries.size() < net::kMaxReplicateEntries &&
           bytes < kChunkBytes) {
      bytes += ops[i].key.size() + ops[i].value.size();
      frame.entries.push_back(std::move(ops[i++]));
    }
    BufferLocked(std::move(frame));
  }
  if (bootstrapping_) {
    // A dump is in flight on another thread; these records are newer than
    // whatever it read, so they drain behind kSnapshotDone.
    return Status::Ok();
  }
  // A failure here leaves the frames buffered for the next attempt:
  // accepting into the bounded backlog is this sink's "buffer-and-return"
  // contract — the WAL keeps acking, the gauge shows the lag.
  if (EnsureConnectedLocked().ok()) {
    if (resync_needed_) {
      BootstrapLocked(lock);  // drains the backlog on success
    } else {
      DrainBacklogLocked();
    }
  }
  return Status::Ok();
}

bool WalShipper::connected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return connected_;
}

bool WalShipper::detached() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return detached_;
}

size_t WalShipper::backlog_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return backlog_entries_;
}

}  // namespace shield::router
