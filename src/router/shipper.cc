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

void WalShipper::BufferLocked(PendingFrame frame) {
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
  while (!backlog_.empty()) {
    const PendingFrame& pending = backlog_.front();
    net::ReplicateFrame frame;
    frame.type = net::ReplicateType::kEntries;
    frame.epoch = options_.epoch;
    frame.shard = pending.shard;
    frame.first_seq = pending.first_seq;
    frame.entries = pending.entries;  // copy: the frame stays buffered on failure
    if (Status st = SendFrameLocked(frame); !st.ok()) {
      return st;
    }
    shipped_frames_->Inc();
    shipped_entries_->Inc(pending.entries.size());
    backlog_entries_ -= pending.entries.size();
    backlog_.pop_front();
  }
  backlog_gauge_->Set(static_cast<int64_t>(backlog_entries_));
  return Status::Ok();
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
    std::vector<std::vector<net::ReplicateEntry>> chunks;
    lock.unlock();
    size_t chunk_bytes = 0;
    Status collected = inner.WithPartitionLocked(p, [&](shieldstore::Store& partition) {
      return partition.ForEachDecrypted(
          [&](std::string_view key, std::string_view value) {
            if (chunks.empty() || chunks.back().size() >= kChunkEntries ||
                chunk_bytes >= kChunkBytes) {
              chunks.emplace_back();
              chunk_bytes = 0;
            }
            net::ReplicateEntry e;
            e.key.assign(key);
            e.value.assign(value);
            chunks.back().push_back(std::move(e));
            chunk_bytes += key.size() + value.size();
            return Status::Ok();
          });
    });
    lock.lock();
    if (!collected.ok()) {
      // E.g. a quarantined partition: its in-memory state is untrusted, so a
      // snapshot of it would replicate garbage. Heal first, attach after.
      bootstrapping_ = false;
      resync_needed_ = true;
      return collected;
    }
    for (std::vector<net::ReplicateEntry>& chunk : chunks) {
      net::ReplicateFrame frame;
      frame.type = net::ReplicateType::kSnapshotChunk;
      frame.epoch = options_.epoch;
      frame.entries = std::move(chunk);
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
                                 std::vector<shieldstore::ReplicatedOp> ops) {
  obs::TraceScope span("repl.ship");
  // Chunk to respect the codec's per-frame entry cap (a committer can
  // steal more than one batch's worth of records during a long fsync).
  std::vector<PendingFrame> frames;
  size_t i = 0;
  while (i < ops.size()) {
    PendingFrame frame;
    frame.shard = static_cast<uint32_t>(shard);
    frame.first_seq = first_seq + i;
    size_t bytes = 0;
    while (i < ops.size() && frame.entries.size() < net::kMaxReplicateEntries &&
           bytes < kChunkBytes) {
      shieldstore::ReplicatedOp& op = ops[i];
      bytes += op.key.size() + op.value.size();
      net::ReplicateEntry e;
      e.is_delete = op.is_delete;
      e.key = std::move(op.key);
      e.value = std::move(op.value);
      frame.entries.push_back(std::move(e));
      ++i;
    }
    frames.push_back(std::move(frame));
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (detached_) {
    return Status::Ok();  // failed-over primary: drop silently, it is history
  }
  if (bootstrapping_) {
    // A dump is in flight on another thread; these records are newer than
    // whatever it read, so queuing them behind kSnapshotDone is correct.
    for (PendingFrame& f : frames) {
      BufferLocked(std::move(f));
    }
    return Status::Ok();
  }
  if (!connected_ || resync_needed_) {
    Status st = EnsureConnectedLocked();
    if (st.ok() && resync_needed_) {
      st = BootstrapLocked(lock);  // drains the backlog on success
    }
    if (!st.ok() || detached_) {
      // Unreachable (or mid-resync-failure): buffer for the next attempt.
      // Accepting into the bounded backlog is this sink's "buffer-and-
      // return" contract — the WAL keeps acking, the gauge shows the lag.
      for (PendingFrame& f : frames) {
        BufferLocked(std::move(f));
      }
      return Status::Ok();
    }
  }
  if (Status st = DrainBacklogLocked(); !st.ok()) {
    for (PendingFrame& f : frames) {
      BufferLocked(std::move(f));
    }
    return Status::Ok();
  }
  for (size_t f = 0; f < frames.size(); ++f) {
    net::ReplicateFrame frame;
    frame.type = net::ReplicateType::kEntries;
    frame.epoch = options_.epoch;
    frame.shard = frames[f].shard;
    frame.first_seq = frames[f].first_seq;
    frame.entries = frames[f].entries;  // copy: buffered on failure
    if (Status st = SendFrameLocked(frame); !st.ok()) {
      for (size_t rest = f; rest < frames.size(); ++rest) {
        BufferLocked(std::move(frames[rest]));
      }
      return Status::Ok();
    }
    shipped_frames_->Inc();
    shipped_entries_->Inc(frames[f].entries.size());
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
