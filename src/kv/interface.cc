#include "src/kv/interface.h"

#include <algorithm>
#include <charconv>

namespace shield::kv {

Status KeyValueStore::Append(std::string_view key, std::string_view suffix) {
  Result<std::string> current = Get(key);
  if (!current.ok()) {
    return current.status();
  }
  std::string next = std::move(current.value());
  next.append(suffix);
  return Set(key, next);
}

Result<int64_t> KeyValueStore::Increment(std::string_view key, int64_t delta) {
  Result<std::string> current = Get(key);
  if (!current.ok()) {
    return current.status();
  }
  int64_t value = 0;
  const std::string& s = current.value();
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status(Code::kInvalidArgument, "value is not an integer");
  }
  value += delta;
  const Status set = Set(key, std::to_string(value));
  if (!set.ok()) {
    return set;
  }
  return value;
}

BatchOpResult ExecuteSingleOp(KeyValueStore& store, const BatchOp& op) {
  BatchOpResult result;
  switch (op.type) {
    case BatchOpType::kGet: {
      Result<std::string> value = store.Get(op.key);
      result.status = value.ok() ? Status::Ok() : value.status();
      if (value.ok()) {
        result.value = std::move(value.value());
      }
      break;
    }
    case BatchOpType::kSet:
      result.status = store.Set(op.key, op.value);
      break;
    case BatchOpType::kDelete:
      result.status = store.Delete(op.key);
      break;
    case BatchOpType::kAppend: {
      result.status = store.Append(op.key, op.value);
      if (result.status.ok()) {
        // Resulting state, for write-ahead wrappers that must log it.
        Result<std::string> now = store.Get(op.key);
        if (!now.ok()) {
          result.status = now.status();
        } else {
          result.value = std::move(now.value());
        }
      }
      break;
    }
    case BatchOpType::kIncrement: {
      Result<int64_t> value = store.Increment(op.key, op.delta);
      result.status = value.ok() ? Status::Ok() : value.status();
      if (value.ok()) {
        result.value = std::to_string(value.value());
      }
      break;
    }
  }
  return result;
}

std::vector<BatchOpResult> KeyValueStore::ExecuteBatch(const std::vector<BatchOp>& ops) {
  std::vector<BatchOpResult> results;
  results.reserve(ops.size());
  for (const BatchOp& op : ops) {
    results.push_back(ExecuteSingleOp(*this, op));
  }
  return results;
}

std::vector<BatchOpResult> KeyValueStore::SubmitBatch(const std::vector<BatchOp>& ops,
                                                      DurabilityRequirement& requirement) {
  requirement.shards.clear();
  return ExecuteBatch(ops);
}

void DurabilityRequirement::Require(uint32_t shard, uint64_t sequence) {
  for (auto& [s, seq] : shards) {
    if (s == shard) {
      seq = std::max(seq, sequence);
      return;
    }
  }
  shards.emplace_back(shard, sequence);
}

void DurabilityRequirement::Merge(const DurabilityRequirement& other) {
  for (const auto& [shard, seq] : other.shards) {
    Require(shard, seq);
  }
}

DurabilityWatch::State DurabilityWatch::Check(const DurabilityRequirement& requirement,
                                              Status* failure) const {
  std::lock_guard<std::mutex> lock(mu_);
  State state = State::kDurable;
  for (const auto& [shard, seq] : requirement.shards) {
    // The table has one slot per shard of the store's fixed geometry; an
    // index past it (a watch never Reset) has nothing to wait for.
    if (shard >= durable_.size() || durable_[shard] >= seq) {
      continue;
    }
    if (!latched_[shard].ok()) {
      *failure = latched_[shard];
      return State::kFailed;
    }
    state = State::kPending;
  }
  return state;
}

uint64_t DurabilityWatch::Subscribe(std::function<void()> listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.emplace_back(next_token_, std::move(listener));
  return next_token_++;
}

void DurabilityWatch::Unsubscribe(uint64_t token) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  std::erase_if(listeners_, [&](const auto& entry) { return entry.first == token; });
}

void DurabilityWatch::Reset(size_t shards) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    durable_.resize(shards, 0);
    latched_.assign(shards, Status::Ok());
  }
  Notify();
}

Status DurabilityWatch::Wait(size_t shard, uint64_t sequence) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto durable = [&] { return shard >= durable_.size() || durable_[shard] >= sequence; };
  changed_.wait(lock, [&] { return durable() || !latched_[shard].ok(); });
  return durable() ? Status::Ok() : latched_[shard];
}

void DurabilityWatch::Publish(const std::vector<uint64_t>& durable) {
  bool raised = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t shard = 0; shard < std::min(durable.size(), durable_.size()); ++shard) {
      raised |= durable[shard] > durable_[shard];
      durable_[shard] = std::max(durable_[shard], durable[shard]);
    }
  }
  if (raised) {
    Notify();
  }
}

void DurabilityWatch::Latch(size_t shard, const Status& failure) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shard >= latched_.size()) {
      return;
    }
    latched_[shard] = failure;
  }
  Notify();
}

void DurabilityWatch::Notify() {
  changed_.notify_all();
  // Listeners run under listeners_mu_ (not a copy-then-call): Unsubscribe
  // must not return while its listener may still be running.
  std::lock_guard<std::mutex> lock(listeners_mu_);
  for (const auto& [token, listener] : listeners_) {
    listener();
  }
}

namespace {

BatchOpResult RunAsBatchOfOne(KeyValueStore& store, BatchOpType type, std::string_view key,
                              std::string_view value = {}, int64_t delta = 0) {
  const std::vector<BatchOp> ops = {{type, std::string(key), std::string(value), delta}};
  return std::move(store.ExecuteBatch(ops)[0]);
}

}  // namespace

Status BatchFirstStore::Set(std::string_view key, std::string_view value) {
  return RunAsBatchOfOne(*this, BatchOpType::kSet, key, value).status;
}

Result<std::string> BatchFirstStore::Get(std::string_view key) {
  BatchOpResult r = RunAsBatchOfOne(*this, BatchOpType::kGet, key);
  if (!r.status.ok()) {
    return r.status;
  }
  return std::move(r.value);
}

Status BatchFirstStore::Delete(std::string_view key) {
  return RunAsBatchOfOne(*this, BatchOpType::kDelete, key).status;
}

Status BatchFirstStore::Append(std::string_view key, std::string_view suffix) {
  return RunAsBatchOfOne(*this, BatchOpType::kAppend, key, suffix).status;
}

Result<int64_t> BatchFirstStore::Increment(std::string_view key, int64_t delta) {
  const BatchOpResult r = RunAsBatchOfOne(*this, BatchOpType::kIncrement, key, {}, delta);
  if (!r.status.ok()) {
    return r.status;
  }
  // The batch result carries the new value in decimal (BatchOpResult).
  int64_t value = 0;
  std::from_chars(r.value.data(), r.value.data() + r.value.size(), value);
  return value;
}

Result<bool> KeyValueStore::Exists(std::string_view key) {
  Result<std::string> current = Get(key);
  if (current.ok()) {
    return true;
  }
  if (current.status().code() == Code::kNotFound) {
    return false;
  }
  return current.status();
}

}  // namespace shield::kv
