#include "src/router/router.h"

#include <algorithm>
#include <charconv>
#include <chrono>

#include "src/common/logging.h"
#include "src/net/replication.h"

namespace shield::router {

Router::Router(const sgx::AttestationAuthority& authority, const sgx::Measurement& expected,
               std::vector<RouterNode> nodes, const RouterOptions& options)
    : authority_(authority), expected_(expected), options_(options) {
  obs::Registry* reg =
      options_.metrics != nullptr ? options_.metrics : &obs::Registry::Global();
  failovers_ctr_ = &reg->GetCounter("router.failovers");
  retries_ctr_ = &reg->GetCounter("router.op_retries");
  failing_over_ctr_ = &reg->GetCounter("router.failing_over_errors");
  dead_nodes_ = &reg->GetGauge("router.dead_nodes");
  for (RouterNode& config : nodes) {
    auto node = std::make_unique<Node>();
    node->config = std::move(config);
    node->active_port = node->config.port;
    ring_.AddNode(node->config.name);
    nodes_.push_back(std::move(node));
  }
}

Router::~Router() {
  Stop();
}

Status Router::Start() {
  for (auto& node_ptr : nodes_) {
    Node& node = *node_ptr;
    std::lock_guard<std::mutex> lock(node.mutex);
    node.client = std::make_unique<net::Client>(authority_, expected_, options_.encrypt,
                                                options_.client);
    if (Status st = node.client->Connect(node.config.port); !st.ok()) {
      // The primary may already be down (router starting mid-outage): run
      // the failover sequence — reconnect, else promote the standby — rather
      // than refusing to start. Only a node with no live standby is fatal.
      if (Status recovered = RecoverNodeLocked(node); !recovered.ok()) {
        return Status(st.code(),
                      "node " + node.config.name + " unreachable: " + st.message());
      }
    }
  }
  if (options_.probe_interval_ms > 0) {
    stopping_ = false;
    probe_thread_ = std::thread([this] { ProbeLoop(); });
  }
  return Status::Ok();
}

void Router::Stop() {
  {
    std::lock_guard<std::mutex> lock(probe_mutex_);
    stopping_ = true;
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) {
    probe_thread_.join();
  }
  for (auto& node_ptr : nodes_) {
    std::lock_guard<std::mutex> lock(node_ptr->mutex);
    if (node_ptr->client != nullptr) {
      node_ptr->client->Close();
    }
  }
}

Router::Node* Router::FindNode(const std::string& name) {
  for (auto& node_ptr : nodes_) {
    if (node_ptr->config.name == name) {
      return node_ptr.get();
    }
  }
  return nullptr;
}

const Router::Node* Router::FindNode(const std::string& name) const {
  for (const auto& node_ptr : nodes_) {
    if (node_ptr->config.name == name) {
      return node_ptr.get();
    }
  }
  return nullptr;
}

Status Router::RecoverNodeLocked(Node& node) {
  if (node.dead) {
    return Status(Code::kFailingOver, "node " + node.config.name + " is down");
  }
  // 1. The failure may be transient (restart, dropped connection): try the
  // current address first — full Reconnect, since the old session keys died
  // with the old connection.
  if (node.client->Reconnect(node.active_port).ok()) {
    node.probe_misses = 0;
    return Status::Ok();
  }
  // 2. Primary is gone. Promote the standby — over the wire, so it works on
  // a different process (or host). Idempotent: a re-sent kPromote, or a
  // second router racing us, lands on an already-primary node harmlessly.
  if (node.config.follower_port == 0 || node.on_follower) {
    node.dead = true;
    dead_nodes_->Add(1);
    SHIELD_LOG(Warning) << "node " << node.config.name << " is down with no standby left";
    return Status(Code::kFailingOver, "node " + node.config.name + " is down");
  }
  net::Client promoter(authority_, expected_, options_.encrypt, options_.client);
  if (Status st = promoter.Connect(node.config.follower_port); !st.ok()) {
    // Standby unreachable too (maybe still booting): stay suspect, the next
    // attempt retries the whole sequence.
    return Status(Code::kFailingOver,
                  "standby for " + node.config.name + " unreachable: " + st.message());
  }
  net::ReplicateFrame promote;
  promote.type = net::ReplicateType::kPromote;
  net::Request request;
  request.op = net::OpCode::kReplicate;
  const Bytes encoded = net::EncodeReplicateFrame(promote);
  request.value.assign(AsString(encoded));
  Result<net::Response> response = promoter.Execute(request);
  if (!response.ok() || response->status != Code::kOk) {
    return Status(Code::kFailingOver, "standby for " + node.config.name +
                                          " refused promotion");
  }
  node.active_port = node.config.follower_port;
  node.on_follower = true;
  node.probe_misses = 0;
  failovers_.fetch_add(1, std::memory_order_relaxed);
  failovers_ctr_->Inc();
  SHIELD_LOG(Warning) << "node " << node.config.name << " failed over to standby on port "
                   << node.active_port;
  // 3. Redirect ourselves: fresh socket AND fresh attestation handshake —
  // the promoted node never saw the old session.
  return node.client->Reconnect(node.active_port);
}

Status Router::FailOver(const std::string& name) {
  Node* node = FindNode(name);
  if (node == nullptr) {
    return Status(Code::kInvalidArgument, "unknown node " + name);
  }
  std::lock_guard<std::mutex> lock(node->mutex);
  return RecoverNodeLocked(*node);
}

template <typename Call>
auto Router::CallWithRetry(Node& node, const Call& call) -> decltype(call(*node.client)) {
  const int tries = std::max(options_.op_retries, 1);
  for (int attempt = 0; attempt < tries; ++attempt) {
    if (attempt > 0) {
      retries_ctr_->Inc();
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.retry_backoff_ms));
    }
    std::lock_guard<std::mutex> lock(node.mutex);
    if (node.dead) {
      break;
    }
    if (!node.client->connected() && !RecoverNodeLocked(node).ok()) {
      continue;
    }
    auto result = call(*node.client);
    if (result.ok()) {
      node.probe_misses = 0;
      return result;
    }
    // I/O failure mid-call. Run the recovery sequence now; whether the call
    // landed is unknowable (classic at-least-once ambiguity), so the retry
    // above re-sends it against whichever address recovery yields.
    RecoverNodeLocked(node);
  }
  failing_over_ctr_->Inc();
  return Status(Code::kFailingOver,
                "node " + node.config.name + " is failing over; retry later");
}

Result<net::Response> Router::Execute(const net::Request& request) {
  const std::string& name = ring_.NodeFor(request.key);
  if (name.empty()) {
    return Status(Code::kInvalidArgument, "empty ring");
  }
  Node* node = FindNode(name);
  if (node == nullptr) {
    return Status(Code::kInternal, "ring names unknown node " + name);
  }
  return CallWithRetry(*node, [&](net::Client& client) { return client.Execute(request); });
}

Status Router::MSet(const std::vector<std::pair<std::string, std::string>>& pairs) {
  if (pairs.empty()) {
    return Status::Ok();
  }
  // Group by ring owner, preserving per-node pair order.
  std::vector<std::pair<Node*, std::vector<net::Request>>> groups;
  for (const auto& [key, value] : pairs) {
    const std::string& name = ring_.NodeFor(key);
    if (name.empty()) {
      return Status(Code::kInvalidArgument, "empty ring");
    }
    Node* node = FindNode(name);
    if (node == nullptr) {
      return Status(Code::kInternal, "ring names unknown node " + name);
    }
    net::Request request;
    request.op = net::OpCode::kSet;
    request.key = key;
    request.value = value;
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == node; });
    if (it == groups.end()) {
      groups.emplace_back(node, std::vector<net::Request>{});
      it = std::prev(groups.end());
    }
    it->second.push_back(std::move(request));
  }
  for (auto& [node, ops] : groups) {
    Result<std::vector<net::Response>> responses = CallWithRetry(
        *node, [&](net::Client& client) { return client.ExecuteBatch(ops); });
    if (!responses.ok()) {
      return responses.status();
    }
    for (const net::Response& r : *responses) {
      if (r.status != Code::kOk) {
        return Status(r.status, "server error");
      }
    }
  }
  return Status::Ok();
}

Result<std::vector<obs::SpanRecord>> Router::TraceDump(const std::string& name) {
  Node* node = FindNode(name);
  if (node == nullptr) {
    return Status(Code::kInvalidArgument, "unknown node " + name);
  }
  std::lock_guard<std::mutex> lock(node->mutex);
  if (node->dead || node->client == nullptr || !node->client->connected()) {
    return Status(Code::kIoError, "node " + name + " not connected");
  }
  return node->client->TraceDump();
}

Status Router::Set(std::string_view key, std::string_view value) {
  net::Request request;
  request.op = net::OpCode::kSet;
  request.key = key;
  request.value = value;
  Result<net::Response> response = Execute(request);
  if (!response.ok()) {
    return response.status();
  }
  return Status(response->status);
}

Result<std::string> Router::Get(std::string_view key) {
  net::Request request;
  request.op = net::OpCode::kGet;
  request.key = key;
  Result<net::Response> response = Execute(request);
  if (!response.ok()) {
    return response.status();
  }
  if (response->status != Code::kOk) {
    return Status(response->status, "server error");
  }
  return std::move(response->value);
}

Status Router::Delete(std::string_view key) {
  net::Request request;
  request.op = net::OpCode::kDelete;
  request.key = key;
  Result<net::Response> response = Execute(request);
  if (!response.ok()) {
    return response.status();
  }
  return Status(response->status);
}

Result<int64_t> Router::Increment(std::string_view key, int64_t delta) {
  net::Request request;
  request.op = net::OpCode::kIncrement;
  request.key = key;
  request.delta = delta;
  Result<net::Response> response = Execute(request);
  if (!response.ok()) {
    return response.status();
  }
  if (response->status != Code::kOk) {
    return Status(response->status, "server error");
  }
  int64_t value = 0;
  const std::string& s = response->value;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return Status(Code::kProtocolError, "bad increment response");
  }
  return value;
}

const std::string& Router::NodeFor(std::string_view key) const {
  return ring_.NodeFor(key);
}

std::vector<std::string> Router::Nodes() const {
  return ring_.Nodes();
}

uint16_t Router::ActivePort(const std::string& name) const {
  const Node* node = FindNode(name);
  if (node == nullptr) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(const_cast<Node*>(node)->mutex);
  return node->dead ? 0 : node->active_port;
}

void Router::ProbeLoop() {
  net::Request ping;
  ping.op = net::OpCode::kPing;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(probe_mutex_);
      probe_cv_.wait_for(lock, std::chrono::milliseconds(options_.probe_interval_ms),
                         [this] { return stopping_; });
      if (stopping_) {
        return;
      }
    }
    for (auto& node_ptr : nodes_) {
      Node& node = *node_ptr;
      std::lock_guard<std::mutex> lock(node.mutex);
      if (node.dead || node.client == nullptr) {
        continue;
      }
      const bool up = node.client->connected() && node.client->Execute(ping).ok();
      if (up) {
        node.probe_misses = 0;
        continue;
      }
      if (++node.probe_misses >= options_.probe_failures) {
        // Enough consecutive misses: run the failover sequence now so that
        // by the time traffic hits this node again, the standby is serving.
        RecoverNodeLocked(node);
      }
    }
  }
}

}  // namespace shield::router
