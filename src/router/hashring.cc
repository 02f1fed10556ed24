#include "src/router/hashring.h"

#include <set>

#include "src/crypto/siphash.h"

namespace shield::router {
namespace {

// Fixed, public ring key (see the header: placement is topology, and every
// process must compute the same ring).
constexpr crypto::SipHashKey kRingKey = {0x73, 0x68, 0x69, 0x65, 0x6c, 0x64,
                                         0x72, 0x69, 0x6e, 0x67, 0x2e, 0x76,
                                         0x31, 0x00, 0x00, 0x00};

const std::string kNoNode;

// Ring points per node.
constexpr size_t kVnodes = 64;

}  // namespace

uint64_t ConsistentHashRing::Point(const std::string& node, size_t replica) const {
  std::string label = node;
  label.push_back('#');
  label += std::to_string(replica);
  return crypto::SipHash24(kRingKey, AsBytes(label));
}

void ConsistentHashRing::AddNode(const std::string& node) {
  if (node.empty() || HasNode(node)) {
    return;
  }
  for (size_t r = 0; r < kVnodes; ++r) {
    // A point collision between distinct nodes keeps the incumbent; with
    // 64-bit points this is astronomically rare, and deterministic either
    // way (map insert ignores duplicates).
    ring_.emplace(Point(node, r), node);
  }
  ++num_nodes_;
}

void ConsistentHashRing::RemoveNode(const std::string& node) {
  if (!HasNode(node)) {
    return;
  }
  for (size_t r = 0; r < kVnodes; ++r) {
    auto it = ring_.find(Point(node, r));
    if (it != ring_.end() && it->second == node) {
      ring_.erase(it);
    }
  }
  --num_nodes_;
}

bool ConsistentHashRing::HasNode(const std::string& node) const {
  if (node.empty()) {
    return false;
  }
  auto it = ring_.find(Point(node, 0));
  return it != ring_.end() && it->second == node;
}

const std::string& ConsistentHashRing::NodeFor(std::string_view key) const {
  if (ring_.empty()) {
    return kNoNode;
  }
  const uint64_t h = crypto::SipHash24(kRingKey, AsBytes(key));
  auto it = ring_.lower_bound(h);
  if (it == ring_.end()) {
    it = ring_.begin();  // wrap: the ring is circular
  }
  return it->second;
}

std::vector<std::string> ConsistentHashRing::Nodes() const {
  std::set<std::string> unique;
  for (const auto& [point, node] : ring_) {
    unique.insert(node);
  }
  return std::vector<std::string>(unique.begin(), unique.end());
}

}  // namespace shield::router
