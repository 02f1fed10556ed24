// Consistent-hash ring for multi-node key routing.
//
// Each node is placed on a 64-bit ring at 64 pseudo-random points; a
// key is served by the first node point at or clockwise-after the key's hash.
// Virtual nodes smooth the load split (with v points per node, the expected
// per-node share deviates by O(1/sqrt(v))), and removing a node reassigns
// ONLY its arcs — the property that makes failover cheap: when a node dies,
// every other node's key ownership is untouched.
//
// Hashing is SipHash-2-4 under a FIXED key: ring placement is topology, not
// a secret (unlike the store's bucket index, whose keyed hash hides the key
// distribution from an untrusted observer), and a fixed key means every
// router process, bench, and test computes the identical ring.
#ifndef SHIELDSTORE_SRC_ROUTER_HASHRING_H_
#define SHIELDSTORE_SRC_ROUTER_HASHRING_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace shield::router {

class ConsistentHashRing {
 public:
  // Adding an existing node is a no-op; removing an absent one likewise.
  void AddNode(const std::string& node);
  void RemoveNode(const std::string& node);

  // The node owning `key`, or "" on an empty ring.
  const std::string& NodeFor(std::string_view key) const;

  size_t num_nodes() const { return num_nodes_; }
  bool HasNode(const std::string& node) const;
  // Node ids in insertion-independent (sorted) order.
  std::vector<std::string> Nodes() const;

 private:
  uint64_t Point(const std::string& node, size_t replica) const;

  size_t num_nodes_ = 0;
  std::map<uint64_t, std::string> ring_;  // point -> node id
};

}  // namespace shield::router

#endif  // SHIELDSTORE_SRC_ROUTER_HASHRING_H_
