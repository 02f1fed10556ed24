// Ablation: why the paper FLATTENS the Merkle tree (§4.3).
//
// Compares per-update/per-verify cost of (a) a full binary Merkle tree over
// per-bucket hashes vs (b) ShieldStore's flattened one-level MAC-hash array,
// as the bucket count grows. The full tree pays O(log n) hashes per update
// with pointer-chased nodes; the flattened design pays one CMAC over the
// bucket set. The paper's claim: "the height of the Merkle tree can be
// increased excessively for a large number of key-value pairs".
#include "bench/harness.h"
#include "src/crypto/merkle.h"
#include "src/crypto/cmac.h"

namespace shield::bench {
namespace {

volatile uint8_t benchmark_sink_;

void Run() {
  Table table("Ablation: full Merkle tree vs flattened MAC hashes (per-update cost, ns)");
  table.Header({"buckets", "tree height", "full tree", "flattened", "speedup"});

  crypto::Drbg drbg(AsBytes("merkle-ablation"));
  for (size_t buckets : {1u << 10, 1u << 14, 1u << 18, 1u << 20}) {
    crypto::MerkleTree tree(buckets);
    const size_t iters = 2000;

    // Full tree: update a random leaf (the per-bucket hash changed).
    Xoshiro256 rng(7);
    crypto::Sha256Digest leaf{};
    const uint64_t t0 = ReadCycleCounter();
    for (size_t i = 0; i < iters; ++i) {
      leaf[0] = static_cast<uint8_t>(i);
      tree.UpdateLeaf(rng.NextBelow(buckets), leaf);
    }
    const double tree_ns = CyclesToNanoseconds(ReadCycleCounter() - t0) / iters;

    // Flattened: recompute one bucket-set MAC (CMAC over the ~1.25 entry
    // MACs of an average bucket + the set index, as ShieldStore does).
    uint8_t macs[2][16] = {{1}, {2}};
    const uint8_t key[16] = {9};
    const uint64_t t1 = ReadCycleCounter();
    for (size_t i = 0; i < iters; ++i) {
      const crypto::CmacKey mac_key(ByteSpan(key, 16));
      crypto::Cmac cmac(mac_key);
      uint8_t index[8];
      StoreLe64(index, i);
      cmac.Update(ByteSpan(index, 8));
      cmac.Update(ByteSpan(&macs[0][0], 32));
      benchmark_sink_ = cmac.Finalize()[0];
    }
    const double flat_ns = CyclesToNanoseconds(ReadCycleCounter() - t1) / iters;

    size_t height = 0;
    for (size_t n = buckets; n > 1; n >>= 1) {
      ++height;
    }
    table.Row({std::to_string(buckets), std::to_string(height), Fmt(tree_ns), Fmt(flat_ns),
               Fmt(tree_ns / std::max(flat_ns, 1e-9), "%.1fx")});
  }
  std::printf("# The full tree's per-update cost grows with height (plus EPC pressure from\n"
              "# interior nodes, not charged here); the flattened design is height-free —\n"
              "# the paper's rationale for the one-level scheme.\n");
}

}  // namespace
}  // namespace shield::bench

int main() {
  shield::bench::Run();
  return 0;
}
