// Configuration knobs for ShieldStore. Every optimization of §5 is an
// independent flag so Figure 14's cumulative-ablation bench and Figure 15's
// MAC-hash sweep are pure parameter sweeps over this struct.
#ifndef SHIELDSTORE_SRC_SHIELDSTORE_OPTIONS_H_
#define SHIELDSTORE_SRC_SHIELDSTORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "src/common/bytes.h"

namespace shield::obs {
class Registry;
}

namespace shield::alloc {
class PersistentArena;
}

namespace shield::shieldstore {

struct Options {
  // Hash-table geometry. num_mac_hashes == 0 means one MAC hash per bucket
  // (the paper's default whenever buckets < 1M); when smaller than
  // num_buckets, each MAC hash covers a contiguous set of buckets (§4.3).
  size_t num_buckets = size_t{1} << 16;
  size_t num_mac_hashes = 0;

  // §5.4: 1-byte key hint in each entry, with the two-step search fallback.
  bool key_hint = true;

  // §5.2: per-bucket MAC buckets holding copies of the entry MACs.
  bool mac_bucketing = true;

  // §5.1: in-enclave allocator for untrusted memory, drawing chunks of
  // heap_chunk_bytes per OCALL. When false, every entry allocation pays an
  // individual OCALL (the ShieldBase configuration of Figure 14).
  bool extra_heap = true;
  size_t heap_chunk_bytes = size_t{16} << 20;

  // §6.3: plaintext cache of hot entries in the EPC left over after the MAC
  // hashes (the ShieldOpt+cache line of Figure 17). cache_slots == 0 derives
  // a slot count from cache_bytes assuming ~512-byte entries.
  bool epc_cache = false;
  size_t cache_bytes = size_t{8} << 20;
  size_t cache_slots = 0;

  // Integrity machinery on/off (off is only for ablation benches).
  bool integrity = true;

  // Force the portable table-AES backend for this store regardless of the
  // process-wide dispatch (crypto::ActiveAesBackend). Used by cross-backend
  // equivalence tests and ablation benches; SHIELD_FORCE_SOFT_AES achieves
  // the same process-wide.
  bool soft_crypto = false;

  // Background-scrub pacing: buckets audited per ScrubTick call
  // (PartitionedStore), so a full-table audit amortizes over live traffic
  // instead of stalling it. The self-healing server spends one budget per
  // maintenance tick; the same tick also drives WAL shard compaction
  // (SelfHealer::Tick compacts at most one oversized shard log per tick).
  size_t scrub_budget_buckets = 256;

  // Master secret; empty => drawn from the enclave's DRBG.
  Bytes master_key;

  // Observability: registry receiving the store's stage latency histograms
  // (MAC verify, bucket search/decrypt, MAC-batch close). nullptr uses the
  // process-wide obs::Registry::Global(); tests inject their own.
  obs::Registry* metrics = nullptr;

  // mmap-backed persistent untrusted heap. `persist_dir` (PartitionedStore
  // level) opens one arena file per partition (`p<i>.heap`) of
  // persist_capacity_bytes each; restart then attaches the mapped file
  // instead of replaying the whole log, deferring per-entry MAC verification to
  // first touch + the paced scrub cursor. `arena` is the per-partition
  // injection PartitionedStore performs when building its Stores — leave it
  // null everywhere else (the store falls back to the volatile heap).
  std::string persist_dir;
  size_t persist_capacity_bytes = size_t{256} << 20;
  alloc::PersistentArena* arena = nullptr;
};

}  // namespace shield::shieldstore

#endif  // SHIELDSTORE_SRC_SHIELDSTORE_OPTIONS_H_
