// EPC (enclave page cache) simulator.
//
// Real SGX backs enclave pages with a limited protected region (~90 MB
// effective); touching an enclave page that is not resident triggers demand
// paging: the kernel evicts a victim page (EWB: encrypt + MAC), loads the
// faulted page (ELDU: decrypt + verify), and the enclave is exited/re-entered
// around the fault. This simulator reproduces those costs on ordinary memory:
//
//  * a resident-set of `epc_bytes / page_bytes` page frames with CLOCK
//    (second-chance) replacement;
//  * on a fault, *real* AES-CTR + CMAC work over the victim and faulted
//    pages (the dominant, size-proportional cost), plus a calibrated spin for
//    the enclave crossings and kernel fault handling;
//  * faults are handled under one global lock, reproducing the paging
//    serialization that prevents the naive baseline from scaling (§6.2);
//  * resident accesses optionally charge a small per-page cost modelling MEE
//    cacheline en/decryption (the ~5.7x plateau of Figure 2).
//
// Page contents are never actually moved or destroyed — the crypto runs over
// the live bytes into scratch buffers purely to burn representative time —
// so the simulation is transparent to the data structures built on top.
#ifndef SHIELDSTORE_SRC_SGX_EPC_H_
#define SHIELDSTORE_SRC_SGX_EPC_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/aes.h"

namespace shield::sgx {

struct EpcConfig {
  // Effective protected capacity. The paper's hardware reserves 128 MB with
  // ~90 MB usable; the simulation default is scaled down so benchmarks cross
  // the paging cliff quickly. Benches override this.
  size_t epc_bytes = 24u << 20;
  size_t page_bytes = 4096;

  // Cost model (cycles). Crossing cost follows the ~8000-cycle figure the
  // paper cites; the kernel component covers fault dispatch + TLB shootdown.
  uint64_t crossing_cycles = 8000;
  uint64_t kernel_fault_cycles = 6000;

  // Extra cost charged per resident page touch, modelling MEE cacheline
  // crypto on EPC hits (Figure 2's SGX_Enclave plateau below the EPC limit).
  uint64_t resident_access_cycles = 150;

  // Perform real AES-CTR + CMAC work over evicted/loaded pages. Disabling
  // reduces a fault to pure spin costs (used by unit tests for speed).
  bool page_crypto = true;

  // Virtual-multicore contention model: demand paging is serviced by one
  // serialized resource (driver + EWB/ELDU hardware), so with n saturating
  // contenders each fault's observed latency is ~n x its service time. The
  // benchmarks' sequential multicore simulation sets this to the simulated
  // thread count; real concurrent threads leave it at 1 (the shared fault
  // mutex then provides the contention for real).
  size_t virtual_contention = 1;

  // How many bytes of each page the software crypto actually processes.
  // Calibration knob: hardware MEE en/decrypts 4 KB far faster than table-
  // based software AES, so processing the full page would overcharge faults
  // ~5x against the paper's measured ~60 us EWB+ELDU cost. The 1 KB default
  // lands a simulated fault at roughly that figure.
  size_t page_crypto_bytes = 1024;
};

struct EpcStats {
  uint64_t touches = 0;
  uint64_t faults = 0;
  uint64_t evictions = 0;
  uint64_t resident_pages = 0;
};

class EpcSimulator {
 public:
  // Simulates EPC for the enclave address range [region_base,
  // region_base + region_bytes). The range must outlive the simulator.
  EpcSimulator(const EpcConfig& config, const void* region_base, size_t region_bytes);

  EpcSimulator(const EpcSimulator&) = delete;
  EpcSimulator& operator=(const EpcSimulator&) = delete;

  // Declares an access to enclave memory [addr, addr + len). Every page in
  // the range is made resident, faulting + evicting as needed.
  void Touch(const void* addr, size_t len, bool write);

  // True when every page of the range is currently resident (test hook).
  bool IsResident(const void* addr, size_t len) const;

  const EpcConfig& config() const { return config_; }
  size_t capacity_pages() const { return capacity_pages_; }
  EpcStats stats() const;
  void ResetStats();

 private:
  static constexpr uint8_t kResident = 1;
  static constexpr uint8_t kReferenced = 2;

  void FaultIn(size_t page_index);
  // Burns the crypto cost of EWB (evict) or ELDU (load) for one page.
  void PageCryptoWork(size_t page_index);

  const EpcConfig config_;
  const uintptr_t region_base_;
  const size_t region_bytes_;
  const size_t page_count_;
  const size_t capacity_pages_;
  const crypto::Aes128 page_aes_;  // fixed key: work only, not secrecy

  std::vector<std::atomic<uint8_t>> page_state_;

  mutable std::mutex fault_mutex_;  // global: paging serializes threads
  size_t resident_count_ = 0;       // guarded by fault_mutex_
  size_t clock_hand_ = 0;           // guarded by fault_mutex_

  // Touches are counted on every simulated page access by every serving
  // thread, so the count is sharded per thread (obs::ThreadShard, as
  // obs::Counter is) and stats() sums the shards. Unlike a Counter it
  // counts in a SHIELD_METRICS=OFF build too.
  static constexpr size_t kTouchShards = 16;
  struct alignas(64) TouchShard {
    std::atomic<uint64_t> count{0};
  };
  TouchShard touches_[kTouchShards];
  std::atomic<uint64_t> faults_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace shield::sgx

#endif  // SHIELDSTORE_SRC_SGX_EPC_H_
