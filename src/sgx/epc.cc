#include "src/sgx/epc.h"

#include <cassert>
#include <cstring>

#include "src/common/cycles.h"
#include "src/crypto/cmac.h"
#include "src/crypto/ctr.h"

namespace shield::sgx {
namespace {

constexpr uint8_t kPageKey[16] = {0x5a, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                                  0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};

}  // namespace

EpcSimulator::EpcSimulator(const EpcConfig& config, const void* region_base, size_t region_bytes)
    : config_(config),
      region_base_(reinterpret_cast<uintptr_t>(region_base)),
      region_bytes_(region_bytes),
      page_count_((region_bytes + config.page_bytes - 1) / config.page_bytes),
      capacity_pages_(std::max<size_t>(config.epc_bytes / config.page_bytes, 1)),
      page_aes_(ByteSpan(kPageKey, sizeof(kPageKey))),
      page_state_(page_count_) {
  assert(region_bytes > 0);
  for (auto& s : page_state_) {
    s.store(0, std::memory_order_relaxed);
  }
}

void EpcSimulator::Touch(const void* addr, size_t len, bool write) {
  (void)write;  // dirtiness does not change the cost model: EWB always encrypts
  if (len == 0) {
    return;
  }
  const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
  assert(a >= region_base_ && a + len <= region_base_ + region_bytes_);
  const size_t first = (a - region_base_) / config_.page_bytes;
  const size_t last = (a + len - 1 - region_base_) / config_.page_bytes;
  touches_.fetch_add(1, std::memory_order_relaxed);
  for (size_t page = first; page <= last; ++page) {
    const uint8_t state = page_state_[page].load(std::memory_order_acquire);
    if (state & kResident) {
      if (!(state & kReferenced)) {
        page_state_[page].fetch_or(kReferenced, std::memory_order_relaxed);
      }
      SpinCycles(config_.resident_access_cycles);
      continue;
    }
    FaultIn(page);
  }
}

void EpcSimulator::FaultIn(size_t page_index) {
  // An EPC fault exits the enclave, is handled by the (simulated) kernel, and
  // re-enters. Everything below the lock is intentionally serialized: demand
  // paging through the driver is a global bottleneck on real hardware too.
  std::lock_guard<std::mutex> lock(fault_mutex_);
  if (page_state_[page_index].load(std::memory_order_acquire) & kResident) {
    return;  // raced with another thread's fault
  }
  faults_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t fault_start = ReadCycleCounter();
  SpinCycles(config_.crossing_cycles);  // AEX out of the enclave

  if (resident_count_ >= capacity_pages_) {
    // CLOCK second-chance scan for a victim.
    for (;;) {
      clock_hand_ = (clock_hand_ + 1) % page_count_;
      const uint8_t s = page_state_[clock_hand_].load(std::memory_order_relaxed);
      if (!(s & kResident)) {
        continue;
      }
      if (s & kReferenced) {
        page_state_[clock_hand_].store(kResident, std::memory_order_relaxed);
        continue;
      }
      // Victim found: EWB — encrypt + MAC the outgoing page.
      page_state_[clock_hand_].store(0, std::memory_order_release);
      --resident_count_;
      evictions_.fetch_add(1, std::memory_order_relaxed);
      PageCryptoWork(clock_hand_);
      break;
    }
  }

  SpinCycles(config_.kernel_fault_cycles);
  // ELDU — decrypt + verify the incoming page.
  PageCryptoWork(page_index);
  page_state_[page_index].store(kResident | kReferenced, std::memory_order_release);
  ++resident_count_;

  SpinCycles(config_.crossing_cycles);  // ERESUME back into the enclave

  if (config_.virtual_contention > 1) {
    // Queueing delay behind (n-1) simulated contenders of the fault path.
    const uint64_t service = ReadCycleCounter() - fault_start;
    SpinCycles(service * (config_.virtual_contention - 1));
  }
}

void EpcSimulator::PageCryptoWork(size_t page_index) {
  if (!config_.page_crypto) {
    return;
  }
  // Real AES-CTR + CMAC over the page's live bytes into scratch: burns the
  // size-proportional cost without disturbing the data.
  static thread_local std::vector<uint8_t> scratch;
  scratch.resize(config_.page_bytes);
  const uint8_t* page =
      reinterpret_cast<const uint8_t*>(region_base_ + page_index * config_.page_bytes);
  size_t page_len =
      std::min(config_.page_bytes, region_bytes_ - page_index * config_.page_bytes);
  page_len = std::min(page_len, std::max<size_t>(config_.page_crypto_bytes, 64));
  uint8_t counter[crypto::kAesBlockSize] = {};
  StoreLe64(counter, static_cast<uint64_t>(page_index));
  crypto::AesCtrTransform(page_aes_, counter, 32, ByteSpan(page, page_len),
                          MutableByteSpan(scratch.data(), page_len));
  // The CMAC key is expanded per fault on purpose: the key schedule is part
  // of the modelled page-crypto cost.
  const crypto::CmacKey mac_key(ByteSpan(kPageKey, sizeof(kPageKey)));
  crypto::Cmac cmac(mac_key);
  cmac.Update(ByteSpan(scratch.data(), page_len));
  volatile uint8_t sink = cmac.Finalize()[0];
  (void)sink;
}

bool EpcSimulator::IsResident(const void* addr, size_t len) const {
  const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
  if (len == 0 || a < region_base_ || a + len > region_base_ + region_bytes_) {
    return false;
  }
  const size_t first = (a - region_base_) / config_.page_bytes;
  const size_t last = (a + len - 1 - region_base_) / config_.page_bytes;
  for (size_t page = first; page <= last; ++page) {
    if (!(page_state_[page].load(std::memory_order_acquire) & kResident)) {
      return false;
    }
  }
  return true;
}

EpcStats EpcSimulator::stats() const {
  EpcStats s;
  s.touches = touches_.load(std::memory_order_relaxed);
  s.faults = faults_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(fault_mutex_);
  s.resident_pages = resident_count_;
  return s;
}

void EpcSimulator::ResetStats() {
  touches_.store(0, std::memory_order_relaxed);
  faults_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace shield::sgx
