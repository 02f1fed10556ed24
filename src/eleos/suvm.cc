#include "src/eleos/suvm.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

#include "src/crypto/cmac.h"
#include "src/crypto/ctr.h"

namespace shield::eleos {
namespace {

constexpr uint8_t kSuvmKey[16] = {0x1e, 0x1e, 0x05, 0x00, 0x11, 0x22, 0x33, 0x44,
                                  0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc};

}  // namespace

Suvm::Suvm(sgx::Enclave& enclave, const SuvmConfig& config)
    : enclave_(enclave),
      config_(config),
      pools_(config.pool_bytes, config.max_pools),
      page_aes_(ByteSpan(kSuvmKey, sizeof(kSuvmKey))) {
  num_frames_ = std::max<size_t>(config_.cache_bytes / config_.page_bytes, 2);
  frames_data_ = static_cast<uint8_t*>(enclave_.Allocate(num_frames_ * config_.page_bytes));
  assert(frames_data_ != nullptr && "enclave heap too small for the SUVM page cache");
  frames_.resize(num_frames_);
  page_to_frame_.reserve(num_frames_ * 2);
}

Suvm::~Suvm() {
  enclave_.Free(frames_data_);
}

SPtr Suvm::Allocate(size_t bytes) {
  void* p = pools_.Allocate(bytes);
  return reinterpret_cast<SPtr>(p);
}

void Suvm::Free(SPtr ptr) {
  if (ptr != kNullSPtr) {
    pools_.Free(reinterpret_cast<void*>(ptr));
  }
}

void Suvm::WriteBack(size_t frame_index) {
  Frame& frame = frames_[frame_index];
  uint8_t* backing = reinterpret_cast<uint8_t*>(frame.page_id * config_.page_bytes);
  // Encrypt the decrypted frame back into the untrusted backing page.
  uint8_t counter[crypto::kAesBlockSize] = {};
  StoreLe64(counter, frame.page_id);
  enclave_.Touch(FrameData(frame_index), config_.page_bytes);
  crypto::AesCtrTransform(page_aes_, counter, 32,
                          ByteSpan(FrameData(frame_index), config_.page_bytes),
                          MutableByteSpan(backing, config_.page_bytes));
  if (config_.integrity) {
    const crypto::CmacKey mac_key(ByteSpan(kSuvmKey, sizeof(kSuvmKey)));
    crypto::Cmac cmac(mac_key);
    cmac.Update(ByteSpan(backing, config_.page_bytes));
    page_macs_[frame.page_id] = cmac.Finalize();
  }
  stats_.writebacks++;
  frame.dirty = false;
}

size_t Suvm::EnsureCached(uint64_t page_id) {
  auto it = page_to_frame_.find(page_id);
  if (it != page_to_frame_.end()) {
    frames_[it->second].referenced = true;
    return it->second;
  }
  stats_.page_faults++;
  // CLOCK victim selection.
  size_t victim = clock_hand_;
  for (;;) {
    victim = (victim + 1) % num_frames_;
    Frame& f = frames_[victim];
    if (!f.valid) {
      break;
    }
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    break;
  }
  clock_hand_ = victim;
  Frame& frame = frames_[victim];
  if (frame.valid) {
    if (frame.dirty) {
      WriteBack(victim);
    }
    page_to_frame_.erase(frame.page_id);
  }
  // Exit-less load: decrypt the backing page into the frame — all inside the
  // enclave, no boundary crossing.
  const uint8_t* backing = reinterpret_cast<const uint8_t*>(page_id * config_.page_bytes);
  if (config_.integrity) {
    auto mac_it = page_macs_.find(page_id);
    if (mac_it != page_macs_.end()) {
      const crypto::CmacKey mac_key(ByteSpan(kSuvmKey, sizeof(kSuvmKey)));
      crypto::Cmac cmac(mac_key);
      cmac.Update(ByteSpan(backing, config_.page_bytes));
      const crypto::Mac computed = cmac.Finalize();
      if (!ConstantTimeEqual(ByteSpan(computed.data(), 16),
                             ByteSpan(mac_it->second.data(), 16))) {
        // Eleos aborts the enclave on backing-store integrity violations.
        std::abort();
      }
    }
  }
  uint8_t counter[crypto::kAesBlockSize] = {};
  StoreLe64(counter, page_id);
  enclave_.Touch(FrameData(victim), config_.page_bytes, /*write=*/true);
  crypto::AesCtrTransform(page_aes_, counter, 32, ByteSpan(backing, config_.page_bytes),
                          MutableByteSpan(FrameData(victim), config_.page_bytes));
  frame.page_id = page_id;
  frame.valid = true;
  frame.dirty = false;
  frame.referenced = true;
  page_to_frame_[page_id] = victim;
  return victim;
}

void Suvm::Read(SPtr ptr, void* out, size_t len) {
  stats_.reads++;
  size_t done = 0;
  while (done < len) {
    const uintptr_t addr = ptr + done;
    const uint64_t page_id = addr / config_.page_bytes;
    const size_t in_page = addr % config_.page_bytes;
    const size_t n = std::min(len - done, config_.page_bytes - in_page);
    const size_t frame = EnsureCached(page_id);
    enclave_.Touch(FrameData(frame) + in_page, n);
    std::memcpy(static_cast<uint8_t*>(out) + done, FrameData(frame) + in_page, n);
    done += n;
  }
}

void Suvm::Write(SPtr ptr, const void* src, size_t len) {
  stats_.writes++;
  size_t done = 0;
  while (done < len) {
    const uintptr_t addr = ptr + done;
    const uint64_t page_id = addr / config_.page_bytes;
    const size_t in_page = addr % config_.page_bytes;
    const size_t n = std::min(len - done, config_.page_bytes - in_page);
    const size_t frame = EnsureCached(page_id);
    enclave_.Touch(FrameData(frame) + in_page, n, /*write=*/true);
    std::memcpy(FrameData(frame) + in_page, static_cast<const uint8_t*>(src) + done, n);
    frames_[frame].dirty = true;
    done += n;
  }
}

}  // namespace shield::eleos
