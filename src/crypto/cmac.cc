#include "src/crypto/cmac.h"

#include <cassert>
#include <cstring>

namespace shield::crypto {
namespace {

// Doubles a value in GF(2^128) with the CMAC polynomial (x^128+x^7+x^2+x+1).
void GfDouble(const uint8_t in[16], uint8_t out[16]) {
  uint8_t carry = 0;
  for (int i = 15; i >= 0; --i) {
    const uint8_t b = in[i];
    out[i] = static_cast<uint8_t>((b << 1) | carry);
    carry = b >> 7;
  }
  if (carry) {
    out[15] ^= 0x87;
  }
}

void DeriveSubkeys(const Aes128& aes, AesBlock& k1, AesBlock& k2) {
  uint8_t zero[16] = {};
  uint8_t l[16];
  aes.EncryptBlock(zero, l);
  GfDouble(l, k1.data());
  GfDouble(k1.data(), k2.data());
}

// Per-lane read position inside a multi-part message.
struct LaneCursor {
  size_t part = 0;
  size_t offset = 0;
  size_t remaining = 0;
  bool done = false;
};

// Copies the next `n` message bytes (crossing part boundaries) into `block`
// and advances the cursor.
void GatherBlock(const CmacMessage& msg, LaneCursor& cur, uint8_t block[kAesBlockSize],
                 size_t n) {
  size_t filled = 0;
  while (filled < n) {
    const ByteSpan p = msg.parts[cur.part];
    if (cur.offset == p.size()) {
      ++cur.part;
      cur.offset = 0;
      continue;
    }
    const size_t take = std::min(n - filled, p.size() - cur.offset);
    std::memcpy(block + filled, p.data() + cur.offset, take);
    cur.offset += take;
    filled += take;
  }
  cur.remaining -= n;
}

}  // namespace

CmacKey::CmacKey(ByteSpan key) : aes_(key) {
  DeriveSubkeys(aes_, k1_, k2_);
}

CmacKey::CmacKey(ByteSpan key, AesBackend backend) : aes_(key, backend) {
  DeriveSubkeys(aes_, k1_, k2_);
}

Cmac::Cmac(const CmacKey& key) : key_(key) {
  Reset();
}

void Cmac::Reset() {
  state_.fill(0);
  partial_.fill(0);
  partial_len_ = 0;
  any_data_ = false;
}

void Cmac::Update(ByteSpan data) {
  size_t offset = 0;
  while (offset < data.size()) {
    if (partial_len_ == kAesBlockSize) {
      // Flush a full non-final block.
      for (size_t i = 0; i < kAesBlockSize; ++i) {
        state_[i] ^= partial_[i];
      }
      key_.aes().EncryptBlock(state_.data(), state_.data());
      partial_len_ = 0;
    }
    const size_t n = std::min(data.size() - offset, kAesBlockSize - partial_len_);
    std::memcpy(partial_.data() + partial_len_, data.data() + offset, n);
    partial_len_ += n;
    offset += n;
    any_data_ = true;
  }
}

Mac Cmac::Finalize() {
  const AesBlock& k1 = key_.k1();
  const AesBlock& k2 = key_.k2();
  Mac tag;
  AesBlock last{};
  if (any_data_ && partial_len_ == kAesBlockSize) {
    // Complete final block: XOR with K1.
    for (size_t i = 0; i < kAesBlockSize; ++i) {
      last[i] = static_cast<uint8_t>(partial_[i] ^ k1[i]);
    }
  } else {
    // Padded final block: 10* padding, XOR with K2.
    std::memcpy(last.data(), partial_.data(), partial_len_);
    last[partial_len_] = 0x80;
    for (size_t i = partial_len_ + 1; i < kAesBlockSize; ++i) {
      last[i] = 0;
    }
    for (size_t i = 0; i < kAesBlockSize; ++i) {
      last[i] = static_cast<uint8_t>(last[i] ^ k2[i]);
    }
  }
  for (size_t i = 0; i < kAesBlockSize; ++i) {
    state_[i] ^= last[i];
  }
  key_.aes().EncryptBlock(state_.data(), tag.data());
  return tag;
}

void CmacSignBatch(const CmacKey& key, std::span<const CmacMessage> messages, Mac* tags) {
  const Aes128& aes = key.aes();
  const AesBlock& k1 = key.k1();
  const AesBlock& k2 = key.k2();
  for (size_t base = 0; base < messages.size(); base += kCmacBatchLanes) {
    const size_t lanes = std::min(kCmacBatchLanes, messages.size() - base);
    if (lanes == 1) {
      // A lone message has nothing to interleave with: the streaming form
      // skips the per-block gather and lane bookkeeping.
      Cmac cmac(key);
      const CmacMessage& msg = messages[base];
      for (size_t i = 0; i < msg.num_parts; ++i) {
        cmac.Update(msg.parts[i]);
      }
      tags[base] = cmac.Finalize();
      continue;
    }
    AesBlock state[kCmacBatchLanes];
    LaneCursor cur[kCmacBatchLanes];
    for (size_t lane = 0; lane < lanes; ++lane) {
      state[lane].fill(0);
      cur[lane].remaining = messages[base + lane].TotalSize();
    }
    // Advance every still-active CBC-MAC chain by one block per round. The
    // XORed-in blocks are gathered into one buffer so EncryptBlocks can keep
    // the whole round's worth of independent blocks in flight.
    uint8_t buf[kCmacBatchLanes * kAesBlockSize];
    size_t slot_lane[kCmacBatchLanes];
    size_t done = 0;
    while (done < lanes) {
      size_t active = 0;
      for (size_t lane = 0; lane < lanes; ++lane) {
        if (cur[lane].done) {
          continue;
        }
        const CmacMessage& msg = messages[base + lane];
        uint8_t block[kAesBlockSize];
        if (cur[lane].remaining > kAesBlockSize) {
          GatherBlock(msg, cur[lane], block, kAesBlockSize);
        } else if (cur[lane].remaining == kAesBlockSize) {
          // Complete final block: XOR with K1.
          GatherBlock(msg, cur[lane], block, kAesBlockSize);
          for (size_t i = 0; i < kAesBlockSize; ++i) {
            block[i] ^= k1[i];
          }
          cur[lane].done = true;
          ++done;
        } else {
          // Padded final block (covers the empty message): 10*, XOR with K2.
          const size_t n = cur[lane].remaining;
          GatherBlock(msg, cur[lane], block, n);
          block[n] = 0x80;
          std::memset(block + n + 1, 0, kAesBlockSize - n - 1);
          for (size_t i = 0; i < kAesBlockSize; ++i) {
            block[i] ^= k2[i];
          }
          cur[lane].done = true;
          ++done;
        }
        uint8_t* slot = buf + active * kAesBlockSize;
        for (size_t i = 0; i < kAesBlockSize; ++i) {
          slot[i] = static_cast<uint8_t>(state[lane][i] ^ block[i]);
        }
        slot_lane[active] = lane;
        ++active;
      }
      aes.EncryptBlocks(buf, active);
      for (size_t s = 0; s < active; ++s) {
        std::memcpy(state[slot_lane[s]].data(), buf + s * kAesBlockSize, kAesBlockSize);
      }
    }
    // A lane's state after its final-block round is its tag.
    for (size_t lane = 0; lane < lanes; ++lane) {
      std::memcpy(tags[base + lane].data(), state[lane].data(), kCmacSize);
    }
  }
}

Mac CmacSign(ByteSpan key, ByteSpan data) {
  const CmacKey expanded(key);
  Cmac cmac(expanded);
  cmac.Update(data);
  return cmac.Finalize();
}

bool CmacVerify(ByteSpan key, ByteSpan data, ByteSpan tag) {
  const Mac computed = CmacSign(key, data);
  return ConstantTimeEqual(ByteSpan(computed.data(), computed.size()), tag);
}

}  // namespace shield::crypto
