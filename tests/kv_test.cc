// Entry codec tests (Figure 5 layout): sealing, searching, integrity.
#include <gtest/gtest.h>

#include "src/crypto/drbg.h"
#include "src/kv/entry.h"

namespace shield::kv {
namespace {

StoreKeys TestKeys() {
  return StoreKeys::Derive(AsBytes("kv-entry-test-master"));
}

Bytes Storage(size_t key_size, size_t val_size) {
  return Bytes(EntryHeader::BytesNeeded(key_size, val_size));
}

TEST(EntryTest, SealOpenRoundTrip) {
  const StoreCipher keys(TestKeys());
  Bytes storage = Storage(5, 11);
  auto* header = reinterpret_cast<EntryHeader*>(storage.data());
  crypto::Drbg drbg(AsBytes("iv"));
  uint8_t iv[16];
  drbg.Fill(MutableByteSpan(iv, 16));
  SealNewEntry(keys, "mykey", "lorem ipsum", 0, ByteSpan(iv, 16), header);
  EXPECT_TRUE(EntryKeyEquals(keys, *header, "mykey"));
  EXPECT_FALSE(EntryKeyEquals(keys, *header, "mykex"));
  EXPECT_FALSE(EntryKeyEquals(keys, *header, "mykey2"));
  Result<std::string> value = OpenEntryValue(keys, *header);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "lorem ipsum");
  EXPECT_EQ(OpenEntryKey(keys, *header), "mykey");
}

TEST(EntryTest, CiphertextDoesNotLeakPlaintext) {
  const StoreCipher keys(TestKeys());
  Bytes storage = Storage(6, 6);
  auto* header = reinterpret_cast<EntryHeader*>(storage.data());
  uint8_t iv[16] = {1};
  SealNewEntry(keys, "secret", "hidden", 0, ByteSpan(iv, 16), header);
  const std::string_view ct(reinterpret_cast<const char*>(header->Ciphertext()), 12);
  EXPECT_EQ(ct.find("secret"), std::string_view::npos);
  EXPECT_EQ(ct.find("hidden"), std::string_view::npos);
}

TEST(EntryTest, ResealAdvancesIvAndChangesCiphertext) {
  const StoreCipher keys(TestKeys());
  Bytes storage = Storage(3, 5);
  auto* header = reinterpret_cast<EntryHeader*>(storage.data());
  uint8_t iv[16] = {};
  SealNewEntry(keys, "abc", "12345", 0, ByteSpan(iv, 16), header);
  Bytes iv1(header->iv_ctr, header->iv_ctr + 16);
  Bytes ct1(header->Ciphertext(), header->Ciphertext() + 8);
  ResealEntry(keys, "abc", "12345", 0, header);
  Bytes iv2(header->iv_ctr, header->iv_ctr + 16);
  Bytes ct2(header->Ciphertext(), header->Ciphertext() + 8);
  EXPECT_NE(iv1, iv2);
  EXPECT_NE(ct1, ct2);
  EXPECT_EQ(OpenEntryValue(keys, *header).value(), "12345");
}

TEST(EntryTest, MacCoversEveryAuthenticatedField) {
  const StoreCipher keys(TestKeys());
  Bytes storage = Storage(4, 8);
  auto* header = reinterpret_cast<EntryHeader*>(storage.data());
  uint8_t iv[16] = {7};
  SealNewEntry(keys, "key1", "value123", 0, ByteSpan(iv, 16), header);
  auto expect_fail = [&](auto&& mutate) {
    Bytes copy = storage;
    auto* h = reinterpret_cast<EntryHeader*>(copy.data());
    mutate(h);
    EXPECT_FALSE(OpenEntryValue(keys, *h).ok());
  };
  expect_fail([](EntryHeader* h) { h->Ciphertext()[0] ^= 1; });
  expect_fail([](EntryHeader* h) { h->Ciphertext()[11] ^= 0x80; });
  expect_fail([](EntryHeader* h) { h->key_hint ^= 1; });
  expect_fail([](EntryHeader* h) { h->flags ^= 1; });
  expect_fail([](EntryHeader* h) { h->iv_ctr[15] ^= 1; });
  expect_fail([](EntryHeader* h) { h->mac[0] ^= 1; });
}

TEST(EntryTest, SizeTamperCannotSmuggleData) {
  const StoreCipher keys(TestKeys());
  Bytes storage = Storage(4, 8);
  auto* header = reinterpret_cast<EntryHeader*>(storage.data());
  uint8_t iv[16] = {9};
  SealNewEntry(keys, "key1", "value123", 0, ByteSpan(iv, 16), header);
  header->val_size = 4;  // attacker shrinks the value
  EXPECT_FALSE(OpenEntryValue(keys, *header).ok());
}

TEST(EntryTest, HintAndBucketHashAreKeyed) {
  const StoreKeys a = StoreKeys::Derive(AsBytes("master-a"));
  const StoreKeys b = StoreKeys::Derive(AsBytes("master-b"));
  // Different stores hash the same key differently (no cross-store
  // correlation of chain positions, §4.2).
  int differing_hints = 0;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (KeyHint(a, key) != KeyHint(b, key)) {
      ++differing_hints;
    }
    EXPECT_NE(BucketHash(a, key), BucketHash(b, key)) << key;
  }
  EXPECT_GT(differing_hints, 32);
}

TEST(EntryTest, DeriveIsDeterministicAndSeparated) {
  const StoreKeys k1 = StoreKeys::Derive(AsBytes("same"));
  const StoreKeys k2 = StoreKeys::Derive(AsBytes("same"));
  EXPECT_EQ(k1.enc_key, k2.enc_key);
  EXPECT_NE(ByteSpan(k1.enc_key.data(), 16).data()[0], 0xFF);  // smoke
  // The four keys are pairwise distinct.
  EXPECT_NE(k1.enc_key, k1.mac_key);
  EXPECT_NE(ByteSpan(k1.index_key.data(), 16).front(), ByteSpan(k1.hint_key.data(), 16).front());
}

TEST(EntryTest, LargeValuesRoundTrip) {
  const StoreCipher keys(TestKeys());
  const std::string big(100'000, 'z');
  Bytes storage = Storage(3, big.size());
  auto* header = reinterpret_cast<EntryHeader*>(storage.data());
  uint8_t iv[16] = {3};
  SealNewEntry(keys, "big", big, 0, ByteSpan(iv, 16), header);
  EXPECT_EQ(OpenEntryValue(keys, *header).value(), big);
}

}  // namespace
}  // namespace shield::kv
