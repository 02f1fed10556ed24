// Tests for the SGX simulation substrate: EPC paging, boundary costs,
// sealing, monotonic counters, attestation, HotCalls.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "src/crypto/cmac.h"
#include "src/crypto/ctr.h"
#include "src/crypto/hmac.h"
#include "src/sgx/attestation.h"
#include "src/sgx/boundary.h"
#include "src/sgx/counter.h"
#include "src/sgx/enclave.h"
#include "src/sgx/epc.h"
#include "src/sgx/hotcalls.h"
#include "src/sgx/seal.h"

namespace shield::sgx {
namespace {

EpcConfig FastEpc(size_t epc_bytes) {
  EpcConfig c;
  c.epc_bytes = epc_bytes;
  c.crossing_cycles = 0;
  c.kernel_fault_cycles = 0;
  c.resident_access_cycles = 0;
  c.page_crypto = false;
  return c;
}

EnclaveConfig SmallEnclave() {
  EnclaveConfig c;
  c.epc = FastEpc(64 * 4096);
  c.heap_reserve_bytes = 16u << 20;
  c.rng_seed = ToBytes("sgx-test");
  return c;
}

// ------------------------------------------------------------ EpcSimulator

TEST(EpcSimulatorTest, FaultsOnceThenResident) {
  std::vector<uint8_t> region(32 * 4096);
  EpcSimulator epc(FastEpc(16 * 4096), region.data(), region.size());
  epc.Touch(region.data(), 100, false);
  EXPECT_EQ(epc.stats().faults, 1u);
  EXPECT_TRUE(epc.IsResident(region.data(), 100));
  epc.Touch(region.data(), 100, false);
  EXPECT_EQ(epc.stats().faults, 1u);  // hit, no new fault
}

TEST(EpcSimulatorTest, RangeTouchFaultsEveryPage) {
  std::vector<uint8_t> region(32 * 4096);
  EpcSimulator epc(FastEpc(16 * 4096), region.data(), region.size());
  epc.Touch(region.data(), 8 * 4096, false);
  EXPECT_EQ(epc.stats().faults, 8u);
}

TEST(EpcSimulatorTest, EvictsWhenOverCapacity) {
  std::vector<uint8_t> region(32 * 4096);
  EpcSimulator epc(FastEpc(4 * 4096), region.data(), region.size());
  for (size_t p = 0; p < 8; ++p) {
    epc.Touch(region.data() + p * 4096, 1, true);
  }
  const EpcStats s = epc.stats();
  EXPECT_EQ(s.faults, 8u);
  EXPECT_EQ(s.evictions, 4u);
  EXPECT_EQ(s.resident_pages, 4u);
}

TEST(EpcSimulatorTest, WorkingSetWithinEpcStopsFaulting) {
  std::vector<uint8_t> region(32 * 4096);
  EpcSimulator epc(FastEpc(8 * 4096), region.data(), region.size());
  for (int round = 0; round < 10; ++round) {
    for (size_t p = 0; p < 6; ++p) {
      epc.Touch(region.data() + p * 4096, 1, false);
    }
  }
  EXPECT_EQ(epc.stats().faults, 6u);  // only cold misses
}

TEST(EpcSimulatorTest, ThrashingWorkingSetKeepsFaulting) {
  std::vector<uint8_t> region(64 * 4096);
  EpcSimulator epc(FastEpc(4 * 4096), region.data(), region.size());
  for (int round = 0; round < 3; ++round) {
    for (size_t p = 0; p < 64; ++p) {
      epc.Touch(region.data() + p * 4096, 1, false);
    }
  }
  EXPECT_EQ(epc.stats().faults, 3u * 64);  // sequential sweep defeats CLOCK
}

TEST(EpcSimulatorTest, FaultCostExceedsResidentCost) {
  // With real page crypto on, a faulting access must be far slower than a
  // resident access — the core premise of Figure 2.
  std::vector<uint8_t> region(512 * 4096);
  EpcConfig config;
  config.epc_bytes = 16 * 4096;
  config.resident_access_cycles = 0;
  EpcSimulator epc(config, region.data(), region.size());

  const auto t0 = ReadCycleCounter();
  for (size_t p = 0; p < 256; ++p) {
    epc.Touch(region.data() + p * 4096, 1, false);  // every touch faults
  }
  const uint64_t fault_cycles = ReadCycleCounter() - t0;

  const auto t1 = ReadCycleCounter();
  for (int i = 0; i < 256; ++i) {
    epc.Touch(region.data() + 255 * 4096, 1, false);  // resident hits
  }
  const uint64_t hit_cycles = ReadCycleCounter() - t1;
  EXPECT_GT(fault_cycles, hit_cycles * 20) << "paging must dominate";
}

TEST(EpcSimulatorTest, ConcurrentTouchesAreSafe) {
  std::vector<uint8_t> region(256 * 4096);
  EpcSimulator epc(FastEpc(32 * 4096), region.data(), region.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&epc, &region, t] {
      for (int i = 0; i < 2000; ++i) {
        const size_t p = (static_cast<size_t>(i) * 37 + static_cast<size_t>(t) * 61) % 256;
        epc.Touch(region.data() + p * 4096, 8, i % 2 == 0);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_LE(epc.stats().resident_pages, 32u);
}

// ----------------------------------------------------------------- Enclave

TEST(EnclaveTest, AllocateAndPointerChecks) {
  Enclave enclave(SmallEnclave());
  void* p = enclave.Allocate(1024);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(enclave.ContainsAddress(p));
  EXPECT_TRUE(enclave.ContainsRange(p, 1024));
  int stack_var = 0;
  EXPECT_FALSE(enclave.ContainsAddress(&stack_var));
  std::vector<uint8_t> heap_buf(64);
  EXPECT_FALSE(enclave.ContainsAddress(heap_buf.data()));
  enclave.Free(p);
}

TEST(EnclaveTest, MeasurementBindsConfig) {
  EnclaveConfig a = SmallEnclave();
  EnclaveConfig b = SmallEnclave();
  b.name = "other-enclave";
  Enclave ea(a), eb(b);
  EXPECT_NE(ea.measurement(), eb.measurement());
  Enclave ea2(a);
  EXPECT_EQ(ea.measurement(), ea2.measurement());
}

TEST(EnclaveTest, DeterministicRngWithSeed) {
  Enclave e1(SmallEnclave());
  Enclave e2(SmallEnclave());
  Bytes a(32), b(32);
  e1.ReadRand(a);
  e2.ReadRand(b);
  EXPECT_EQ(a, b);
}

TEST(BoundaryTest, CountsCrossings) {
  Boundary boundary(0);
  int x = boundary.Ecall([] { return 41; }) + 1;
  EXPECT_EQ(x, 42);
  boundary.Ocall([] {});
  EXPECT_EQ(boundary.ecall_count(), 1u);
  EXPECT_EQ(boundary.ocall_count(), 1u);
}

TEST(BoundaryTest, CrossingChargesCycles) {
  Boundary boundary(200'000);
  const uint64_t t0 = ReadCycleCounter();
  boundary.Ecall([] {});
  const uint64_t elapsed = ReadCycleCounter() - t0;
  EXPECT_GE(elapsed, 2 * 200'000u * 9 / 10);  // enter + exit, 10% slack
}

// ----------------------------------------------------------------- Sealing

TEST(SealingTest, RoundTrip) {
  Enclave enclave(SmallEnclave());
  SealingService sealer(AsBytes("fuse-key-0123456"), enclave.measurement());
  const Bytes pt = ToBytes("secret metadata");
  const Bytes aad = ToBytes("counter=7");
  const Bytes blob = sealer.Seal(pt, aad);
  Result<Bytes> back = sealer.Unseal(blob, aad);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), pt);
}

TEST(SealingTest, DetectsCiphertextTamper) {
  Enclave enclave(SmallEnclave());
  SealingService sealer(AsBytes("fuse-key-0123456"), enclave.measurement());
  Bytes blob = sealer.Seal(ToBytes("payload"), {});
  for (size_t i = 0; i < blob.size(); i += 7) {
    Bytes tampered = blob;
    tampered[i] ^= 0x40;
    EXPECT_FALSE(sealer.Unseal(tampered, {}).ok()) << "byte " << i;
  }
}

TEST(SealingTest, DetectsAadMismatch) {
  Enclave enclave(SmallEnclave());
  SealingService sealer(AsBytes("fuse-key-0123456"), enclave.measurement());
  const Bytes blob = sealer.Seal(ToBytes("payload"), ToBytes("counter=7"));
  EXPECT_FALSE(sealer.Unseal(blob, ToBytes("counter=8")).ok());
}

TEST(SealingTest, BoundToMeasurement) {
  EnclaveConfig other_cfg = SmallEnclave();
  other_cfg.name = "attacker-enclave";
  Enclave enclave(SmallEnclave());
  Enclave other(other_cfg);
  SealingService ours(AsBytes("fuse-key-0123456"), enclave.measurement());
  SealingService theirs(AsBytes("fuse-key-0123456"), other.measurement());
  const Bytes blob = ours.Seal(ToBytes("payload"), {});
  EXPECT_FALSE(theirs.Unseal(blob, {}).ok());
}

// The documented blob construction from the one-shot primitives: keys are
// HKDF(MRENCLAVE, fuse key, "sgx-seal-keys-v1", 32) = enc || mac, the IV is
// the CTR counter block, and the tag covers iv || aad_len || pt_len || aad ||
// ciphertext.
TEST(SealingTest, BlobsMatchTheOneShotConstruction) {
  Enclave enclave(SmallEnclave());
  const Bytes fuse = ToBytes("fuse-key-0123456");
  const Measurement& m = enclave.measurement();
  SealingService sealer(fuse, m);
  const Bytes okm =
      crypto::Hkdf(ByteSpan(m.data(), m.size()), fuse, AsBytes("sgx-seal-keys-v1"), 32);
  const ByteSpan enc_key(okm.data(), 16);
  const ByteSpan mac_key(okm.data() + 16, 16);
  auto mac_input = [](ByteSpan blob, ByteSpan aad, size_t pt_len) {
    Bytes in(blob.begin(), blob.begin() + 24);
    in.insert(in.end(), aad.begin(), aad.end());
    in.insert(in.end(), blob.begin() + 24, blob.begin() + 24 + pt_len);
    return in;
  };
  for (size_t size : {0, 1, 15, 16, 17, 48, 160, 4096}) {
    for (size_t aad_size : {0, 8, 33}) {
      Bytes pt(size), aad(aad_size);
      for (size_t i = 0; i < size; ++i) {
        pt[i] = static_cast<uint8_t>(i * 13 + aad_size);
      }
      for (size_t i = 0; i < aad_size; ++i) {
        aad[i] = static_cast<uint8_t>(0xA0 + i);
      }
      // A new blob verifies and decrypts under the one-shot primitives.
      const Bytes blob = sealer.Seal(pt, aad);
      ASSERT_EQ(blob.size(), SealingService::kOverhead + size);
      EXPECT_EQ(LoadLe32(blob.data() + 16), aad_size);
      EXPECT_EQ(LoadLe32(blob.data() + 20), size);
      EXPECT_TRUE(crypto::CmacVerify(mac_key, mac_input(blob, aad, size),
                                     ByteSpan(blob).subspan(24 + size)))
          << "size " << size << " aad " << aad_size;
      Bytes back(size);
      crypto::AesCtrTransform(enc_key, blob.data(), 32, ByteSpan(blob).subspan(24, size), back);
      EXPECT_EQ(back, pt);

      // A one-shot-built blob unseals.
      Bytes ref(SealingService::kOverhead + size);
      for (size_t i = 0; i < 16; ++i) {
        ref[i] = static_cast<uint8_t>(0xF0 - i - size);
      }
      StoreLe32(ref.data() + 16, static_cast<uint32_t>(aad_size));
      StoreLe32(ref.data() + 20, static_cast<uint32_t>(size));
      crypto::AesCtrTransform(enc_key, ref.data(), 32, pt, MutableByteSpan(ref.data() + 24, size));
      const crypto::Mac tag = crypto::CmacSign(mac_key, mac_input(ref, aad, size));
      std::copy(tag.begin(), tag.end(), ref.begin() + 24 + size);
      Result<Bytes> opened = sealer.Unseal(ref, aad);
      ASSERT_TRUE(opened.ok()) << "size " << size << " aad " << aad_size;
      EXPECT_EQ(*opened, pt);
    }
  }

  // Pinned bytes, so the reference cannot drift along with the code: a blob
  // of "secret metadata" under AAD "counter=7" with IV 00 01 .. 0f.
  const char* kBlob =
      "000102030405060708090a0b0c0d0e0f090000000f000000"
      "9216b36ebfd5bca90194c66b586139b03294996723ff9bebcb6089751b96e5";
  const Bytes pt = ToBytes("secret metadata");
  const Bytes aad = ToBytes("counter=7");
  Bytes ref(SealingService::kOverhead + pt.size());
  for (size_t i = 0; i < 16; ++i) {
    ref[i] = static_cast<uint8_t>(i);
  }
  StoreLe32(ref.data() + 16, static_cast<uint32_t>(aad.size()));
  StoreLe32(ref.data() + 20, static_cast<uint32_t>(pt.size()));
  crypto::AesCtrTransform(enc_key, ref.data(), 32, pt, MutableByteSpan(ref.data() + 24, pt.size()));
  const crypto::Mac tag = crypto::CmacSign(mac_key, mac_input(ref, aad, pt.size()));
  std::copy(tag.begin(), tag.end(), ref.begin() + 24 + pt.size());
  EXPECT_EQ(HexEncode(ref), kBlob);
  Result<Bytes> opened = sealer.Unseal(HexDecode(kBlob), aad);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(*opened, pt);
}

// Blob IVs come from per-thread DRBGs: concurrent sealers never repeat one.
TEST(SealingTest, ConcurrentSealersDrawDistinctIvs) {
  Enclave enclave(SmallEnclave());
  const SealingService sealer(AsBytes("fuse-key-0123456"), enclave.measurement());
  constexpr size_t kThreads = 4;
  constexpr size_t kBlobs = 2500;
  std::vector<std::vector<Bytes>> ivs(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kBlobs; ++i) {
        const Bytes blob = sealer.Seal(ToBytes("payload"), {});
        ivs[t].emplace_back(blob.begin(), blob.begin() + 16);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  std::vector<Bytes> all;
  for (const auto& per_thread : ivs) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()) - all.begin(), 10000);
}

// A forked child reseeds instead of replaying its parent's IV stream.
TEST(SealingTest, ForkedChildDrawsItsOwnIvs) {
  Enclave enclave(SmallEnclave());
  const SealingService sealer(AsBytes("fuse-key-0123456"), enclave.measurement());
  (void)sealer.Seal(ToBytes("warm"), {});  // this thread's DRBG is seeded
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const Bytes blob = sealer.Seal(ToBytes("payload"), {});
    const bool sent = ::write(fds[1], blob.data(), 16) == 16;
    ::_exit(sent ? 0 : 1);
  }
  const Bytes blob = sealer.Seal(ToBytes("payload"), {});
  uint8_t child_iv[16];
  ASSERT_EQ(::read(fds[0], child_iv, sizeof(child_iv)), 16);
  int status = 0;
  ::waitpid(child, &status, 0);
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_NE(Bytes(child_iv, child_iv + 16), Bytes(blob.begin(), blob.begin() + 16));
}

// --------------------------------------------------------------- Counters

TEST(CounterTest, MonotonicWithinProcess) {
  MonotonicCounterService::Options opts;
  opts.increment_cost_cycles = 0;
  MonotonicCounterService svc(opts);
  Result<uint32_t> id = svc.CreateCounter();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(svc.Read(*id).value(), 0u);
  EXPECT_EQ(svc.Increment(*id).value(), 1u);
  EXPECT_EQ(svc.Increment(*id).value(), 2u);
  EXPECT_EQ(svc.Read(*id).value(), 2u);
}

TEST(CounterTest, PersistsAcrossRestart) {
  const std::string path = ::testing::TempDir() + "/counters.bin";
  std::remove(path.c_str());
  MonotonicCounterService::Options opts;
  opts.backing_file = path;
  opts.increment_cost_cycles = 0;
  uint32_t id;
  {
    MonotonicCounterService svc(opts);
    id = svc.CreateCounter().value();
    svc.Increment(id);
    svc.Increment(id);
  }
  MonotonicCounterService svc2(opts);
  EXPECT_EQ(svc2.Read(id).value(), 2u);
  std::remove(path.c_str());
}

TEST(CounterTest, UnknownIdRejected) {
  MonotonicCounterService svc({});
  EXPECT_FALSE(svc.Read(99).ok());
  EXPECT_FALSE(svc.Increment(99).ok());
}

// ------------------------------------------------------------ Attestation

TEST(AttestationTest, QuoteVerifies) {
  Enclave enclave(SmallEnclave());
  AttestationAuthority authority(AsBytes("intel-root"));
  const Bytes report = ToBytes("dh-public-key-bytes");
  const Quote quote = authority.GenerateQuote(enclave, report);
  EXPECT_TRUE(authority.VerifyQuote(quote));
  EXPECT_EQ(quote.mrenclave, enclave.measurement());
}

TEST(AttestationTest, ForgedQuoteRejected) {
  Enclave enclave(SmallEnclave());
  AttestationAuthority authority(AsBytes("intel-root"));
  Quote quote = authority.GenerateQuote(enclave, ToBytes("pubkey"));
  Quote forged = quote;
  forged.report_data[0] ^= 1;  // swap in attacker's DH key
  EXPECT_FALSE(authority.VerifyQuote(forged));
  Quote wrong_measurement = quote;
  wrong_measurement.mrenclave[0] ^= 1;
  EXPECT_FALSE(authority.VerifyQuote(wrong_measurement));
}

TEST(AttestationTest, DifferentAuthorityRejects) {
  Enclave enclave(SmallEnclave());
  AttestationAuthority real(AsBytes("intel-root"));
  AttestationAuthority fake(AsBytes("mallory-root"));
  const Quote quote = fake.GenerateQuote(enclave, ToBytes("pubkey"));
  EXPECT_FALSE(real.VerifyQuote(quote));
}

TEST(AttestationTest, QuoteSerializationRoundTrip) {
  Enclave enclave(SmallEnclave());
  AttestationAuthority authority(AsBytes("intel-root"));
  const Quote quote = authority.GenerateQuote(enclave, ToBytes("pubkey"));
  const Bytes wire = quote.Serialize();
  Result<Quote> back = Quote::Deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(authority.VerifyQuote(back.value()));
  EXPECT_FALSE(Quote::Deserialize(ByteSpan(wire.data(), wire.size() - 1)).ok());
}

// --------------------------------------------------------------- HotCalls

TEST(HotCallsTest, SingleCallerSingleResponder) {
  HotCallChannel channel(8);
  std::thread responder([&channel] {
    while (!channel.stopped()) {
      channel.Poll([](uint16_t id, void* data) {
        ASSERT_EQ(id, 7);
        *static_cast<int*>(data) += 1;
      });
    }
    while (channel.Poll([](uint16_t, void* data) { *static_cast<int*>(data) += 1; })) {
    }
  });
  int value = 41;
  EXPECT_TRUE(channel.Call(7, &value));
  EXPECT_EQ(value, 42);
  channel.Stop();
  responder.join();
}

TEST(HotCallsTest, ManyCallersOneResponder) {
  HotCallChannel channel(16);
  std::atomic<uint64_t> sum{0};
  std::thread responder([&] {
    while (!channel.stopped()) {
      channel.Poll([&](uint16_t, void* data) {
        sum.fetch_add(*static_cast<uint64_t*>(data), std::memory_order_relaxed);
      });
    }
    while (channel.Poll([&](uint16_t, void* data) {
      sum.fetch_add(*static_cast<uint64_t*>(data), std::memory_order_relaxed);
    })) {
    }
  });
  constexpr int kThreads = 4;
  constexpr uint64_t kCallsPerThread = 5000;
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&channel] {
      uint64_t one = 1;
      for (uint64_t i = 0; i < kCallsPerThread; ++i) {
        ASSERT_TRUE(channel.Call(1, &one));
      }
    });
  }
  for (auto& th : callers) {
    th.join();
  }
  channel.Stop();
  responder.join();
  EXPECT_EQ(sum.load(), kThreads * kCallsPerThread);
}

TEST(HotCallsTest, CallAfterStopFails) {
  HotCallChannel channel(4);
  channel.Stop();
  int x = 0;
  EXPECT_FALSE(channel.Call(1, &x));
}

}  // namespace
}  // namespace shield::sgx
