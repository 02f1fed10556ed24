// Online self-healing, end to end over the network: a partition is tampered
// while clients drive live traffic; the server (never restarted) quarantines
// it, keeps serving every other partition, returns the typed
// kPartitionRecovering for the quarantined one, heals it on its maintenance
// thread — from the arena's cold copy + the shard's WAL suffix, or on a
// heap-only store from the whole shard log — and loses not one acknowledged
// write. Every case runs on both store kinds: SelfHealNetTest on the arena
// store the daemon's --heal-dir runs, SelfHealNetHeapOnlyTest on a heap-only
// store.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/faultinject/tamper.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"

namespace shield {
namespace {

using faultinject::TamperAgent;
using faultinject::TamperMode;
using net::Client;
using net::ClientOptions;
using net::Server;
using net::ServerOptions;
using shieldstore::OpLogOptions;
using shieldstore::PartitionedStore;
using shieldstore::SelfHealer;
using shieldstore::SelfHealOptions;
using shieldstore::WriteAheadStore;

sgx::EnclaveConfig FastEnclave() {
  sgx::EnclaveConfig c;
  c.name = "selfheal-test";
  c.epc.epc_bytes = 16u << 20;
  c.epc.crossing_cycles = 0;
  c.epc.kernel_fault_cycles = 0;
  c.epc.resident_access_cycles = 0;
  c.epc.page_crypto = false;
  c.heap_reserve_bytes = 128u << 20;
  c.rng_seed = ToBytes("selfheal-test");
  return c;
}

// `heap_dir` empty: a heap-only store; else the daemon's arena store.
shieldstore::Options StoreOptions(obs::Registry* metrics, const std::string& heap_dir) {
  shieldstore::Options o;
  o.num_buckets = 1024;
  o.heap_chunk_bytes = 1u << 20;
  o.scrub_budget_buckets = 128;
  o.metrics = metrics;
  o.persist_dir = heap_dir;
  o.persist_capacity_bytes = 4u << 20;
  return o;
}

std::string FreshDir(const void* owner) {
  const std::string dir = ::testing::TempDir() + "/selfheal_" + std::to_string(::getpid()) +
                          "_" + std::to_string(reinterpret_cast<uintptr_t>(owner));
  std::filesystem::create_directories(dir);
  return dir;
}

// Full production stack: partitioned store + write-ahead log + self-healer
// driven by the network server's maintenance thread. `arena` picks the
// store kind: true = arena (what the daemon's --heal-dir runs), false =
// heap-only. The scenarios are members so both kinds run the same body.
class SelfHealStack : public ::testing::Test {
 protected:
  explicit SelfHealStack(bool arena)
      : dir_(FreshDir(this)),
        enclave_(FastEnclave()),
        authority_(AsBytes("ias-root")),
        store_(enclave_, StoreOptions(&registry_, arena ? dir_ + "/heap" : ""), 4),
        sealer_(AsBytes("fuse"), enclave_.measurement()) {
    sgx::MonotonicCounterService::Options counter_opts;
    counter_opts.backing_file = dir_ + "/counters.bin";
    counter_opts.increment_cost_cycles = 0;
    counters_ = std::make_unique<sgx::MonotonicCounterService>(counter_opts);

    OpLogOptions log_opts;
    log_opts.path = dir_ + "/wal.log";
    log_opts.metrics = &registry_;
    wal_ = std::make_unique<WriteAheadStore>(store_, sealer_, *counters_, log_opts);

    SelfHealOptions heal_opts;
    heal_opts.directory = dir_ + "/cold";
    healer_ = std::make_unique<SelfHealer>(*wal_, sealer_, *counters_, heal_opts);
  }

  ~SelfHealStack() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
    std::filesystem::remove_all(dir_);
  }

  void StartStack() {
    ASSERT_TRUE(wal_->Open().ok());
    ASSERT_TRUE(healer_->Start().ok());
    ServerOptions options;
    options.metrics = &registry_;
    options.maintenance = [this] { healer_->Tick(); };
    options.maintenance_interval_ms = 2;
    server_ = std::make_unique<Server>(enclave_, *wal_, authority_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  // Waits until no partition is quarantined (recovery completed).
  void WaitHealed(std::chrono::seconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (store_.QuarantinedCount() > 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "recovery did not complete: " << healer_->last_error().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  void RunTamperedPartitionHealsUnderLiveTrafficWithNoAckedLoss();
  void RunBackgroundScrubDetectsAndHealsSilentTamper();
  void RunQuarantineGaugesFollowScrubAndRecovery();

  obs::Registry registry_;  // the whole stack's, so counts are this test's
  std::string dir_;
  sgx::Enclave enclave_;
  sgx::AttestationAuthority authority_;
  PartitionedStore store_;
  sgx::SealingService sealer_;
  std::unique_ptr<sgx::MonotonicCounterService> counters_;
  std::unique_ptr<WriteAheadStore> wal_;
  std::unique_ptr<SelfHealer> healer_;
  std::unique_ptr<Server> server_;
};

void SelfHealStack::RunTamperedPartitionHealsUnderLiveTrafficWithNoAckedLoss() {
  StartStack();

  // Seed through the network so every write is acknowledged and logged.
  Client seeder(authority_, enclave_.measurement());
  ASSERT_TRUE(seeder.Connect(server_->port()).ok());
  std::map<std::string, std::string> seeded;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "seed-" + std::to_string(i);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(seeder.Set(key, value).ok());
    seeded[key] = value;
  }

  // Live load: three client threads keep writing and reading their own keys
  // (which hash across all partitions) with retry-on-recovering enabled.
  // Operations on healthy partitions must never fail; operations on the
  // tampered one may surface kIntegrityFailure (the detecting op) and are
  // otherwise absorbed by the typed-retry loop.
  constexpr int kLoadThreads = 3;
  constexpr size_t kTamperTarget = 0;
  std::atomic<bool> stop_load{false};
  std::atomic<int> healthy_partition_failures{0};
  std::atomic<uint64_t> ops_done{0};
  std::vector<std::map<std::string, std::string>> acked(kLoadThreads);
  std::vector<std::thread> load;
  for (int t = 0; t < kLoadThreads; ++t) {
    load.emplace_back([&, t] {
      ClientOptions copts;
      copts.recovering_retries = 200;
      copts.recovering_backoff_ms = 5;
      Client client(authority_, enclave_.measurement(), true, copts);
      if (!client.Connect(server_->port()).ok()) {
        ++healthy_partition_failures;
        return;
      }
      int round = 0;
      while (!stop_load.load()) {
        const std::string key =
            "live-t" + std::to_string(t) + "-" + std::to_string(round % 20);
        const std::string value = "r" + std::to_string(round);
        const bool on_target = store_.PartitionOf(key) == kTamperTarget;
        if (client.Set(key, value).ok()) {
          acked[t][key] = value;
        } else if (!on_target) {
          ++healthy_partition_failures;
        }
        const std::string probe = "seed-" + std::to_string(round % 200);
        Result<std::string> got = client.Get(probe);
        if (store_.PartitionOf(probe) != kTamperTarget &&
            (!got.ok() || got.value() != seeded[probe])) {
          ++healthy_partition_failures;
        }
        ++ops_done;
        ++round;
      }
    });
  }

  // Let the load warm up, then strike partition 0 under the facade lock
  // (the adversary hitting between two enclave operations).
  while (ops_done.load() < 50) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t served_before = server_->requests_served();
  const uint64_t recoveries_before = healer_->recoveries();
  TamperAgent agent(99);
  ASSERT_TRUE(agent.TamperPartition(store_, kTamperTarget, TamperMode::kMacForge).ok());
  const std::string victim = agent.last_target_key();
  ASSERT_EQ(store_.PartitionOf(victim), kTamperTarget);

  // A no-retry probe watches the victim key: it must see only typed codes
  // (kIntegrityFailure from the detecting op, kPartitionRecovering while
  // healing) and then a healthy value again — never a wrong one. (No ASSERTs
  // inside this window: load threads are still joinable.)
  ClientOptions no_retry;
  Client probe(authority_, enclave_.measurement(), true, no_retry);
  const bool probe_connected = probe.Connect(server_->port()).ok();
  const bool victim_seeded = seeded.count(victim) > 0;
  bool saw_typed_error = false;
  bool healed_readback = false;
  std::string probe_violation;
  const auto probe_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (probe_connected && std::chrono::steady_clock::now() < probe_deadline) {
    Result<std::string> got = probe.Get(victim);
    if (got.ok()) {
      // Seeded keys are immutable in this test, so a successful read must be
      // exact; live keys keep changing under their owner thread.
      if (victim_seeded && got.value() != seeded[victim]) {
        probe_violation = "wrong value '" + got.value() + "' for " + victim;
        break;
      }
      // Done once a recovery ran (a load thread may have triggered detection
      // and the maintenance thread healed between our probes).
      if (saw_typed_error || healer_->recoveries() > recoveries_before) {
        healed_readback = true;
        break;
      }
    } else {
      const Code code = got.status().code();
      if (code != Code::kIntegrityFailure && code != Code::kPartitionRecovering) {
        probe_violation = "unexpected error: " + got.status().ToString();
        break;
      }
      saw_typed_error = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Wait (without asserting) for the maintenance thread to finish healing.
  // The quarantine flag clears inside RecoverOne() before Tick() bumps the
  // recovery counter, so wait for both — otherwise a preempted maintenance
  // thread makes recoveries() read 0 on an already-healed store.
  bool healed = false;
  const auto heal_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < heal_deadline) {
    if (store_.QuarantinedCount() == 0 &&
        healer_->recoveries() > recoveries_before) {
      healed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  stop_load.store(true);
  for (auto& t : load) {
    t.join();
  }

  ASSERT_TRUE(probe_connected);
  EXPECT_TRUE(probe_violation.empty()) << probe_violation;
  ASSERT_TRUE(healed) << "recovery did not complete: "
                      << healer_->last_error().ToString();
  EXPECT_TRUE(saw_typed_error || healer_->recoveries() > recoveries_before)
      << "tamper was never surfaced";
  EXPECT_TRUE(healed_readback) << "victim key never came back healthy";

  // (a) other partitions never returned an error;
  EXPECT_EQ(healthy_partition_failures.load(), 0);
  // (b) the healer actually ran a recovery on the live server;
  EXPECT_GE(healer_->recoveries(), 1u);
  // (c) the server was never restarted — same object, still serving, with
  //     strictly more requests than before the attack;
  EXPECT_GT(server_->requests_served(), served_before);
  // (d) zero acknowledged-write loss: every seeded and every live-acked
  //     write reads back exactly, including keys in the healed partition.
  Client verify(authority_, enclave_.measurement());
  ASSERT_TRUE(verify.Connect(server_->port()).ok());
  for (const auto& [key, value] : seeded) {
    Result<std::string> got = verify.Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), value) << key;
  }
  for (const auto& per_thread : acked) {
    for (const auto& [key, value] : per_thread) {
      Result<std::string> got = verify.Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_EQ(got.value(), value) << key;
    }
  }
  // The full store passes a fresh audit.
  EXPECT_TRUE(store_.ScrubAll().ok());
}

void SelfHealStack::RunBackgroundScrubDetectsAndHealsSilentTamper() {
  StartStack();

  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  std::map<std::string, std::string> seeded;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "quiet-" + std::to_string(i);
    ASSERT_TRUE(client.Set(key, "v" + std::to_string(i)).ok());
    seeded[key] = "v" + std::to_string(i);
  }

  // Corrupt a partition and then issue NO client operation at all: only the
  // paced background scrub can notice. It must quarantine and heal without
  // any foreground traffic.
  TamperAgent agent(41);
  ASSERT_TRUE(agent.TamperPartition(store_, 1, TamperMode::kBitFlipCiphertext).ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (healer_->recoveries() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "scrub never detected the tamper: " << healer_->last_error().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  WaitHealed(std::chrono::seconds(30));
  EXPECT_GE(healer_->violations_detected() + healer_->recoveries(), 1u);

  // Every acknowledged write survived the silent attack.
  for (const auto& [key, value] : seeded) {
    Result<std::string> got = client.Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), value) << key;
  }
  EXPECT_TRUE(store_.ScrubAll().ok());
}

// Quarantine state lives in the registry: the transition into quarantine
// raises store.quarantined and the partition's own gauge, and re-admission
// by the healer lowers both.
void SelfHealStack::RunQuarantineGaugesFollowScrubAndRecovery() {
  ASSERT_TRUE(wal_->Open().ok());
  ASSERT_TRUE(healer_->Start().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(wal_->Set("gauge-" + std::to_string(i), "v").ok());
  }
  constexpr size_t kVictim = 2;
  const std::string victim_gauge = "store.partition." + std::to_string(kVictim) + ".quarantined";
  EXPECT_EQ(registry_.Snapshot().GaugeValue("store.quarantined", -1), 0);

  TamperAgent agent(7);
  ASSERT_TRUE(agent.TamperPartition(store_, kVictim, TamperMode::kMacForge).ok());
  EXPECT_FALSE(store_.ScrubAll().ok());
  ASSERT_TRUE(store_.IsQuarantined(kVictim));
  obs::MetricsSnapshot snap = registry_.Snapshot();
  EXPECT_EQ(snap.GaugeValue("store.quarantined", -1), 1);
  EXPECT_EQ(snap.GaugeValue(victim_gauge, -1), 1);

  healer_->Tick();  // recovery comes first in a tick
  ASSERT_FALSE(store_.IsQuarantined(kVictim)) << healer_->last_error().ToString();
  snap = registry_.Snapshot();
  EXPECT_EQ(snap.GaugeValue("store.quarantined", -1), 0);
  EXPECT_EQ(snap.GaugeValue(victim_gauge, 0), 0);
  EXPECT_EQ(snap.CounterValue("heal.recoveries"), 1u);
}

class SelfHealNetTest : public SelfHealStack {
 protected:
  SelfHealNetTest() : SelfHealStack(/*arena=*/true) {}
};

class SelfHealNetHeapOnlyTest : public SelfHealStack {
 protected:
  SelfHealNetHeapOnlyTest() : SelfHealStack(/*arena=*/false) {}
};

TEST_F(SelfHealNetTest, TamperedPartitionHealsUnderLiveTrafficWithNoAckedLoss) {
  RunTamperedPartitionHealsUnderLiveTrafficWithNoAckedLoss();
}
TEST_F(SelfHealNetTest, BackgroundScrubDetectsAndHealsSilentTamper) {
  RunBackgroundScrubDetectsAndHealsSilentTamper();
}
TEST_F(SelfHealNetTest, QuarantineGaugesFollowScrubAndRecovery) {
  RunQuarantineGaugesFollowScrubAndRecovery();
}

TEST_F(SelfHealNetHeapOnlyTest, TamperedPartitionHealsUnderLiveTrafficWithNoAckedLoss) {
  RunTamperedPartitionHealsUnderLiveTrafficWithNoAckedLoss();
}
TEST_F(SelfHealNetHeapOnlyTest, BackgroundScrubDetectsAndHealsSilentTamper) {
  RunBackgroundScrubDetectsAndHealsSilentTamper();
}
TEST_F(SelfHealNetHeapOnlyTest, QuarantineGaugesFollowScrubAndRecovery) {
  RunQuarantineGaugesFollowScrubAndRecovery();
}

}  // namespace
}  // namespace shield
