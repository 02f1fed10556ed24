// Multi-node layer, all in-process: consistent-hash ring properties, live
// WAL shipping into a warm standby (bootstrap snapshot + tail, watermarks,
// promote semantics), router failover to the standby when the primary's
// server dies, probe-driven automatic recovery, client reconnect with a
// fresh attestation handshake, and the fault-injection primitives.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/faultinject/nodekiller.h"
#include "src/net/client.h"
#include "src/net/replication.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/router/hashring.h"
#include "src/router/replica.h"
#include "src/router/router.h"
#include "src/router/shipper.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"

namespace shield {
namespace {

using router::ConsistentHashRing;
using router::ReplicaNode;
using router::Router;
using router::RouterNode;
using router::RouterOptions;
using router::ShipperOptions;
using router::WalShipper;

sgx::EnclaveConfig FastEnclave() {
  sgx::EnclaveConfig c;
  c.name = "router-test-enclave";
  c.epc.epc_bytes = 16u << 20;
  c.epc.crossing_cycles = 0;
  c.epc.kernel_fault_cycles = 0;
  c.epc.resident_access_cycles = 0;
  c.epc.page_crypto = false;
  c.heap_reserve_bytes = 128u << 20;
  return c;
}

shieldstore::Options SmallOptions() {
  shieldstore::Options o;
  o.num_buckets = 512;
  o.heap_chunk_bytes = 1 << 20;
  return o;
}

// ------------------------------------------------------------- hash ring

TEST(HashRingTest, DeterministicAcrossInstances) {
  ConsistentHashRing a;
  ConsistentHashRing b;
  for (const char* node : {"alpha", "beta", "gamma"}) {
    a.AddNode(node);
    b.AddNode(node);
  }
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(a.NodeFor(key), b.NodeFor(key)) << key;
  }
}

TEST(HashRingTest, BalancesKeysAcrossNodes) {
  ConsistentHashRing ring;
  ring.AddNode("n0");
  ring.AddNode("n1");
  ring.AddNode("n2");
  std::map<std::string, int> owned;
  constexpr int kKeys = 12000;
  for (int i = 0; i < kKeys; ++i) {
    ++owned[ring.NodeFor("user:" + std::to_string(i))];
  }
  ASSERT_EQ(owned.size(), 3u);
  for (const auto& [node, count] : owned) {
    // 64 vnodes/node keeps the spread well inside 2x of fair share.
    EXPECT_GT(count, kKeys / 6) << node << " starved";
    EXPECT_LT(count, kKeys * 2 / 3) << node << " overloaded";
  }
}

TEST(HashRingTest, RemovalOnlyMovesKeysOwnedByTheRemovedNode) {
  ConsistentHashRing ring;
  ring.AddNode("n0");
  ring.AddNode("n1");
  ring.AddNode("n2");
  std::map<std::string, std::string> before;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    before[key] = ring.NodeFor(key);
  }
  ring.RemoveNode("n1");
  ASSERT_FALSE(ring.HasNode("n1"));
  for (const auto& [key, owner] : before) {
    if (owner != "n1") {
      // The consistent-hashing contract: survivors keep every key they had.
      EXPECT_EQ(ring.NodeFor(key), owner) << key;
    } else {
      EXPECT_NE(ring.NodeFor(key), "n1") << key;
    }
  }
  EXPECT_TRUE(ring.NodeFor("anything") == "n0" || ring.NodeFor("anything") == "n2");
}

TEST(HashRingTest, EmptyRingReturnsEmptyName) {
  ConsistentHashRing ring;
  EXPECT_TRUE(ring.NodeFor("key").empty());
  ring.AddNode("solo");
  EXPECT_EQ(ring.NodeFor("key"), "solo");
  ring.RemoveNode("solo");
  EXPECT_TRUE(ring.NodeFor("key").empty());
}

// ----------------------------------------------- primary/follower harness

// A full primary (enclave + store + sharded WAL) plus a follower (enclave +
// store + ReplicaNode) served over loopback — the in-process twin of two
// `shieldstore_server` processes wired with --replicate-to / --replica-of.
class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest()
      : primary_enclave_(FastEnclave()),
        follower_enclave_(FastEnclave()),
        authority_(AsBytes("router-ias")),
        primary_store_(primary_enclave_, SmallOptions(), 2),
        follower_store_(follower_enclave_, SmallOptions(), 2) {
    dir_ = ::testing::TempDir() + "/router_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    sgx::MonotonicCounterService::Options counter_opts;
    counter_opts.backing_file = dir_ + "/counters.bin";
    counter_opts.increment_cost_cycles = 0;
    counters_ = std::make_unique<sgx::MonotonicCounterService>(counter_opts);
    sealer_ = std::make_unique<sgx::SealingService>(AsBytes("fuse"),
                                                    primary_enclave_.measurement());
    shieldstore::OpLogOptions log_opts;
    log_opts.path = dir_ + "/wal.log";
    log_opts.num_shards = 2;
    wal_ = std::make_unique<shieldstore::WriteAheadStore>(primary_store_, *sealer_,
                                                          *counters_, log_opts);
    EXPECT_TRUE(wal_->Open().ok());
  }

  ~ReplicationTest() override {
    if (wal_ != nullptr) {
      wal_->SetReplicationSink(nullptr);
    }
    StopServers();
    std::filesystem::remove_all(dir_);
  }

  void StartFollowerServer() {
    replica_ = std::make_unique<ReplicaNode>(follower_store_);
    net::ServerOptions options;
    options.replicate_handler = [this](const net::Request& request) {
      return replica_->HandleReplicate(request);
    };
    follower_server_ =
        std::make_unique<net::Server>(follower_enclave_, follower_store_, authority_, options);
    ASSERT_TRUE(follower_server_->Start().ok());
  }

  void StartPrimaryServer() {
    primary_server_ = std::make_unique<net::Server>(primary_enclave_, *wal_, authority_,
                                                    net::ServerOptions{});
    ASSERT_TRUE(primary_server_->Start().ok());
  }

  void StopServers() {
    if (primary_server_ != nullptr) {
      primary_server_->Stop();
    }
    if (follower_server_ != nullptr) {
      follower_server_->Stop();
    }
  }

  std::unique_ptr<WalShipper> MakeAttachedShipper() {
    ShipperOptions options;
    options.follower_port = follower_server_->port();
    options.epoch = 71;
    options.attach_attempts = 3;
    options.attach_backoff_ms = 20;
    options.reconnect_interval_ms = 20;
    auto shipper = std::make_unique<WalShipper>(*wal_, authority_,
                                                follower_enclave_.measurement(), options);
    // Sink installed BEFORE Attach: commits during the dump backlog, not drop.
    wal_->SetReplicationSink(shipper.get());
    EXPECT_TRUE(shipper->Attach().ok());
    return shipper;
  }

  sgx::Enclave primary_enclave_;
  sgx::Enclave follower_enclave_;
  sgx::AttestationAuthority authority_;
  shieldstore::PartitionedStore primary_store_;
  shieldstore::PartitionedStore follower_store_;
  std::string dir_;
  std::unique_ptr<sgx::MonotonicCounterService> counters_;
  std::unique_ptr<sgx::SealingService> sealer_;
  std::unique_ptr<shieldstore::WriteAheadStore> wal_;
  std::unique_ptr<ReplicaNode> replica_;
  std::unique_ptr<net::Server> follower_server_;
  std::unique_ptr<net::Server> primary_server_;
};

// ------------------------------------------------------------ replication

TEST_F(ReplicationTest, BootstrapShipsExistingStateThenTailsLiveWrites) {
  // State that predates the follower: only the bootstrap dump can carry it.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(wal_->Set("boot-" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  StartFollowerServer();
  std::unique_ptr<WalShipper> shipper = MakeAttachedShipper();
  EXPECT_TRUE(shipper->connected());
  EXPECT_EQ(replica_->epoch(), 71u);

  // Ship-before-ack: once Set returns, the entry has already been offered to
  // the follower — no polling, no sleep.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(wal_->Set("live-" + std::to_string(i), "lv" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(wal_->Delete("boot-3").ok());
  for (int i = 0; i < 20; ++i) {
    if (i == 3) {
      EXPECT_EQ(follower_store_.Get("boot-3").status().code(), Code::kNotFound);
      continue;
    }
    EXPECT_EQ(follower_store_.Get("boot-" + std::to_string(i)).value(),
              "v" + std::to_string(i));
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(follower_store_.Get("live-" + std::to_string(i)).value(),
              "lv" + std::to_string(i));
  }
  EXPECT_GE(replica_->applied_entries(), 51u);  // 50 sets + 1 delete tailed
  // Watermarks advanced in ship-seq space, split across the two WAL shards.
  uint64_t total = 0;
  for (const uint64_t w : replica_->watermarks()) {
    total += w;
  }
  EXPECT_GE(total, 51u);
}

TEST_F(ReplicationTest, FollowerReconnectResumesWithoutLoss) {
  StartFollowerServer();
  std::unique_ptr<WalShipper> shipper = MakeAttachedShipper();
  ASSERT_TRUE(wal_->Set("before", "1").ok());
  EXPECT_EQ(follower_store_.Get("before").value(), "1");

  // Drop the follower mid-stream: acks must keep flowing (buffer-and-return)
  // and nothing may be lost once it comes back.
  follower_server_->Stop();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(wal_->Set("offline-" + std::to_string(i), "x").ok());
  }
  EXPECT_FALSE(shipper->connected());
  EXPECT_GT(shipper->backlog_entries(), 0u);

  // Restart the follower's server on a fresh port and re-point the shipper
  // by re-running Attach (the tools restart the whole process instead).
  StartFollowerServer();
  ShipperOptions options;
  options.follower_port = follower_server_->port();
  options.epoch = 72;  // a fresh follower process would also see a new epoch
  auto shipper2 = std::make_unique<WalShipper>(*wal_, authority_,
                                               follower_enclave_.measurement(), options);
  wal_->SetReplicationSink(shipper2.get());
  ASSERT_TRUE(shipper2->Attach().ok());
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(follower_store_.Get("offline-" + std::to_string(i)).value(), "x");
  }
  EXPECT_EQ(follower_store_.Get("before").value(), "1");
}

TEST_F(ReplicationTest, PromotedFollowerRefusesTheStreamAndShipperDetaches) {
  StartFollowerServer();
  std::unique_ptr<WalShipper> shipper = MakeAttachedShipper();
  ASSERT_TRUE(wal_->Set("pre-promote", "1").ok());
  ASSERT_EQ(follower_store_.Get("pre-promote").value(), "1");

  replica_->Promote();
  EXPECT_EQ(replica_->role(), net::ReplicaRole::kPrimary);
  // The stale primary keeps acking its own writes (its WAL is intact) but
  // the promoted node refuses them and the shipper detaches permanently.
  ASSERT_TRUE(wal_->Set("post-promote", "2").ok());
  EXPECT_TRUE(shipper->detached());
  EXPECT_EQ(follower_store_.Get("post-promote").status().code(), Code::kNotFound);
  const uint64_t applied = replica_->applied_entries();
  ASSERT_TRUE(wal_->Set("post-promote-2", "3").ok());
  EXPECT_EQ(replica_->applied_entries(), applied);  // nothing new lands
}

// The standby's half: replication frames straight into HandleReplicate.
net::Response Deliver(ReplicaNode& node, const net::ReplicateFrame& frame) {
  net::Request request;
  request.value.assign(AsString(net::EncodeReplicateFrame(frame)));
  return node.HandleReplicate(request);
}

// A bootstrapped one-shard stream at epoch 5, ready for kEntries frames.
void Bootstrap(ReplicaNode& node) {
  net::ReplicateFrame frame;
  frame.type = net::ReplicateType::kHello;
  frame.epoch = 5;
  frame.num_shards = 1;
  ASSERT_EQ(Deliver(node, frame).status, Code::kOk);
  frame.type = net::ReplicateType::kSnapshotDone;
  ASSERT_EQ(Deliver(node, frame).status, Code::kOk);
}

net::ReplicateFrame EntriesFrame(uint64_t first_seq, size_t n) {
  net::ReplicateFrame frame;
  frame.type = net::ReplicateType::kEntries;
  frame.epoch = 5;
  frame.first_seq = first_seq;
  for (size_t i = 0; i < n; ++i) {
    frame.entries.push_back({false, "e-" + std::to_string(first_seq + i), "v"});
  }
  return frame;
}

// On a WriteAheadStore standby a shipped frame is one batch: its 64 entries
// share a few counter bumps instead of paying one each.
TEST_F(ReplicationTest, StandbyAppliesAShippedFrameAsOneBatch) {
  obs::Registry registry;
  shieldstore::OpLogOptions log_opts;
  log_opts.path = dir_ + "/standby.log";
  log_opts.metrics = &registry;
  shieldstore::WriteAheadStore standby(follower_store_, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(standby.Open().ok());
  ReplicaNode node(standby, &registry);
  Bootstrap(node);

  net::ReplicateFrame frame = EntriesFrame(1, 60);
  for (int i = 0; i < 4; ++i) {
    frame.entries.push_back({true, "never-set-" + std::to_string(i), ""});  // kNotFound is OK
  }
  const uint64_t epochs = registry.GetCounter("wal.epochs").Value();
  ASSERT_EQ(Deliver(node, frame).status, Code::kOk);
  EXPECT_LE(registry.GetCounter("wal.epochs").Value() - epochs, 4u);
  EXPECT_EQ(node.watermarks(), std::vector<uint64_t>{64});
  EXPECT_EQ(node.applied_entries(), 64u);
  for (uint64_t seq = 1; seq <= 60; ++seq) {
    EXPECT_EQ(standby.Get("e-" + std::to_string(seq)).value(), "v");
  }
}

// Fails every write of `poison` while `poisoned` is set.
class PoisonableStore : public kv::BatchFirstStore {
 public:
  std::vector<kv::BatchOpResult> ExecuteBatch(const std::vector<kv::BatchOp>& ops) override {
    std::vector<kv::BatchOpResult> results(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      if (poisoned && ops[i].key == poison) {
        results[i].status = Status(Code::kIoError, "poisoned");
      } else if (ops[i].type == kv::BatchOpType::kSet) {
        data[ops[i].key] = ops[i].value;
      }
    }
    return results;
  }
  size_t Size() const override { return data.size(); }
  std::string Name() const override { return "poisonable"; }

  std::map<std::string, std::string> data;
  std::string poison;
  bool poisoned = true;
};

// A frame that fails part-way leaves the watermark just before the first
// failed entry; the retransmit resumes there and completes the stream.
TEST(ReplicaNodeTest, FailedEntryStopsTheWatermarkJustBeforeIt) {
  PoisonableStore store;
  store.poison = "e-5";
  obs::Registry registry;
  ReplicaNode node(store, &registry);
  Bootstrap(node);

  const net::ReplicateFrame frame = EntriesFrame(1, 8);
  EXPECT_EQ(Deliver(node, frame).status, Code::kIoError);
  EXPECT_EQ(node.watermarks(), std::vector<uint64_t>{4});
  EXPECT_EQ(node.applied_entries(), 4u);

  store.poisoned = false;
  EXPECT_EQ(Deliver(node, frame).status, Code::kOk);
  EXPECT_EQ(node.watermarks(), std::vector<uint64_t>{8});
  EXPECT_EQ(node.applied_entries(), 8u);
  EXPECT_EQ(store.data.size(), 8u);
}

// --------------------------------------------------------------- failover

TEST_F(ReplicationTest, RouterPromotesFollowerWhenPrimaryDies) {
  StartFollowerServer();
  StartPrimaryServer();
  std::unique_ptr<WalShipper> shipper = MakeAttachedShipper();

  RouterOptions options;
  options.probe_interval_ms = 0;  // recovery on demand, no probe thread
  options.op_retries = 3;
  options.retry_backoff_ms = 10;
  options.client.connect_attempts = 1;
  options.client.recv_timeout_ms = 2000;
  std::vector<RouterNode> nodes;
  nodes.push_back({"n0", primary_server_->port(), follower_server_->port()});
  Router rt(authority_, primary_enclave_.measurement(), std::move(nodes), options);
  ASSERT_TRUE(rt.Start().ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rt.Set("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  EXPECT_EQ(rt.ActivePort("n0"), primary_server_->port());

  // The primary's server dies with sessions hot. The next op runs the
  // recovery sequence: reconnect fails -> promote the standby over the wire
  // -> redirect. Every previously acked write must be readable there.
  primary_server_->Stop();
  for (int i = 0; i < 40; ++i) {
    Result<std::string> got = rt.Get("k" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), "v" + std::to_string(i));
  }
  EXPECT_EQ(rt.ActivePort("n0"), follower_server_->port());
  EXPECT_EQ(replica_->role(), net::ReplicaRole::kPrimary);
  // Writes keep landing on the promoted node.
  ASSERT_TRUE(rt.Set("after-failover", "yes").ok());
  EXPECT_EQ(rt.Get("after-failover").value(), "yes");
  rt.Stop();
}

TEST_F(ReplicationTest, ProbeLoopFailsOverWithoutTraffic) {
  StartFollowerServer();
  StartPrimaryServer();
  std::unique_ptr<WalShipper> shipper = MakeAttachedShipper();
  ASSERT_TRUE(wal_->Set("probe-k", "probe-v").ok());

  RouterOptions options;
  options.probe_interval_ms = 30;
  options.probe_failures = 2;
  options.client.connect_attempts = 1;
  options.client.recv_timeout_ms = 1000;
  std::vector<RouterNode> nodes;
  nodes.push_back({"n0", primary_server_->port(), follower_server_->port()});
  Router rt(authority_, primary_enclave_.measurement(), std::move(nodes), options);
  ASSERT_TRUE(rt.Start().ok());

  primary_server_->Stop();
  // No client ops at all: the health probes alone must detect the death and
  // promote within a few intervals.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.ActivePort("n0") != follower_server_->port() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(rt.ActivePort("n0"), follower_server_->port());
  EXPECT_EQ(rt.Get("probe-k").value(), "probe-v");
  rt.Stop();
}

TEST_F(ReplicationTest, NodeWithoutStandbyGoesDeadWithTypedStatus) {
  StartPrimaryServer();
  RouterOptions options;
  options.probe_interval_ms = 0;
  options.op_retries = 2;
  options.retry_backoff_ms = 5;
  options.client.connect_attempts = 1;
  std::vector<RouterNode> nodes;
  nodes.push_back({"solo", primary_server_->port(), 0});  // no follower
  Router rt(authority_, primary_enclave_.measurement(), std::move(nodes), options);
  ASSERT_TRUE(rt.Start().ok());
  ASSERT_TRUE(rt.Set("k", "v").ok());
  primary_server_->Stop();
  const Status s = rt.Set("k", "v2");
  EXPECT_EQ(s.code(), Code::kFailingOver);
  EXPECT_EQ(rt.ActivePort("solo"), 0);  // demoted to dead
  rt.Stop();
}

TEST_F(ReplicationTest, ClientReconnectRunsAFreshHandshake) {
  StartPrimaryServer();
  net::Client client(authority_, primary_enclave_.measurement());
  ASSERT_TRUE(client.Connect(primary_server_->port()).ok());
  ASSERT_TRUE(client.Set("sticky", "1").ok());

  // Restart the server: old session keys are gone, the old socket is dead.
  primary_server_->Stop();
  StartPrimaryServer();
  const uint16_t new_port = primary_server_->port();
  EXPECT_FALSE(client.Set("sticky", "2").ok());  // old session is dead
  ASSERT_TRUE(client.Reconnect(new_port).ok());  // fresh socket + attestation
  EXPECT_EQ(client.port(), new_port);
  EXPECT_EQ(client.Get("sticky").value(), "1");
  ASSERT_TRUE(client.Set("sticky", "2").ok());
  EXPECT_EQ(client.Get("sticky").value(), "2");
}

// ---------------------------------------------------------- fault tooling

TEST(NodeKillerTest, KillFreezeThawAndAlive) {
  using faultinject::NodeKiller;
  EXPECT_EQ(NodeKiller::Kill(-1).code(), Code::kInvalidArgument);
  EXPECT_EQ(NodeKiller::Kill(0).code(), Code::kInvalidArgument);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    for (;;) {
      ::pause();
    }
  }
  EXPECT_TRUE(NodeKiller::Alive(child));
  EXPECT_TRUE(NodeKiller::Freeze(child).ok());
  EXPECT_TRUE(NodeKiller::Thaw(child).ok());
  EXPECT_TRUE(NodeKiller::Kill(child).ok());
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  EXPECT_FALSE(NodeKiller::Alive(child));
  EXPECT_EQ(NodeKiller::Kill(child).code(), Code::kNotFound);  // already reaped
}

TEST(NodeKillerTest, BlackholeAcceptsButNeverSpeaks) {
  faultinject::Blackhole hole;
  ASSERT_TRUE(hole.Start(0).ok());
  ASSERT_GT(hole.port(), 0);

  // A client handshake against the blackhole must fail by timeout — the
  // network-partition shape (connection up, peer silent), not a refusal.
  sgx::Enclave enclave(FastEnclave());
  sgx::AttestationAuthority authority(AsBytes("hole-ias"));
  net::ClientOptions options;
  options.connect_attempts = 1;
  options.recv_timeout_ms = 200;
  net::Client client(authority, enclave.measurement(), true, options);
  const auto start = std::chrono::steady_clock::now();
  const Status s = client.Connect(hole.port());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kIoError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_GE(hole.accepted(), 1u);
  hole.Stop();
}

}  // namespace
}  // namespace shield
