// Batched operation pipeline: the kBatch codecs (round-trip property test +
// decode fuzz), batched-vs-sequential execution equivalence down to the MAC
// bucket hashes, partition-grouped execution under quarantine, durable group
// acks for batched mutations through the write-ahead store, and end-to-end
// multi-op frames over both enclave entry mechanisms.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"

namespace shield {
namespace {

using kv::BatchOp;
using kv::BatchOpResult;
using kv::BatchOpType;
using shieldstore::PartitionedStore;
using shieldstore::Store;
using shieldstore::WriteAheadStore;

sgx::EnclaveConfig TestEnclaveConfig(const char* seed) {
  sgx::EnclaveConfig c;
  c.name = "batch-test";
  c.epc.epc_bytes = 8u << 20;
  c.epc.crossing_cycles = 0;
  c.epc.kernel_fault_cycles = 0;
  c.epc.resident_access_cycles = 0;
  c.epc.page_crypto = false;
  c.heap_reserve_bytes = 128u << 20;
  c.rng_seed = ToBytes(seed);
  return c;
}

shieldstore::Options SmallOptions() {
  shieldstore::Options o;
  o.num_buckets = 512;
  o.heap_chunk_bytes = 1 << 20;
  return o;
}

// ---------------------------------------------------------------- codecs

net::Request RandomRequest(Xoshiro256& rng) {
  net::Request r;
  // Valid single-op codes only (1..6); kBatch never nests.
  r.op = static_cast<net::OpCode>(1 + rng.NextBelow(6));
  r.key = "key-" + std::to_string(rng.NextBelow(1000));
  if (rng.NextBelow(2) == 0) {
    r.value.assign(rng.NextBelow(300), static_cast<char>('a' + rng.NextBelow(26)));
  }
  r.delta = static_cast<int64_t>(rng.Next());
  return r;
}

TEST(BatchProtocolTest, RequestRoundTripProperty) {
  Xoshiro256 rng(0xba7c4ULL);
  for (int round = 0; round < 200; ++round) {
    std::vector<net::Request> ops(1 + rng.NextBelow(32));
    for (auto& op : ops) {
      op = RandomRequest(rng);
    }
    Result<std::vector<net::Request>> back =
        net::DecodeBatchRequest(net::EncodeBatchRequest(ops));
    ASSERT_TRUE(back.ok()) << round << ": " << back.status().ToString();
    ASSERT_EQ(back->size(), ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ((*back)[i].op, ops[i].op);
      EXPECT_EQ((*back)[i].key, ops[i].key);
      EXPECT_EQ((*back)[i].value, ops[i].value);
      EXPECT_EQ((*back)[i].delta, ops[i].delta);
    }
  }
}

TEST(BatchProtocolTest, ResponseRoundTripProperty) {
  Xoshiro256 rng(0xba7c5ULL);
  for (int round = 0; round < 200; ++round) {
    std::vector<net::Response> responses(1 + rng.NextBelow(32));
    for (auto& r : responses) {
      r.status = static_cast<Code>(rng.NextBelow(
          static_cast<uint64_t>(Code::kUnsupportedUnderWal) + 1));
      r.value.assign(rng.NextBelow(100), 'x');
    }
    Result<std::vector<net::Response>> back =
        net::DecodeBatchResponse(net::EncodeBatchResponse(responses));
    ASSERT_TRUE(back.ok()) << round << ": " << back.status().ToString();
    ASSERT_EQ(back->size(), responses.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      EXPECT_EQ((*back)[i].status, responses[i].status);
      EXPECT_EQ((*back)[i].value, responses[i].value);
    }
  }
}

TEST(BatchProtocolTest, MalformedBatchesRejectedTyped) {
  const std::vector<net::Request> one = {{net::OpCode::kSet, "k", "v", 0}};
  const Bytes valid = net::EncodeBatchRequest(one);
  ASSERT_TRUE(net::IsBatchRequest(valid));

  // Empty payload / wrong leading byte.
  EXPECT_EQ(net::DecodeBatchRequest({}).status().code(), Code::kProtocolError);
  Bytes wrong_op = valid;
  wrong_op[0] = 1;
  EXPECT_EQ(net::DecodeBatchRequest(wrong_op).status().code(), Code::kProtocolError);

  // Zero-count batches carry no work and are rejected.
  Bytes zero = valid;
  StoreLe32(zero.data() + 1, 0);
  EXPECT_EQ(net::DecodeBatchRequest(zero).status().code(), Code::kProtocolError);

  // A forged count claiming 2^31 sub-ops with one op's bytes behind it must
  // fail typed — and cannot trick the decoder into a giant reserve, which is
  // bounded by the bytes actually present.
  Bytes forged = valid;
  StoreLe32(forged.data() + 1, 1u << 31);
  EXPECT_EQ(net::DecodeBatchRequest(forged).status().code(), Code::kProtocolError);

  // Count over the cap, even when honest.
  Bytes over = valid;
  StoreLe32(over.data() + 1, net::kMaxBatchOps + 1);
  EXPECT_EQ(net::DecodeBatchRequest(over).status().code(), Code::kProtocolError);

  // Truncated mid-sub-frame and trailing garbage.
  Bytes truncated = valid;
  truncated.pop_back();
  EXPECT_EQ(net::DecodeBatchRequest(truncated).status().code(), Code::kProtocolError);
  Bytes trailing = valid;
  trailing.push_back(0x00);
  EXPECT_EQ(net::DecodeBatchRequest(trailing).status().code(), Code::kProtocolError);

  // A nested kBatch sub-op is not a valid single-op code.
  Bytes nested = valid;
  nested[5] = static_cast<uint8_t>(net::OpCode::kBatch);
  EXPECT_EQ(net::DecodeBatchRequest(nested).status().code(), Code::kProtocolError);

  // Per-op caps still apply inside a batch.
  net::Request big_key;
  big_key.op = net::OpCode::kSet;
  big_key.key.assign(net::kMaxKeyBytes + 1, 'k');
  EXPECT_EQ(net::DecodeBatchRequest(net::EncodeBatchRequest({big_key})).status().code(),
            Code::kProtocolError);

  // Aggregate cap: a frame over kMaxBatchBytes is rejected before any per-op
  // parsing or allocation.
  Bytes huge(5 + net::kMaxBatchBytes + 1, 0);
  huge[0] = static_cast<uint8_t>(net::OpCode::kBatch);
  StoreLe32(huge.data() + 1, 1);
  const Status too_large = net::DecodeBatchRequest(huge).status();
  EXPECT_EQ(too_large.code(), Code::kProtocolError);
  EXPECT_NE(too_large.ToString().find("too large"), std::string::npos);
}

TEST(BatchProtocolTest, MalformedBatchResponsesRejectedTyped) {
  const Bytes valid = net::EncodeBatchResponse({{Code::kOk, "v"}, {Code::kNotFound, ""}});
  ASSERT_TRUE(net::IsBatchResponse(valid));

  // An out-of-range status byte must not be cast into the trusted enum.
  Bytes bad_status = valid;
  bad_status[5] = 200;
  EXPECT_EQ(net::DecodeBatchResponse(bad_status).status().code(), Code::kProtocolError);

  Bytes forged = valid;
  StoreLe32(forged.data() + 1, 1u << 30);
  EXPECT_EQ(net::DecodeBatchResponse(forged).status().code(), Code::kProtocolError);

  Bytes truncated = valid;
  truncated.pop_back();
  EXPECT_EQ(net::DecodeBatchResponse(truncated).status().code(), Code::kProtocolError);
}

TEST(BatchProtocolTest, DecodeFuzzNeverCrashes) {
  // Deterministic mutation fuzz over both batch codecs: every mutant either
  // round-trips or fails with the typed protocol error — no crash, no other
  // code, no attacker-sized allocation.
  Xoshiro256 rng(0xba7f0edULL);
  std::vector<net::Request> ops;
  for (int i = 0; i < 8; ++i) {
    ops.push_back({net::OpCode::kSet, "fuzz-" + std::to_string(i), std::string(60, 'v'), i});
  }
  const Bytes request_seed = net::EncodeBatchRequest(ops);
  const Bytes response_seed = net::EncodeBatchResponse(
      {{Code::kOk, "abc"}, {Code::kNotFound, ""}, {Code::kOk, std::string(40, 'r')}});
  for (int i = 0; i < 5000; ++i) {
    Bytes mutated = (i % 2 == 0) ? request_seed : response_seed;
    const size_t flips = 1 + rng.NextBelow(8);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    if (rng.NextBelow(4) == 0) {
      mutated.resize(rng.NextBelow(mutated.size() + 1));
    }
    if (i % 2 == 0) {
      Result<std::vector<net::Request>> decoded = net::DecodeBatchRequest(mutated);
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.status().code(), Code::kProtocolError) << "mutant " << i;
      }
    } else {
      Result<std::vector<net::Response>> decoded = net::DecodeBatchResponse(mutated);
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.status().code(), Code::kProtocolError) << "mutant " << i;
      }
    }
  }
}

// ------------------------------------------------- execution equivalence

// A mixed op sequence with same-key chains (set/get/append/get/increment),
// misses, deletes, and re-inserts — the shapes that would expose a reorder
// or a stale-MAC bug in the batched path.
std::vector<BatchOp> MixedOps() {
  std::vector<BatchOp> ops;
  for (int i = 0; i < 24; ++i) {
    const std::string key = "k" + std::to_string(i % 8);
    switch (i % 6) {
      case 0:
        ops.push_back({BatchOpType::kSet, key, std::to_string(i), 0});
        break;
      case 1:
        ops.push_back({BatchOpType::kGet, key, "", 0});
        break;
      case 2:
        ops.push_back({BatchOpType::kAppend, key, "0", 0});
        break;
      case 3:
        ops.push_back({BatchOpType::kIncrement, key, "", 7});
        break;
      case 4:
        ops.push_back({BatchOpType::kDelete, key, "", 0});
        break;
      default:
        ops.push_back({BatchOpType::kGet, "missing-" + std::to_string(i), "", 0});
        break;
    }
  }
  return ops;
}

TEST(BatchEquivalenceTest, BatchedMatchesSequentialIncludingMacHashes) {
  // Two enclaves with the same DRBG seed and the same store master key draw
  // identical IV streams when the op (and thus draw) order matches — so a
  // correct batched path must produce BYTE-IDENTICAL secure metadata (keys +
  // the full MAC bucket hash array) to the sequential one.
  shieldstore::Options options = SmallOptions();
  options.master_key = Bytes(32, 0x42);

  sgx::Enclave enclave_seq(TestEnclaveConfig("batch-equivalence"));
  sgx::Enclave enclave_batch(TestEnclaveConfig("batch-equivalence"));
  Store sequential(enclave_seq, options);
  Store batched(enclave_batch, options);

  const std::vector<BatchOp> ops = MixedOps();
  std::vector<BatchOpResult> seq_results;
  seq_results.reserve(ops.size());
  for (const BatchOp& op : ops) {
    seq_results.push_back(kv::ExecuteSingleOp(sequential, op));
  }
  const std::vector<BatchOpResult> batch_results = batched.ExecuteBatch(ops);

  ASSERT_EQ(batch_results.size(), seq_results.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(batch_results[i].status.code(), seq_results[i].status.code()) << "op " << i;
    EXPECT_EQ(batch_results[i].value, seq_results[i].value) << "op " << i;
  }
  EXPECT_EQ(batched.Size(), sequential.Size());
  EXPECT_EQ(batched.ExportSecureMetadata(), sequential.ExportSecureMetadata());

  // The deferred MAC recomputation left a self-consistent table: both the
  // cheap hash check and the full chain audit pass.
  EXPECT_TRUE(batched.VerifyFullIntegrity().ok());
  EXPECT_TRUE(batched.Scrub().status.ok());
  EXPECT_TRUE(sequential.VerifyFullIntegrity().ok());
}

TEST(BatchEquivalenceTest, PartitionGroupedExecutionMatchesSequentialState) {
  sgx::Enclave enclave_a(TestEnclaveConfig("batch-part-a"));
  sgx::Enclave enclave_b(TestEnclaveConfig("batch-part-b"));
  PartitionedStore sequential(enclave_a, SmallOptions(), 4);
  PartitionedStore batched(enclave_b, SmallOptions(), 4);

  const std::vector<BatchOp> ops = MixedOps();
  std::vector<BatchOpResult> seq_results;
  for (const BatchOp& op : ops) {
    seq_results.push_back(kv::ExecuteSingleOp(sequential, op));
  }
  const std::vector<BatchOpResult> batch_results = batched.ExecuteBatch(ops);

  // Partition grouping reorders across partitions, which commutes: per-op
  // results and the final state must still match sequential execution.
  ASSERT_EQ(batch_results.size(), seq_results.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(batch_results[i].status.code(), seq_results[i].status.code()) << "op " << i;
    EXPECT_EQ(batch_results[i].value, seq_results[i].value) << "op " << i;
  }
  auto dump = [](PartitionedStore& store) {
    std::map<std::string, std::string> out;
    for (size_t p = 0; p < store.num_partitions(); ++p) {
      EXPECT_TRUE(store.partition(p)
                      .ForEachDecrypted([&](std::string_view key, std::string_view value) {
                        out[std::string(key)] = std::string(value);
                        return Status::Ok();
                      })
                      .ok());
    }
    return out;
  };
  EXPECT_EQ(dump(batched), dump(sequential));
  for (size_t p = 0; p < batched.num_partitions(); ++p) {
    EXPECT_TRUE(batched.partition(p).VerifyFullIntegrity().ok()) << "partition " << p;
  }
}

TEST(BatchEquivalenceTest, FacadeSingletonsMatchLeafPrimitives) {
  // The facade's singleton verbs are batches of one through ExecuteBatch
  // (lock, quarantine guard, MAC batch scope). Against a twin driven through
  // its partition's Store primitives directly — same enclave seed and master
  // key, hence the same IV stream — every result and the exported secure
  // metadata must match byte for byte.
  shieldstore::Options options = SmallOptions();
  options.master_key = Bytes(32, 0x42);
  sgx::Enclave enclave_facade(TestEnclaveConfig("batch-of-one"));
  sgx::Enclave enclave_leaf(TestEnclaveConfig("batch-of-one"));
  PartitionedStore facade(enclave_facade, options, 1);
  PartitionedStore leaf(enclave_leaf, options, 1);

  const std::vector<BatchOp> ops = MixedOps();
  for (size_t i = 0; i < ops.size(); ++i) {
    const BatchOpResult via_facade = kv::ExecuteSingleOp(facade, ops[i]);
    const BatchOpResult via_leaf = kv::ExecuteSingleOp(leaf.partition(0), ops[i]);
    EXPECT_EQ(via_facade.status.code(), via_leaf.status.code()) << "op " << i;
    EXPECT_EQ(via_facade.value, via_leaf.value) << "op " << i;
  }
  EXPECT_EQ(facade.Size(), leaf.Size());
  EXPECT_EQ(facade.partition(0).ExportSecureMetadata(), leaf.partition(0).ExportSecureMetadata());
  EXPECT_TRUE(facade.partition(0).VerifyFullIntegrity().ok());
}

TEST(BatchEquivalenceTest, MidBatchFailuresLeaveConsistentMacState) {
  sgx::Enclave enclave(TestEnclaveConfig("batch-midfail"));
  Store store(enclave, SmallOptions());
  ASSERT_TRUE(store.Set("n", "not-a-number").ok());

  // Failing ops interleaved with succeeding mutations: the batch scope must
  // still recompute every dirty bucket set at the end.
  const std::vector<BatchOp> ops = {
      {BatchOpType::kSet, "a", "1", 0},          {BatchOpType::kGet, "missing", "", 0},
      {BatchOpType::kIncrement, "n", "", 5},     {BatchOpType::kSet, "b", "2", 0},
      {BatchOpType::kDelete, "missing-2", "", 0}, {BatchOpType::kAppend, "a", "x", 0},
  };
  const std::vector<BatchOpResult> results = store.ExecuteBatch(ops);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[1].status.code(), Code::kNotFound);
  EXPECT_EQ(results[2].status.code(), Code::kInvalidArgument);
  EXPECT_TRUE(results[3].status.ok());
  EXPECT_EQ(results[4].status.code(), Code::kNotFound);
  EXPECT_TRUE(results[5].status.ok());
  EXPECT_EQ(results[5].value, "1x");
  EXPECT_TRUE(store.VerifyFullIntegrity().ok());
  EXPECT_TRUE(store.Scrub().status.ok());
}

TEST(BatchEquivalenceTest, QuarantinedPartitionFailsOnlyItsOps) {
  sgx::Enclave enclave(TestEnclaveConfig("batch-quarantine"));
  PartitionedStore store(enclave, SmallOptions(), 4);

  // Find keys on partition 0 and on some other partition.
  std::vector<std::string> p0_keys, other_keys;
  for (int i = 0; p0_keys.size() < 2 || other_keys.size() < 2; ++i) {
    const std::string key = "q" + std::to_string(i);
    (store.PartitionOf(key) == 0 ? p0_keys : other_keys).push_back(key);
  }
  ASSERT_FALSE(store
                   .WithPartitionLocked(0,
                                        [](Store&) {
                                          return Status(Code::kIntegrityFailure,
                                                        "synthetic violation");
                                        })
                   .ok());
  ASSERT_TRUE(store.IsQuarantined(0));

  const std::vector<BatchOp> ops = {
      {BatchOpType::kSet, p0_keys[0], "v", 0},
      {BatchOpType::kSet, other_keys[0], "v", 0},
      {BatchOpType::kGet, p0_keys[1], "", 0},
      {BatchOpType::kSet, other_keys[1], "v", 0},
  };
  const std::vector<BatchOpResult> results = store.ExecuteBatch(ops);
  EXPECT_EQ(results[0].status.code(), Code::kPartitionRecovering);
  EXPECT_TRUE(results[1].status.ok());
  EXPECT_EQ(results[2].status.code(), Code::kPartitionRecovering);
  EXPECT_TRUE(results[3].status.ok());
}

// ------------------------------------------------ WAL batched durability

class BatchWalTest : public ::testing::Test {
 protected:
  BatchWalTest() : enclave_(TestEnclaveConfig("batch-wal-a")) {
    dir_ = ::testing::TempDir() + "/batch_wal_" + std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    sgx::MonotonicCounterService::Options counter_opts;
    counter_opts.backing_file = dir_ + "/counters.bin";
    counter_opts.increment_cost_cycles = 0;
    counters_ = std::make_unique<sgx::MonotonicCounterService>(counter_opts);
    sealer_ = std::make_unique<sgx::SealingService>(AsBytes("fuse"), enclave_.measurement());
  }
  ~BatchWalTest() override { std::filesystem::remove_all(dir_); }

  shieldstore::OpLogOptions LogOptions() const {
    shieldstore::OpLogOptions o;
    o.path = dir_ + "/wal.log";
    return o;
  }

  std::map<std::string, std::string> RestartAndDump(size_t partitions,
                                                    const shieldstore::OpLogOptions& opts) {
    sgx::Enclave enclave2(TestEnclaveConfig("batch-wal-b"));
    PartitionedStore store2(enclave2, SmallOptions(), partitions);
    WriteAheadStore wal2(store2, *sealer_, *counters_, opts);
    EXPECT_TRUE(wal2.Open().ok());
    const Status restored = wal2.RestoreFromDisk(dir_ + "/snapshots");
    EXPECT_TRUE(restored.ok()) << restored.ToString();
    std::map<std::string, std::string> dump;
    for (size_t p = 0; p < store2.num_partitions(); ++p) {
      EXPECT_TRUE(store2.partition(p)
                      .ForEachDecrypted([&](std::string_view key, std::string_view value) {
                        dump[std::string(key)] = std::string(value);
                        return Status::Ok();
                      })
                      .ok());
    }
    return dump;
  }

  sgx::Enclave enclave_;
  std::string dir_;
  std::unique_ptr<sgx::MonotonicCounterService> counters_;
  std::unique_ptr<sgx::SealingService> sealer_;
};

TEST_F(BatchWalTest, BatchedDurableAcksSurviveRestart) {
  PartitionedStore store(enclave_, SmallOptions(), 4);
  shieldstore::OpLogOptions log_opts = LogOptions();
  log_opts.group_commit_window_us = 50;
  log_opts.group_commit_ops = 8;
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());

  // In durable-window mode a batched ack is exactly as durable as N singleton
  // acks: the state on disk right after ExecuteBatch returns must replay in
  // full — including ops that span every shard and delete earlier sets.
  // Odd rounds run the same ops through the singleton verbs (each a batch of
  // one), whose acks must be just as durable.
  std::map<std::string, std::string> acked;
  for (int round = 0; round < 6; ++round) {
    std::vector<BatchOp> ops;
    for (int i = 0; i < 16; ++i) {
      const std::string key = "b" + std::to_string(round) + "-" + std::to_string(i);
      ops.push_back({BatchOpType::kSet, key, "v" + std::to_string(i), 0});
    }
    if (round == 0) {
      ops.push_back({BatchOpType::kSet, "ctr", "100", 0});
    } else {
      ops.push_back({BatchOpType::kDelete, "b" + std::to_string(round - 1) + "-0", "", 0});
      ops.push_back({BatchOpType::kAppend, "b" + std::to_string(round - 1) + "-1", "+", 0});
      ops.push_back({BatchOpType::kIncrement, "ctr", "", round});
    }
    std::vector<BatchOpResult> results;
    if (round % 2 == 0) {
      results = wal.ExecuteBatch(ops);
    } else {
      for (const BatchOp& op : ops) {
        results.push_back(kv::ExecuteSingleOp(wal, op));
      }
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok()) << "round " << round << " op " << i;
      switch (ops[i].type) {
        case BatchOpType::kSet:
          acked[ops[i].key] = ops[i].value;
          break;
        case BatchOpType::kDelete:
          acked.erase(ops[i].key);
          break;
        case BatchOpType::kAppend:
        case BatchOpType::kIncrement:
          acked[ops[i].key] = results[i].value;
          break;
        default:
          break;
      }
    }
  }
  EXPECT_EQ(acked["ctr"], "115");
  EXPECT_EQ(RestartAndDump(4, log_opts), acked);
}

TEST_F(BatchWalTest, FailedOpsAreNotLoggedAndGetsSkipTheLog) {
  PartitionedStore store(enclave_, SmallOptions(), 2);
  shieldstore::OpLogOptions log_opts = LogOptions();
  log_opts.group_commit_window_us = 50;
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Set("n", "NaN").ok());

  const uint64_t records_before = wal.Stats().records_logged;
  const std::vector<BatchOp> ops = {
      {BatchOpType::kGet, "n", "", 0},            // read: never logged
      {BatchOpType::kDelete, "missing", "", 0},   // fails: never logged
      {BatchOpType::kIncrement, "n", "", 1},      // fails (NaN): never logged
      {BatchOpType::kSet, "ok", "1", 0},          // logged
  };
  const std::vector<BatchOpResult> results = wal.ExecuteBatch(ops);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[0].value, "NaN");
  EXPECT_EQ(results[1].status.code(), Code::kNotFound);
  EXPECT_EQ(results[2].status.code(), Code::kInvalidArgument);
  EXPECT_TRUE(results[3].status.ok());
  EXPECT_EQ(wal.Stats().records_logged - records_before, 1u);

  // A mutation-free batch takes no shard locks and appends nothing.
  const uint64_t records_mid = wal.Stats().records_logged;
  const std::vector<BatchOpResult> reads =
      wal.ExecuteBatch({{BatchOpType::kGet, "ok", "", 0}, {BatchOpType::kGet, "n", "", 0}});
  EXPECT_EQ(reads[0].value, "1");
  EXPECT_EQ(reads[1].value, "NaN");
  EXPECT_EQ(wal.Stats().records_logged, records_mid);

  EXPECT_EQ(RestartAndDump(2, log_opts),
            (std::map<std::string, std::string>{{"n", "NaN"}, {"ok", "1"}}));
}

TEST_F(BatchWalTest, LatchedShardFailsSingletonMutationsButServesGets) {
  PartitionedStore store(enclave_, SmallOptions(), 1);
  shieldstore::OpLogOptions log_opts = LogOptions();
  log_opts.group_commit_window_us = 50;
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Set("k", "v").ok());
  ASSERT_TRUE(wal.Set("n", "1").ok());

  // Fail the next commit's counter bump: the counter's temp file path is
  // now a directory. The failed commit latches the (only) shard.
  const std::string blocker = dir_ + "/counters.bin.tmp";
  ASSERT_TRUE(std::filesystem::create_directory(blocker));
  const Status failed = wal.Set("x", "1");
  ASSERT_FALSE(failed.ok());
  std::filesystem::remove(blocker);  // the latch outlives the fault

  // Every singleton mutation now fails fast with the latched status and
  // logs nothing; reads still serve the pre-latch state.
  const uint64_t records = wal.Stats().records_logged;
  EXPECT_EQ(wal.Set("k", "w").ToString(), failed.ToString());
  EXPECT_EQ(wal.Delete("k").ToString(), failed.ToString());
  EXPECT_EQ(wal.Append("k", "+").ToString(), failed.ToString());
  EXPECT_EQ(wal.Increment("n", 1).status().ToString(), failed.ToString());
  EXPECT_EQ(wal.Stats().records_logged, records);
  Result<std::string> k = wal.Get("k");
  ASSERT_TRUE(k.ok()) << k.status().ToString();
  EXPECT_EQ(*k, "v");
  Result<std::string> n = wal.Get("n");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, "1");
}

// No dirty reads: a get of a key whose set is still in flight (applied and
// logged, its group waiting out a long window) must not return until that
// set is durable — the get could otherwise reveal state a crash would take
// back. The set's group is still open when the get runs, so a get that
// returns first has revealed it.
TEST_F(BatchWalTest, GetNeverRevealsASetBeforeItIsDurable) {
  PartitionedStore store(enclave_, SmallOptions(), 1);
  ASSERT_TRUE(store.Set("k", "old").ok());  // the durable past, as far as this test cares
  shieldstore::OpLogOptions log_opts = LogOptions();
  log_opts.group_commit_window_us = 200'000;
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());

  std::atomic<bool> set_returned{false};
  std::thread writer([&] {
    EXPECT_TRUE(wal.Set("k", "new").ok());
    set_returned.store(true);
  });
  while (wal.Stats().records_logged == 0) {
    std::this_thread::yield();  // applied and appended: now in flight
  }
  const Result<std::string> got = wal.Get("k");
  const uint64_t fsyncs_at_get = wal.Stats().fsyncs;
  writer.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got == "old" || *got == "new") << *got;
  if (*got == "new") {
    EXPECT_GE(fsyncs_at_get, 1u) << "the get revealed the set before its group was durable";
  }
  EXPECT_TRUE(set_returned.load());
}

// The same guarantee across sessions: session B's get of a key session A is
// setting may not be answered before A's set is acked. The sessions land on
// different reactor loops (accepts go round-robin), so B's get executes
// while A's set waits out its group's 200 ms window; answering B then would
// be a dirty read on the wire.
TEST_F(BatchWalTest, NetGetResponseNeverOvertakesTheSetItReveals) {
  PartitionedStore store(enclave_, SmallOptions(), 1);
  ASSERT_TRUE(store.Set("k", "old").ok());
  shieldstore::OpLogOptions log_opts = LogOptions();
  log_opts.group_commit_window_us = 200'000;
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  const sgx::AttestationAuthority authority(AsBytes("ias-root"));
  net::ServerOptions options;
  options.io_threads = 2;
  net::Server server(enclave_, wal, authority, options);
  ASSERT_TRUE(server.Start().ok());
  net::Client a(authority, enclave_.measurement());
  net::Client b(authority, enclave_.measurement());
  ASSERT_TRUE(a.Connect(server.port()).ok());
  ASSERT_TRUE(b.Connect(server.port()).ok());

  ASSERT_TRUE(a.SendRequest({net::OpCode::kSet, "k", "new", 0}).ok());
  while (wal.Stats().records_logged == 0) {
    std::this_thread::yield();
  }
  std::atomic<bool> a_acked{false};
  std::thread a_reader([&] {
    const Result<net::Response> r = a.ReceiveResponse();
    EXPECT_TRUE(r.ok() && r->status == Code::kOk);
    a_acked.store(true);
  });
  const Result<std::string> got = b.Get("k");
  const uint64_t fsyncs_at_get = wal.Stats().fsyncs;
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "new");
  EXPECT_GE(fsyncs_at_get, 1u) << "B was answered before A's set was durable";
  // Both responses were released by the same publish; A's cannot trail B's
  // by a commit window.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  while (!a_acked.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(a_acked.load()) << "A's ack trailed B's read of its value";
  a_reader.join();
  server.Stop();
}

// HotCalls responders take the same completion path as ECALLs: they submit
// without waiting, and the reactor holds the sealed responses until the WAL
// publishes them durable. Pipelined sets and read-backs all come back OK,
// in order, over both entry mechanisms.
TEST_F(BatchWalTest, HeldAcksServeOverEcallsAndHotCalls) {
  PartitionedStore store(enclave_, SmallOptions(), 2);
  shieldstore::OpLogOptions log_opts = LogOptions();
  log_opts.group_commit_window_us = 100;
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  const sgx::AttestationAuthority authority(AsBytes("ias-root"));
  for (const bool hotcalls : {false, true}) {
    net::ServerOptions options;
    options.use_hotcalls = hotcalls;
    net::Server server(enclave_, wal, authority, options);
    ASSERT_TRUE(server.Start().ok());
    net::Client client(authority, enclave_.measurement());
    ASSERT_TRUE(client.Connect(server.port()).ok());
    const std::string tag = hotcalls ? "h" : "e";
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(client.SendRequest({net::OpCode::kSet, tag + std::to_string(i),
                                      "v" + std::to_string(i), 0})
                      .ok());
    }
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(client.SendRequest({net::OpCode::kGet, tag + std::to_string(i), "", 0}).ok());
    }
    for (int i = 0; i < 32; ++i) {
      const Result<net::Response> r = client.ReceiveResponse();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->status, Code::kOk);
    }
    for (int i = 0; i < 32; ++i) {
      const Result<net::Response> r = client.ReceiveResponse();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->status, Code::kOk);
      EXPECT_EQ(r->value, "v" + std::to_string(i));
    }
    server.Stop();
  }
  EXPECT_EQ(RestartAndDump(2, log_opts).size(), 64u);
}

// --------------------------------------------------------- end to end

class BatchNetTest : public ::testing::Test {
 protected:
  BatchNetTest()
      : enclave_(TestEnclaveConfig("batch-net")),
        authority_(AsBytes("ias-root")),
        store_(enclave_, SmallOptions(), 2) {}

  void StartServer(net::ServerOptions options) {
    options.metrics = &registry_;  // per-test totals behind the accessors
    server_ = std::make_unique<net::Server>(enclave_, store_, authority_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void RunBatchMix() {
    net::Client client(authority_, enclave_.measurement());
    ASSERT_TRUE(client.Connect(server_->port()).ok());

    // MSet + MGet round trip.
    std::vector<std::pair<std::string, std::string>> pairs;
    std::vector<std::string> keys;
    for (int i = 0; i < 64; ++i) {
      pairs.emplace_back("mk" + std::to_string(i), "mv" + std::to_string(i));
      keys.push_back("mk" + std::to_string(i));
    }
    ASSERT_TRUE(client.MSet(pairs).ok());
    Result<std::vector<net::Response>> got = client.MGet(keys);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ((*got)[i].status, Code::kOk);
      EXPECT_EQ((*got)[i].value, pairs[i].second);
    }

    // A mixed frame: per-op statuses come back positionally, including
    // failures, and one frame carries all of them.
    std::vector<net::Request> mixed;
    mixed.push_back({net::OpCode::kSet, "counter", "10", 0});
    mixed.push_back({net::OpCode::kIncrement, "counter", "", 5});
    mixed.push_back({net::OpCode::kGet, "no-such-key", "", 0});
    mixed.push_back({net::OpCode::kAppend, "mk0", "!", 0});
    mixed.push_back({net::OpCode::kGet, "mk0", "", 0});
    mixed.push_back({net::OpCode::kDelete, "mk1", "", 0});
    mixed.push_back({net::OpCode::kPing, "", "", 0});
    Result<std::vector<net::Response>> r = client.ExecuteBatch(mixed);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->size(), mixed.size());
    EXPECT_EQ((*r)[0].status, Code::kOk);
    EXPECT_EQ((*r)[1].status, Code::kOk);
    EXPECT_EQ((*r)[1].value, "15");
    EXPECT_EQ((*r)[2].status, Code::kNotFound);
    EXPECT_EQ((*r)[3].status, Code::kOk);
    EXPECT_EQ((*r)[4].status, Code::kOk);
    EXPECT_EQ((*r)[4].value, "mv0!");
    EXPECT_EQ((*r)[5].status, Code::kOk);
    EXPECT_EQ((*r)[6].status, Code::kOk);
    EXPECT_EQ(client.Get("mk1").status().code(), Code::kNotFound);
  }

  sgx::Enclave enclave_;
  sgx::AttestationAuthority authority_;
  PartitionedStore store_;
  obs::Registry registry_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(BatchNetTest, BatchedFramesOverEcalls) {
  StartServer({});
  RunBatchMix();
  // 3 batch frames (MSet, MGet, mixed) of 64 + 64 + 7 sub-ops.
  EXPECT_EQ(server_->batches_served(), 3u);
  EXPECT_EQ(server_->batch_ops_served(), 135u);
  EXPECT_EQ(server_->crossings_saved(), 132u);
}

TEST_F(BatchNetTest, BatchedFramesOverHotCalls) {
  net::ServerOptions options;
  options.use_hotcalls = true;
  options.enclave_workers = 2;
  options.hotcall_idle_sleep_us = 20;  // exercise the spin-then-sleep path
  StartServer(options);
  RunBatchMix();
  EXPECT_EQ(server_->batches_served(), 3u);
  EXPECT_EQ(server_->crossings_saved(), 132u);
}

TEST_F(BatchNetTest, ClientRejectsInvalidBatchesLocally) {
  StartServer({});
  net::Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  EXPECT_EQ(client.ExecuteBatch({}).status().code(), Code::kProtocolError);
  std::vector<net::Request> too_many(net::kMaxBatchOps + 1);
  for (auto& op : too_many) {
    op = {net::OpCode::kPing, "", "", 0};
  }
  EXPECT_EQ(client.ExecuteBatch(too_many).status().code(), Code::kProtocolError);
  // The connection is still usable — nothing was sent.
  EXPECT_TRUE(client.Set("still", "alive").ok());
}

TEST_F(BatchNetTest, SmuggledBatchOpcodeInSingleFrameRejected) {
  StartServer({});
  net::Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  // A single-request frame whose opcode says kBatch must be answered with a
  // typed protocol error, not dispatched.
  net::Request smuggled;
  smuggled.op = net::OpCode::kBatch;
  smuggled.key = "k";
  Result<net::Response> response = client.Execute(smuggled);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, Code::kProtocolError);
}

}  // namespace
}  // namespace shield
