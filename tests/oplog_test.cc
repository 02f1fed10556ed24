// Operation-log extension tests (§7's fine-grained persistence design):
// group commit, chained-MAC integrity, torn tails, replay, rollback.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "src/shieldstore/oplog.h"

namespace shield::shieldstore {
namespace {

class OpLogTest : public ::testing::Test {
 protected:
  OpLogTest() : enclave_(Config()), sealer_(AsBytes("fuse"), enclave_.measurement()) {
    dir_ = ::testing::TempDir() + "/oplog_" + std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    counter_opts_.backing_file = dir_ + "/counters.bin";
    counter_opts_.increment_cost_cycles = 0;
    log_opts_.path = dir_ + "/wal.log";
    log_opts_.group_commit_ops = 4;
    log_opts_.metrics = &registry_;
  }
  ~OpLogTest() override { std::filesystem::remove_all(dir_); }

  static sgx::EnclaveConfig Config() {
    sgx::EnclaveConfig c;
    c.name = "oplog-test";
    c.epc.page_crypto = false;
    c.epc.crossing_cycles = 0;
    c.epc.kernel_fault_cycles = 0;
    c.epc.resident_access_cycles = 0;
    c.heap_reserve_bytes = 64u << 20;
    c.rng_seed = ToBytes("oplog");
    return c;
  }

  Options StoreOptions() {
    Options o;
    o.num_buckets = 256;
    return o;
  }

  uint64_t Commits() { return registry_.GetCounter("wal.commits").Value(); }

  obs::Registry registry_;  // this test's logs only: exact counts
  sgx::Enclave enclave_;
  sgx::SealingService sealer_;
  sgx::MonotonicCounterService::Options counter_opts_;
  OpLogOptions log_opts_;
  std::string dir_;
};

TEST_F(OpLogTest, LogAndReplay) {
  sgx::MonotonicCounterService counters(counter_opts_);
  {
    OperationLog log(sealer_, counters, log_opts_);
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(log.LogSet("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(log.LogDelete("k3").ok());
    ASSERT_TRUE(log.Commit().ok());
    EXPECT_GE(Commits(), 3u);  // two auto group commits + explicit
  }
  Store store(enclave_, StoreOptions());
  ASSERT_TRUE(OperationLog::Replay(sealer_, counters, log_opts_, store).ok());
  EXPECT_EQ(store.Size(), 9u);
  EXPECT_EQ(store.Get("k1").value(), "v1");
  EXPECT_EQ(store.Get("k3").status().code(), Code::kNotFound);
}

TEST_F(OpLogTest, UncommittedTailIsDiscarded) {
  sgx::MonotonicCounterService counters(counter_opts_);
  {
    OpLogOptions opts = log_opts_;
    opts.group_commit_ops = 1000;  // no auto commit
    OperationLog log(sealer_, counters, opts);
    ASSERT_TRUE(log.Open().ok());
    ASSERT_TRUE(log.LogSet("committed", "yes").ok());
    ASSERT_TRUE(log.Commit().ok());
    ASSERT_TRUE(log.LogSet("uncommitted", "lost").ok());
    // "Crash": drop the log object without Commit... but the destructor
    // commits; simulate the crash by copying the file first.
    std::filesystem::copy(opts.path, dir_ + "/crashed.log");
  }
  OpLogOptions crashed = log_opts_;
  crashed.path = dir_ + "/crashed.log";
  Store store(enclave_, StoreOptions());
  const Status replay = OperationLog::Replay(sealer_, counters, crashed, store);
  // The destructor's final commit bumped the counter past the crashed copy's
  // last commit — which is exactly what a stale/torn log should surface.
  EXPECT_EQ(replay.code(), Code::kRollbackDetected);
  // The committed record was applied before the rollback verdict was
  // reached; callers must discard the store on failure. Verify the tail
  // never applied regardless:
  EXPECT_EQ(store.Get("uncommitted").status().code(), Code::kNotFound);
}

TEST_F(OpLogTest, TamperedRecordDetected) {
  sgx::MonotonicCounterService counters(counter_opts_);
  {
    OperationLog log(sealer_, counters, log_opts_);
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(log.LogSet("k" + std::to_string(i), "value").ok());
    }
    ASSERT_TRUE(log.Commit().ok());
  }
  // Flip a byte in the middle of the file.
  FILE* f = std::fopen(log_opts_.path.c_str(), "rb+");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, size / 2, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(c ^ 0x20, f);
  std::fclose(f);
  Store store(enclave_, StoreOptions());
  EXPECT_EQ(OperationLog::Replay(sealer_, counters, log_opts_, store).code(),
            Code::kIntegrityFailure);
}

TEST_F(OpLogTest, ReorderedRecordsDetected) {
  sgx::MonotonicCounterService counters(counter_opts_);
  {
    OpLogOptions opts = log_opts_;
    opts.group_commit_ops = 1000;
    OperationLog log(sealer_, counters, opts);
    ASSERT_TRUE(log.Open().ok());
    ASSERT_TRUE(log.LogSet("a", std::string(100, 'a')).ok());
    ASSERT_TRUE(log.LogSet("b", std::string(100, 'b')).ok());
    ASSERT_TRUE(log.Commit().ok());
  }
  // Swap the two (equal-length) mutation frames wholesale.
  FILE* f = std::fopen(log_opts_.path.c_str(), "rb+");
  std::fseek(f, 8, SEEK_SET);  // past header
  uint8_t len_bytes[4];
  ASSERT_EQ(std::fread(len_bytes, 1, 4, f), 4u);
  const uint32_t len = LoadLe32(len_bytes);
  std::vector<uint8_t> first(len), second(len);
  ASSERT_EQ(std::fread(first.data(), 1, len, f), len);
  std::fseek(f, 4, SEEK_CUR);  // second frame's length prefix (same len)
  ASSERT_EQ(std::fread(second.data(), 1, len, f), len);
  std::fseek(f, 12, SEEK_SET);
  std::fwrite(second.data(), 1, len, f);
  std::fseek(f, 4, SEEK_CUR);
  std::fwrite(first.data(), 1, len, f);
  std::fclose(f);
  Store store(enclave_, StoreOptions());
  EXPECT_EQ(OperationLog::Replay(sealer_, counters, log_opts_, store).code(),
            Code::kIntegrityFailure);
}

TEST_F(OpLogTest, StaleLogReplayDetected) {
  sgx::MonotonicCounterService counters(counter_opts_);
  OperationLog log(sealer_, counters, log_opts_);
  ASSERT_TRUE(log.Open().ok());
  ASSERT_TRUE(log.LogSet("balance", "100").ok());
  ASSERT_TRUE(log.Commit().ok());
  // Attacker stashes the log, then lets it advance.
  std::filesystem::copy(log_opts_.path, dir_ + "/stale.log");
  ASSERT_TRUE(log.LogSet("balance", "0").ok());
  ASSERT_TRUE(log.Commit().ok());
  OpLogOptions stale = log_opts_;
  stale.path = dir_ + "/stale.log";
  Store store(enclave_, StoreOptions());
  EXPECT_EQ(OperationLog::Replay(sealer_, counters, stale, store).code(),
            Code::kRollbackDetected);
}

TEST_F(OpLogTest, ResetStartsFreshEpoch) {
  sgx::MonotonicCounterService counters(counter_opts_);
  OperationLog log(sealer_, counters, log_opts_);
  ASSERT_TRUE(log.Open().ok());
  ASSERT_TRUE(log.LogSet("old", "state").ok());
  ASSERT_TRUE(log.Commit().ok());
  std::filesystem::copy(log_opts_.path, dir_ + "/pre-reset.log");
  ASSERT_TRUE(log.Reset().ok());  // e.g. after a snapshot subsumed the log
  ASSERT_TRUE(log.LogSet("new", "state").ok());
  ASSERT_TRUE(log.Commit().ok());
  {
    Store store(enclave_, StoreOptions());
    ASSERT_TRUE(OperationLog::Replay(sealer_, counters, log_opts_, store).ok());
    EXPECT_EQ(store.Get("new").value(), "state");
    EXPECT_EQ(store.Get("old").status().code(), Code::kNotFound);
  }
  // The pre-reset epoch no longer replays.
  OpLogOptions old_epoch = log_opts_;
  old_epoch.path = dir_ + "/pre-reset.log";
  Store store(enclave_, StoreOptions());
  EXPECT_EQ(OperationLog::Replay(sealer_, counters, old_epoch, store).code(),
            Code::kRollbackDetected);
}

TEST_F(OpLogTest, GroupCommitAmortizesCounterBumps) {
  sgx::MonotonicCounterService counters(counter_opts_);
  OpLogOptions opts = log_opts_;
  opts.group_commit_ops = 32;
  OperationLog log(sealer_, counters, opts);
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 320; ++i) {
    ASSERT_TRUE(log.LogSet("k" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ(Commits(), 10u);  // 320 ops, one bump per 32
}

TEST_F(OpLogTest, ReopenContinuesChain) {
  sgx::MonotonicCounterService counters(counter_opts_);
  {
    OperationLog log(sealer_, counters, log_opts_);
    ASSERT_TRUE(log.Open().ok());
    ASSERT_TRUE(log.LogSet("first", "1").ok());
    ASSERT_TRUE(log.Commit().ok());
  }
  {
    OperationLog log(sealer_, counters, log_opts_);
    ASSERT_TRUE(log.Open().ok());  // scans + resumes the chain
    ASSERT_TRUE(log.LogSet("second", "2").ok());
    ASSERT_TRUE(log.Commit().ok());
  }
  Store store(enclave_, StoreOptions());
  ASSERT_TRUE(OperationLog::Replay(sealer_, counters, log_opts_, store).ok());
  EXPECT_EQ(store.Get("first").value(), "1");
  EXPECT_EQ(store.Get("second").value(), "2");
}

}  // namespace
}  // namespace shield::shieldstore
