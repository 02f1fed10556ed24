// Operation-log extension tests (§7's fine-grained persistence design):
// group commit, chained-MAC integrity, torn tails, replay, rollback. A
// standalone log is a one-shard WAL: its file is <path>.p0 and its counter
// epochs live in <path>.epoch.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

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

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }
  std::string LogFile() const { return EpochLog::ShardPath(log_opts_.path, 0); }

  OpLogOptions At(const std::string& name) const {
    OpLogOptions opts = log_opts_;
    opts.path = Path(name);
    return opts;
  }

  // Copies every file of the log at `from` (its log file and its epochs) to
  // the same names under `to`: the disk image a crash (or an attacker's
  // stash) leaves behind.
  void CopyLog(const std::string& from, const std::string& to) {
    const std::string prefix = std::filesystem::path(from).filename().string();
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) == 0) {
        std::filesystem::copy_file(entry.path(), to + name.substr(prefix.size()),
                                   std::filesystem::copy_options::overwrite_existing);
      }
    }
  }

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
      ASSERT_TRUE(log.AppendSet("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(log.Commit().ok());
    ASSERT_TRUE(log.AppendDelete("k3").ok());
    ASSERT_TRUE(log.Commit().ok());
    EXPECT_EQ(Commits(), 2u);
  }
  Store store(enclave_, StoreOptions());
  ASSERT_TRUE(OperationLog::Replay(sealer_, counters, log_opts_, store).ok());
  EXPECT_EQ(store.Size(), 9u);
  EXPECT_EQ(store.Get("k1").value(), "v1");
  EXPECT_EQ(store.Get("k3").status().code(), Code::kNotFound);
}

TEST_F(OpLogTest, StandaloneLogIsAOneShardWal) {
  sgx::MonotonicCounterService counters(counter_opts_);
  {
    OperationLog log(sealer_, counters, log_opts_);
    ASSERT_TRUE(log.Open().ok());
    ASSERT_TRUE(log.AppendSet("k", "v").ok());
    ASSERT_TRUE(log.Commit().ok());
    ASSERT_TRUE(log.Reset().ok());
    ASSERT_TRUE(log.AppendSet("k", "w").ok());
    ASSERT_TRUE(log.Commit().ok());
  }
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"counters.bin", "wal.log.epoch", "wal.log.p0"}));
  // The WAL's recovery reads it: one shard, named by the newest epoch.
  Result<Epoch> epoch = EpochLog::Recover(sealer_, counters, log_opts_.path);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(epoch->heads.size(), 1u);
  EXPECT_EQ(epoch->heads[0].sequence, 1u);
}

TEST_F(OpLogTest, UncommittedTailIsDiscarded) {
  sgx::MonotonicCounterService counters(counter_opts_);
  OperationLog log(sealer_, counters, log_opts_);
  ASSERT_TRUE(log.Open().ok());
  ASSERT_TRUE(log.AppendSet("committed", "yes").ok());
  ASSERT_TRUE(log.Commit().ok());
  ASSERT_TRUE(log.AppendSet("uncommitted", "lost").ok());
  std::fflush(nullptr);  // the record reaches the file, no commit names it
  CopyLog(log_opts_.path, Path("crashed.log"));
  Store store(enclave_, StoreOptions());
  ASSERT_TRUE(OperationLog::Replay(sealer_, counters, At("crashed.log"), store).ok());
  EXPECT_EQ(store.Get("committed").value(), "yes");
  EXPECT_EQ(store.Get("uncommitted").status().code(), Code::kNotFound);
}

// A record outside every committed group must never come back: reopening
// the crash image and committing more used to append after the orphan and
// so commit it too.
TEST_F(OpLogTest, ReopenAfterCrashNeverRevivesUncommittedRecord) {
  sgx::MonotonicCounterService counters(counter_opts_);
  OperationLog log(sealer_, counters, log_opts_);
  ASSERT_TRUE(log.Open().ok());
  ASSERT_TRUE(log.AppendSet("committed", "yes").ok());
  ASSERT_TRUE(log.Commit().ok());
  ASSERT_TRUE(log.AppendSet("zombie", "never acked").ok());
  std::fflush(nullptr);
  CopyLog(log_opts_.path, Path("crash.log"));
  {
    Store store(enclave_, StoreOptions());
    ASSERT_TRUE(OperationLog::Replay(sealer_, counters, At("crash.log"), store).ok());
    EXPECT_EQ(store.Get("zombie").status().code(), Code::kNotFound);
  }
  {
    OperationLog reopened(sealer_, counters, At("crash.log"));
    ASSERT_TRUE(reopened.Open().ok());
    ASSERT_TRUE(reopened.AppendSet("after", "restart").ok());
    ASSERT_TRUE(reopened.Commit().ok());
  }
  Store store(enclave_, StoreOptions());
  const Status replay = OperationLog::Replay(sealer_, counters, At("crash.log"), store);
  ASSERT_TRUE(replay.ok()) << replay.ToString();
  EXPECT_EQ(store.Get("committed").value(), "yes");
  EXPECT_EQ(store.Get("after").value(), "restart");
  EXPECT_EQ(store.Get("zombie").status().code(), Code::kNotFound);
}

// A crash mid-append leaves a torn record; the records committed after the
// restart must still replay (appending after the torn bytes used to make
// every later record fail authentication).
TEST_F(OpLogTest, TornTailIsDroppedOnReopen) {
  sgx::MonotonicCounterService counters(counter_opts_);
  OperationLog log(sealer_, counters, log_opts_);
  ASSERT_TRUE(log.Open().ok());
  ASSERT_TRUE(log.AppendSet("committed", "yes").ok());
  ASSERT_TRUE(log.Commit().ok());
  const uint64_t committed_bytes = log.log_bytes();
  ASSERT_TRUE(log.AppendSet("torn", std::string(64 << 10, 't')).ok());
  std::fflush(nullptr);
  CopyLog(log_opts_.path, Path("crash.log"));
  // Only the first half of the record made it to disk.
  std::filesystem::resize_file(EpochLog::ShardPath(Path("crash.log"), 0),
                               (committed_bytes + log.log_bytes()) / 2);
  {
    OperationLog reopened(sealer_, counters, At("crash.log"));
    ASSERT_TRUE(reopened.Open().ok());
    ASSERT_TRUE(reopened.AppendSet("after", "restart").ok());
    ASSERT_TRUE(reopened.Commit().ok());
  }
  Store store(enclave_, StoreOptions());
  const Status replay = OperationLog::Replay(sealer_, counters, At("crash.log"), store);
  ASSERT_TRUE(replay.ok()) << replay.ToString();
  EXPECT_EQ(store.Get("committed").value(), "yes");
  EXPECT_EQ(store.Get("after").value(), "restart");
  EXPECT_EQ(store.Get("torn").status().code(), Code::kNotFound);
}

TEST_F(OpLogTest, TamperedRecordDetected) {
  sgx::MonotonicCounterService counters(counter_opts_);
  {
    OperationLog log(sealer_, counters, log_opts_);
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(log.AppendSet("k" + std::to_string(i), "value").ok());
    }
    ASSERT_TRUE(log.Commit().ok());
  }
  // Flip a byte in the middle of the file.
  FILE* f = std::fopen(LogFile().c_str(), "rb+");
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
    OperationLog log(sealer_, counters, log_opts_);
    ASSERT_TRUE(log.Open().ok());
    ASSERT_TRUE(log.AppendSet("a", std::string(100, 'a')).ok());
    ASSERT_TRUE(log.AppendSet("b", std::string(100, 'b')).ok());
    ASSERT_TRUE(log.Commit().ok());
  }
  // Swap the two (equal-length) mutation frames wholesale.
  FILE* f = std::fopen(LogFile().c_str(), "rb+");
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
  ASSERT_TRUE(log.AppendSet("balance", "100").ok());
  ASSERT_TRUE(log.Commit().ok());
  // Attacker stashes the log, then lets it advance.
  CopyLog(log_opts_.path, Path("stale.log"));
  ASSERT_TRUE(log.AppendSet("balance", "0").ok());
  ASSERT_TRUE(log.Commit().ok());
  Store store(enclave_, StoreOptions());
  EXPECT_EQ(OperationLog::Replay(sealer_, counters, At("stale.log"), store).code(),
            Code::kRollbackDetected);
  // Putting back only the log file, behind the epoch that names it, is
  // caught the same way.
  std::filesystem::copy_file(EpochLog::ShardPath(Path("stale.log"), 0), LogFile(),
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_EQ(OperationLog::Replay(sealer_, counters, log_opts_, store).code(),
            Code::kRollbackDetected);
}

TEST_F(OpLogTest, ResetStartsFreshEpoch) {
  sgx::MonotonicCounterService counters(counter_opts_);
  OperationLog log(sealer_, counters, log_opts_);
  ASSERT_TRUE(log.Open().ok());
  ASSERT_TRUE(log.AppendSet("old", "state").ok());
  ASSERT_TRUE(log.Commit().ok());
  CopyLog(log_opts_.path, Path("pre-reset.log"));
  ASSERT_TRUE(log.Reset().ok());  // e.g. after a snapshot subsumed the log
  ASSERT_TRUE(log.AppendSet("new", "state").ok());
  ASSERT_TRUE(log.Commit().ok());
  {
    Store store(enclave_, StoreOptions());
    ASSERT_TRUE(OperationLog::Replay(sealer_, counters, log_opts_, store).ok());
    EXPECT_EQ(store.Get("new").value(), "state");
    EXPECT_EQ(store.Get("old").status().code(), Code::kNotFound);
  }
  // The pre-reset epoch no longer replays.
  Store store(enclave_, StoreOptions());
  EXPECT_EQ(OperationLog::Replay(sealer_, counters, At("pre-reset.log"), store).code(),
            Code::kRollbackDetected);
}

TEST_F(OpLogTest, GroupCommitAmortizesCounterBumps) {
  sgx::MonotonicCounterService counters(counter_opts_);
  OperationLog log(sealer_, counters, log_opts_);
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 320; ++i) {
    ASSERT_TRUE(log.AppendSet("k" + std::to_string(i), "v").ok());
    if (log.pending() == 32) {
      ASSERT_TRUE(log.Commit().ok());
    }
  }
  EXPECT_EQ(Commits(), 10u);  // 320 ops, one bump per 32
  uint32_t counter_id = 0;
  Result<Epoch> epoch = EpochLog::Recover(sealer_, counters, log_opts_.path, &counter_id);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(epoch->value, 10u);
  EXPECT_EQ(counters.Read(counter_id).value(), 10u);
}

TEST_F(OpLogTest, ReopenContinuesChain) {
  sgx::MonotonicCounterService counters(counter_opts_);
  {
    OperationLog log(sealer_, counters, log_opts_);
    ASSERT_TRUE(log.Open().ok());
    ASSERT_TRUE(log.AppendSet("first", "1").ok());
    ASSERT_TRUE(log.Commit().ok());
  }
  {
    OperationLog log(sealer_, counters, log_opts_);
    ASSERT_TRUE(log.Open().ok());  // recovers the epoch + resumes at its head
    ASSERT_TRUE(log.AppendSet("second", "2").ok());
    ASSERT_TRUE(log.Commit().ok());
  }
  Store store(enclave_, StoreOptions());
  ASSERT_TRUE(OperationLog::Replay(sealer_, counters, log_opts_, store).ok());
  EXPECT_EQ(store.Get("first").value(), "1");
  EXPECT_EQ(store.Get("second").value(), "2");
}

}  // namespace
}  // namespace shield::shieldstore
