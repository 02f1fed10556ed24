// Kill -9 durability: a REAL server process (the shieldstore_server binary,
// durable-ack WAL mode, aggressive compaction) is SIGKILL'd mid-load with no
// chance to flush, then relaunched on the same --heal-dir. Every write the
// client saw acknowledged must read back exactly, and the shard logs on disk
// must have stayed bounded despite ~10x the compaction threshold flowing
// through them. This is the only test that exercises the true crash path —
// the in-process matrix (wal_sharding_test) can only simulate it.
#include <gtest/gtest.h>

#include <csignal>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/net/client.h"
#include "src/sgx/attestation.h"

#ifndef SHIELD_SERVER_BIN
#error "build must define SHIELD_SERVER_BIN (path to shieldstore_server)"
#endif

namespace shield {
namespace {

constexpr size_t kCompactBytes = 8 * 1024;
constexpr char kAuthoritySeed[] = "crash-ias";

struct ServerProc {
  pid_t pid = -1;
  int out = -1;  // read end of the child's stdout
  sgx::Measurement measurement{};
};

void KillServer(ServerProc* proc, int sig) {
  if (proc->pid > 0) {
    ::kill(proc->pid, sig);
    int status = 0;
    ::waitpid(proc->pid, &status, 0);
    proc->pid = -1;
  }
  if (proc->out >= 0) {
    ::close(proc->out);
    proc->out = -1;
  }
}

// Launches the daemon and blocks until it prints its measurement line
// (which it emits only after the listener is up). extra_args are appended to
// the command line; extra_env entries are set in the CHILD only, between
// fork and execv — this is how the arena crash matrix arms
// SHIELD_ARENA_CRASH without poisoning the test process's own environment.
bool StartServer(const std::string& heal_dir, uint16_t port, ServerProc* proc,
                 const std::vector<std::string>& extra_args = {},
                 const std::vector<std::pair<std::string, std::string>>& extra_env = {}) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return false;
  }
  const std::string port_s = std::to_string(port);
  const std::string compact_s = std::to_string(kCompactBytes);
  std::vector<const char*> argv = {
      SHIELD_SERVER_BIN, "--port", port_s.c_str(), "--partitions", "4",
      "--buckets", "4096", "--heal-dir", heal_dir.c_str(),
      "--scrub-interval-ms", "2", "--authority-seed", kAuthoritySeed,
      "--wal-window-us", "100", "--wal-group-ops", "8",
      "--wal-compact-bytes", compact_s.c_str()};
  for (const std::string& arg : extra_args) {
    argv.push_back(arg.c_str());
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return false;
  }
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    for (const auto& [name, value] : extra_env) {
      ::setenv(name.c_str(), value.c_str(), 1);
    }
    ::execv(SHIELD_SERVER_BIN, const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  ::close(pipe_fds[1]);
  proc->pid = pid;
  proc->out = pipe_fds[0];

  // Scan child stdout for "enclave measurement (give to clients): <hex>".
  std::string buffered;
  char chunk[256];
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::read(proc->out, chunk, sizeof(chunk));
    if (n <= 0) {
      KillServer(proc, SIGKILL);
      return false;
    }
    buffered.append(chunk, static_cast<size_t>(n));
    const size_t tag = buffered.find("clients): ");
    if (tag == std::string::npos) {
      continue;
    }
    const size_t hex_at = tag + strlen("clients): ");
    if (buffered.size() < hex_at + 64) {
      continue;
    }
    const Bytes digest = HexDecode(std::string_view(buffered).substr(hex_at, 64));
    if (digest.size() != proc->measurement.size()) {
      KillServer(proc, SIGKILL);
      return false;
    }
    std::memcpy(proc->measurement.data(), digest.data(), digest.size());
    // Put the pipe in non-blocking mode so the child never stalls on a full
    // pipe buffer while we stop reading it.
    ::fcntl(proc->out, F_SETFL, O_NONBLOCK);
    return true;
  }
  KillServer(proc, SIGKILL);
  return false;
}

TEST(WalCrashTest, Kill9MidLoadLosesNoAckedWriteAndLogsStayBounded) {
  const std::string dir =
      ::testing::TempDir() + "/wal_crash_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const uint16_t port = static_cast<uint16_t>(23000 + ::getpid() % 2000);
  const sgx::AttestationAuthority authority(AsBytes(kAuthoritySeed));

  ServerProc server;
  ASSERT_TRUE(StartServer(dir, port, &server)) << "daemon did not come up";

  // Durable-ack load: 1200 writes cycling 256 keys pushes ~10x the
  // compaction threshold through every shard while the maintenance thread
  // compacts behind it. Every third round goes out as one kBatch frame —
  // a batched ack is the same fsync'd promise as a singleton ack, recorded
  // per sub-op. Every ok() status is such a promise.
  std::map<std::string, std::string> acked;
  {
    net::Client client(authority, server.measurement);
    ASSERT_TRUE(client.Connect(port).ok());
    for (int i = 0; i < 1200;) {
      if (i % 3 == 0 && i + 8 <= 1200) {
        std::vector<net::Request> ops;
        for (int j = 0; j < 8; ++j) {
          ops.push_back({net::OpCode::kSet, "k" + std::to_string((i + j) % 256),
                         "v" + std::to_string(i + j) + std::string(200, 'x'), 0});
        }
        const Result<std::vector<net::Response>> results = client.ExecuteBatch(ops);
        if (results.ok()) {
          for (size_t j = 0; j < ops.size(); ++j) {
            if ((*results)[j].status == Code::kOk) {
              acked[ops[j].key] = ops[j].value;
            }
          }
        }
        i += 8;
      } else {
        const std::string key = "k" + std::to_string(i % 256);
        const std::string value = "v" + std::to_string(i) + std::string(200, 'x');
        if (client.Set(key, value).ok()) {
          acked[key] = value;
        }
        ++i;
      }
    }
    ASSERT_GE(acked.size(), 256u) << "load never got going";

    // SIGKILL with the connection still hot: no destructor, no flush, no
    // graceful anything runs in the server.
    ::kill(server.pid, SIGKILL);
    // Writes racing the kill may still be acked (fsync'd before death) —
    // keep recording until the socket dies.
    for (int i = 0; i < 200; ++i) {
      const std::string key = "late" + std::to_string(i);
      if (!client.Set(key, "after-kill").ok()) {
        break;
      }
      acked[key] = "after-kill";
    }
  }
  KillServer(&server, SIGKILL);  // reap

  // The compactor kept every shard log bounded: threshold + the burst a
  // shard can absorb between two of its round-robin turns, with sealing
  // slack — NOT proportional to the ~10x total bytes written.
  size_t shard_files = 0;
  for (size_t s = 0; s < 4; ++s) {
    const std::string shard_log = dir + "/wal.log.p" + std::to_string(s);
    if (!std::filesystem::exists(shard_log)) {
      continue;
    }
    ++shard_files;
    EXPECT_LT(std::filesystem::file_size(shard_log), 3 * kCompactBytes)
        << shard_log << " grew unboundedly";
  }
  EXPECT_EQ(shard_files, 4u);

  // Relaunch on the same heal-dir: restore = arenas + committed shard
  // logs. Zero acknowledged-write loss, byte for byte.
  ASSERT_TRUE(StartServer(dir, port, &server)) << "daemon did not restart";
  net::Client verify(authority, server.measurement);
  ASSERT_TRUE(verify.Connect(port).ok());
  for (const auto& [key, value] : acked) {
    const Result<std::string> got = verify.Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), value) << key;
  }
  verify.Close();
  KillServer(&server, SIGTERM);
  std::filesystem::remove_all(dir);
}

// Kill -9 under pipelined load: 4 sessions each keep 16 sets in flight
// (SendRequest, then the responses), so acks are released by the reactor as
// group commits publish, never by a blocked serving thread. Every key is
// written once, so each acknowledged set names exactly one expected value;
// after the restart each must read back byte for byte.
TEST(WalCrashTest, Kill9UnderPipelinedSessionsLosesNoAckedWrite) {
  const std::string dir =
      ::testing::TempDir() + "/wal_crash_pipe_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const uint16_t port = static_cast<uint16_t>(25000 + ::getpid() % 2000);
  const sgx::AttestationAuthority authority(AsBytes(kAuthoritySeed));

  ServerProc server;
  ASSERT_TRUE(StartServer(dir, port, &server)) << "daemon did not come up";
  constexpr int kSessions = 4;
  constexpr int kDepth = 16;
  std::vector<std::map<std::string, std::string>> acked(kSessions);
  std::atomic<bool> ramped{false};
  std::vector<std::thread> sessions;
  for (int t = 0; t < kSessions; ++t) {
    sessions.emplace_back([&, t] {
      net::Client client(authority, server.measurement);
      if (!client.Connect(port).ok()) {
        return;
      }
      for (int round = 0;; ++round) {
        std::vector<net::Request> sent;
        for (int i = 0; i < kDepth; ++i) {
          const std::string key =
              "s" + std::to_string(t) + "-" + std::to_string(round * kDepth + i);
          sent.push_back({net::OpCode::kSet, key, key + std::string(100, 'v'), 0});
          if (!client.SendRequest(sent.back()).ok()) {
            return;
          }
        }
        for (const net::Request& request : sent) {
          const Result<net::Response> r = client.ReceiveResponse();
          if (!r.ok()) {
            return;  // the daemon died
          }
          if (r->status == Code::kOk) {
            acked[t][request.key] = request.value;
          }
        }
        if (round == 8) {
          ramped.store(true);
        }
      }
    });
  }
  const auto ramp_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!ramped.load() && std::chrono::steady_clock::now() < ramp_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ::kill(server.pid, SIGKILL);  // mid-flight: held responses die with it
  for (std::thread& s : sessions) {
    s.join();
  }
  KillServer(&server, SIGKILL);  // reap
  size_t total = 0;
  for (const auto& per_session : acked) {
    total += per_session.size();
  }
  ASSERT_GE(total, static_cast<size_t>(kSessions * kDepth * 8)) << "load never got going";

  ASSERT_TRUE(StartServer(dir, port, &server)) << "daemon did not restart";
  net::Client verify(authority, server.measurement);
  ASSERT_TRUE(verify.Connect(port).ok());
  for (const auto& per_session : acked) {
    for (const auto& [key, value] : per_session) {
      const Result<std::string> got = verify.Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_EQ(got.value(), value) << key;
    }
  }
  verify.Close();
  KillServer(&server, SIGTERM);
  std::filesystem::remove_all(dir);
}

// Arena crash matrix against the REAL binary: for each arena commit crash
// point, (1) load acked writes into a --heal-dir server and
// SIGKILL it hot, (2) relaunch with SHIELD_ARENA_CRASH armed and load until
// a compaction's checkpoint dies by SIGKILL mid-commit at exactly that
// point, (3) relaunch clean and demand every acknowledged write back byte
// for byte. The arena file has now survived two unclean deaths — one
// arbitrary, one surgically placed inside the plan/commit protocol — and
// recovery must still land on a consistent slot plus the shard log.
TEST(WalCrashTest, PersistHeapKill9CrashMatrixLosesNoAckedWrite) {
  const sgx::AttestationAuthority authority(AsBytes(kAuthoritySeed));
  const char* const kPoints[] = {"plan", "apply", "precommit", "presync"};
  for (const char* point : kPoints) {
    SCOPED_TRACE(point);
    const std::string dir = ::testing::TempDir() + "/persist_crash_" + point + "_" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const uint16_t port = static_cast<uint16_t>(25000 + ::getpid() % 2000);
    const std::vector<std::string> persist_args = {"--persist-capacity-mb", "16"};

    // Run 1: durable-ack load. Values are big enough that the compactor's
    // arena checkpoints fire mid-load, so the kill lands on a file holding
    // BOTH committed state and a live WAL tail.
    ServerProc server;
    ASSERT_TRUE(StartServer(dir, port, &server, persist_args)) << "daemon did not come up";
    std::map<std::string, std::string> acked;
    {
      net::Client client(authority, server.measurement);
      ASSERT_TRUE(client.Connect(port).ok());
      for (int i = 0; i < 300; ++i) {
        const std::string key = "pk" + std::to_string(i % 128);
        const std::string value = "pv" + std::to_string(i) + "-" + point + std::string(120, 'y');
        if (client.Set(key, value).ok()) {
          acked[key] = value;
        }
      }
      ASSERT_GE(acked.size(), 128u) << "load never got going";
      ::kill(server.pid, SIGKILL);
    }
    KillServer(&server, SIGKILL);  // reap

    // Run 2: a compaction's checkpoint dies at the injected point. A boot
    // writes no baseline, so the daemon comes up (unless run 1's kill left a
    // cold copy for Start() to repair: that checkpoint dies instead) and
    // writes until a shard log outgrows kCompactBytes. Writes acked before
    // the SIGKILL count like any other; each key is written once, so one in
    // flight at the kill (durable or not) cannot shadow an acked value.
    if (StartServer(dir, port, &server, persist_args,
                    {{"SHIELD_ARENA_CRASH", point}, {"SHIELD_ARENA_CRASH_KILL", "1"}})) {
      net::Client client(authority, server.measurement);
      if (client.Connect(port).ok()) {
        for (int i = 0; i < 2000; ++i) {
          const std::string key = "run2-" + std::to_string(i);
          const std::string value = key + "-" + point + std::string(120, 'z');
          if (!client.Set(key, value).ok()) {
            break;  // the injected SIGKILL
          }
          acked[key] = value;
        }
      }
      int status = 0;
      pid_t reaped = 0;
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while ((reaped = ::waitpid(server.pid, &status, WNOHANG)) == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      EXPECT_TRUE(reaped == server.pid && WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
          << "injected " << point << " crash did not kill a compaction";
      if (reaped == server.pid) {
        server.pid = -1;
      }
      KillServer(&server, SIGKILL);  // closes the pipe; kills a survivor
    }

    // Run 3: clean relaunch. Fully-old-or-fully-new arena + WAL tail replay
    // must reproduce every acknowledged write.
    ASSERT_TRUE(StartServer(dir, port, &server, persist_args))
        << "daemon did not recover after " << point << " crash";
    net::Client verify(authority, server.measurement);
    ASSERT_TRUE(verify.Connect(port).ok());
    for (const auto& [key, value] : acked) {
      const Result<std::string> got = verify.Get(key);
      ASSERT_TRUE(got.ok()) << key << " lost after " << point << ": " << got.status().ToString();
      EXPECT_EQ(got.value(), value) << key;
    }
    verify.Close();
    KillServer(&server, SIGTERM);
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace shield
