#include "driver/daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/common/bytes.h"

namespace perfbench {

using shield::Code;
using shield::Status;

namespace {

bool WaitExit(pid_t pid, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    int wstatus = 0;
    const pid_t r = waitpid(pid, &wstatus, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

}  // namespace

Status Daemon::Start(const std::string& binary, const std::vector<std::string>& args,
                     const std::string& log_path, int timeout_ms) {
  Stop();
  const int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return Status(Code::kIoError, "cannot create " + log_path);
  }
  std::vector<std::string> argv_store;
  argv_store.push_back(binary);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(log_fd);
    return Status(Code::kIoError, "fork failed");
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) {
      _exit(127);
    }
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(log_fd);
  pid_ = pid;

  // The daemon flushes its banner once it is listening.
  const std::string port_tag = "listening on 127.0.0.1:";
  const std::string measurement_tag = "enclave measurement (give to clients): ";
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    int wstatus = 0;
    if (waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      pid_ = -1;
      return Status(Code::kIoError, "daemon exited during start-up; see " + log_path);
    }
    std::ifstream in(log_path);
    std::stringstream text;
    text << in.rdbuf();
    const std::string log = text.str();
    const size_t p = log.find(port_tag);
    const size_t m = log.find(measurement_tag);
    if (p != std::string::npos && m != std::string::npos) {
      const size_t m_end = log.find('\n', m);
      if (m_end != std::string::npos) {
        port_ = static_cast<uint16_t>(std::atoi(log.c_str() + p + port_tag.size()));
        const shield::Bytes hex = shield::HexDecode(
            log.substr(m + measurement_tag.size(), m_end - m - measurement_tag.size()));
        if (hex.size() != measurement_.size() || port_ == 0) {
          Stop();
          return Status(Code::kProtocolError, "unreadable daemon banner in " + log_path);
        }
        std::memcpy(measurement_.data(), hex.data(), hex.size());
        return Status::Ok();
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Stop();
  return Status(Code::kIoError, "daemon did not come up; see " + log_path);
}

void Daemon::Stop() {
  if (pid_ <= 0) {
    return;
  }
  kill(pid_, SIGTERM);
  if (!WaitExit(pid_, 10000)) {
    kill(pid_, SIGKILL);
    WaitExit(pid_, 10000);
  }
  pid_ = -1;
}

void Daemon::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
  }
}

uint64_t Daemon::CpuNs() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) {
    return 0;
  }
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  uint64_t utime = 0;
  uint64_t stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) {
      utime = std::stoull(field);
    } else if (i == 15) {
      stime = std::stoull(field);
    }
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return (utime + stime) * 1'000'000'000ull / static_cast<uint64_t>(ticks > 0 ? ticks : 100);
}

uint64_t Daemon::PeakRssKb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6));
    }
  }
  return 0;
}

}  // namespace perfbench
