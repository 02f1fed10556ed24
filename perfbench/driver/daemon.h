// Spawning and observing the real shieldstore_server process.
#ifndef PERFBENCH_DRIVER_DAEMON_H_
#define PERFBENCH_DRIVER_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sgx/enclave.h"

namespace perfbench {

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Starts `binary args...` with stdout and stderr in `log_path`, and waits
  // (up to `timeout_ms`) until it reports its port and enclave measurement.
  // The child is killed if this process dies.
  shield::Status Start(const std::string& binary, const std::vector<std::string>& args,
                       const std::string& log_path, int timeout_ms);
  // SIGTERM, then SIGKILL after a grace period; always reaps the child.
  void Stop();
  // SIGKILL without waiting for a clean shutdown (test hook).
  void Kill();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  const shield::sgx::Measurement& measurement() const { return measurement_; }

  // user + system CPU time consumed so far, in nanoseconds.
  uint64_t CpuNs() const;
  // Peak resident set (VmHWM) in KiB; 0 if unreadable.
  uint64_t PeakRssKb() const;

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  shield::sgx::Measurement measurement_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_DAEMON_H_
