// Cycle counting and calibrated busy-waits.
//
// The SGX simulation charges costs expressed in CPU cycles (the unit the
// literature reports: ~8000 cycles per enclave crossing, etc.). This module
// reads the timestamp counter where available and calibrates it against the
// steady clock once at startup, so SpinCycles(n) burns approximately n cycles
// of wall time on any host.
#ifndef SHIELDSTORE_SRC_COMMON_CYCLES_H_
#define SHIELDSTORE_SRC_COMMON_CYCLES_H_

#include <cstddef>
#include <cstdint>

namespace shield {

// Current timestamp-counter value (rdtsc on x86, cntvct on aarch64, a
// steady_clock-derived value elsewhere). Monotonic within a thread.
uint64_t ReadCycleCounter();

// Calibrated counter ticks per nanosecond. Computed once, thread-safe.
double CyclesPerNanosecond();

// Busy-waits for approximately `cycles` timestamp-counter ticks. Used by the
// SGX simulation to charge enclave-crossing and residency costs. A no-op for
// cycles == 0.
void SpinCycles(uint64_t cycles);

// Converts a cycle count to nanoseconds using the calibration.
double CyclesToNanoseconds(uint64_t cycles);

// SIMULATED MULTICORE (see bench/harness.h): charges the queueing delay of
// (contenders - 1) simulated contenders for the time a lock was held. Must be
// constructed AFTER acquiring the lock: only lock-held service time queues
// n-fold; real waits (e.g. behind a maintenance thread) are already paid.
// contenders <= 1 is off.
class ContentionScope {
 public:
  explicit ContentionScope(size_t contenders)
      : contenders_(contenders), start_(contenders > 1 ? ReadCycleCounter() : 0) {}
  ~ContentionScope() {
    if (contenders_ > 1) {
      SpinCycles((ReadCycleCounter() - start_) * (contenders_ - 1));
    }
  }
  ContentionScope(const ContentionScope&) = delete;
  ContentionScope& operator=(const ContentionScope&) = delete;

 private:
  size_t contenders_;
  uint64_t start_;
};

}  // namespace shield

#endif  // SHIELDSTORE_SRC_COMMON_CYCLES_H_
