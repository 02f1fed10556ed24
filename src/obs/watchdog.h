// SLO watchdog: evaluates service-level thresholds over metrics-snapshot
// deltas on every maintenance tick and turns silent degradation into
// first-class events — an `slo.breaches` counter, an `slo.ok` gauge, and a
// kSloBreach record in the hash-chained audit log naming the metric and the
// observed value.
//
// Watched signals (all interval deltas, not lifetime aggregates):
//   - per-stage enclave-boundary p99 (stage.* histograms)
//   - end-to-end op p99 (net.latency.* histograms)
//   - reactor loop lag p99 (net.reactor_loop_lag)
//   - replication backlog (repl.backlog_entries gauge, point-in-time)
//   - scrub/heal violations (any new heal.violations_detected breaches)
#ifndef SHIELDSTORE_SRC_OBS_WATCHDOG_H_
#define SHIELDSTORE_SRC_OBS_WATCHDOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"

namespace shield::obs {

struct SloThresholds {
  // p99 ceiling for any stage.* histogram over the evaluation interval.
  uint64_t stage_p99_ns = 50'000'000;
  // p99 ceiling for net.latency.* (whole-op server-side latency).
  uint64_t op_p99_ns = 200'000'000;
  // p99 ceiling for a single reactor loop iteration.
  uint64_t loop_lag_p99_ns = 200'000'000;
  // Max tolerated replication backlog (entries not yet shipped).
  int64_t repl_backlog_entries = 65536;
};

struct SloBreach {
  std::string metric;
  uint64_t observed = 0;
  uint64_t threshold = 0;
};

class SloWatchdog {
 public:
  explicit SloWatchdog(const SloThresholds& thresholds,
                       Registry* registry = nullptr);

  // Evaluates the delta between `now` and the snapshot from the previous
  // call (the first call only baselines). Emits counters + audit events and
  // returns the breaches found this interval.
  std::vector<SloBreach> Evaluate(const MetricsSnapshot& now);

  const SloThresholds& thresholds() const { return thresholds_; }

 private:
  SloThresholds thresholds_;
  Counter* evals_;
  Counter* breaches_;
  Gauge* ok_;
  MetricsSnapshot last_;
  bool has_last_ = false;
};

}  // namespace shield::obs

#endif  // SHIELDSTORE_SRC_OBS_WATCHDOG_H_
