// Sample statistics shared by the load generator and the span analysis:
// exact nearest-rank percentiles over raw samples (a failed request is an
// infinite sample, so it lands above every real latency), and self time of
// a span given its children.
#ifndef PERFBENCH_DRIVER_STATS_H_
#define PERFBENCH_DRIVER_STATS_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

// Nearest-rank percentile (the smallest sample with at least q of all
// samples at or below it), q in [0, 1]. Reorders `samples`. Returns NaN for
// an empty set.
double Percentile(std::vector<double>& samples, double q);

// Per-verb latency samples in nanoseconds. A failed or refused request is
// recorded as an infinite latency and counted as a failure.
struct VerbSamples {
  std::vector<double> ns;
  uint64_t ok = 0;
  uint64_t failed = 0;

  void Ok(double latency_ns) {
    ns.push_back(latency_ns);
    ++ok;
  }
  void Fail() {
    ns.push_back(kInfinity);
    ++failed;
  }
  void Merge(const VerbSamples& other);
  uint64_t count() const { return ok + failed; }
};

struct Interval {
  uint64_t start = 0;
  uint64_t end = 0;
};

// Length of `outer` covered by the union of `children`, each clipped to
// `outer`. Overlapping children are counted once.
uint64_t CoveredNs(const Interval& outer, std::vector<Interval> children);

// A span's self time: its duration minus the part its children cover.
inline uint64_t SelfNs(const Interval& outer, const std::vector<Interval>& children) {
  return (outer.end - outer.start) - CoveredNs(outer, children);
}

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_STATS_H_
