#include "driver/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  q = std::clamp(q, 0.0, 1.0);
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

void VerbSamples::Merge(const VerbSamples& other) {
  ns.insert(ns.end(), other.ns.begin(), other.ns.end());
  ok += other.ok;
  failed += other.failed;
}

uint64_t CoveredNs(const Interval& outer, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::clamp(c.start, outer.start, outer.end);
    c.end = std::clamp(c.end, outer.start, outer.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  uint64_t covered = 0;
  uint64_t reach = outer.start;  // end of the union built so far
  for (const Interval& c : children) {
    const uint64_t from = std::max(c.start, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return covered;
}

}  // namespace perfbench
