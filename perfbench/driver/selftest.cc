// Unit checks of the benchmark's own arithmetic: percentiles and self time
// against brute-force oracles, failure accounting, span attribution, and
// the value codec the correctness checks rely on. Exits 1 on any failure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "driver/json.h"
#include "driver/loadgen.h"
#include "driver/stats.h"
#include "driver/trace.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what);
  }
}

// Oracle: sort, then take the ceil(q * n)-th smallest (1-based, at least 1).
double SortedOracle(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::max<size_t>(rank, 1);
  return v[std::min(rank, v.size()) - 1];
}

void PercentileMatchesOracle() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  std::vector<double> v = hundred;
  Check(Percentile(v, 0.50) == 50, "p50 of 1..100 is 50");
  v = hundred;
  Check(Percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
  v = hundred;
  Check(Percentile(v, 1.0) == 100, "p100 of 1..100 is 100");
  v = hundred;
  Check(Percentile(v, 0.0) == 1, "p0 of 1..100 is 1");
  std::vector<double> empty;
  Check(std::isnan(Percentile(empty, 0.5)), "empty set has no percentile");

  shield::Xoshiro256 rng(42);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t n = 1 + rng.NextBelow(300);
    std::vector<double> s;
    for (size_t i = 0; i < n; ++i) {
      s.push_back(static_cast<double>(rng.NextBelow(50)));  // many ties
    }
    for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      std::vector<double> copy = s;
      if (Percentile(copy, q) != SortedOracle(s, q)) {
        Check(false, "random percentile differs from the sorted oracle");
        return;
      }
    }
  }
}

void FailedRequestIsInfiniteAndCounted() {
  VerbSamples v;
  for (int i = 1; i <= 10; ++i) {
    v.Ok(i * 1000.0);
  }
  v.Fail();
  Check(v.count() == 11 && v.ok == 10 && v.failed == 1, "a failure is counted as attempted");
  std::vector<double> ns = v.ns;
  Check(std::isinf(Percentile(ns, 0.99)), "a failure is an infinite latency at p99 of 11");
  ns = v.ns;
  Check(Percentile(ns, 0.5) == 6000.0, "a failure shifts the median up by one rank");

  VerbSamples merged;
  merged.Merge(v);
  merged.Merge(v);
  Check(merged.failed == 2 && merged.ns.size() == 22, "merge keeps failures");

  JsonWriter j;
  j.BeginObject().Key("p99").Num(kInfinity).EndObject();
  Check(j.str() == "{\"p99\":null}", "infinite latency is written as null");
}

void GroupedPercentileIsMedianOfGroups() {
  auto slice = [](std::initializer_list<double> gets) {
    WindowSlice s;
    for (const double g : gets) {
      s.get.Ok(g);
    }
    return s;
  };
  // Groups of >= 3 samples: {1,2,3} {10,11,12} {20,21,22}, and the short
  // remainder {30} joins the last: {20,21,22,30}.
  const std::vector<WindowSlice> slices = {slice({1, 2}), slice({3}), slice({10, 11, 12}),
                                           slice({20, 21, 22}), slice({30})};
  Check(GroupedPercentile(slices, true, 0.5, 3) == 11, "median of group medians 2, 11, 21");
  Check(GroupedPercentile(slices, true, 1.0, 3) == 12, "median of group maxima 3, 12, 30");
  Check(GroupedPercentile(slices, true, 0.5, 100) == 11, "one group when samples are few");
  Check(std::isnan(GroupedPercentile(slices, false, 0.5, 3)), "no samples, no percentile");
}

void SelfTimeMatchesOracle() {
  Check(CoveredNs({0, 100}, {}) == 0, "no children cover nothing");
  Check(SelfNs({0, 100}, {{10, 20}, {15, 30}, {50, 60}}) == 70, "overlapping children count once");
  Check(SelfNs({0, 100}, {{90, 150}}) == 90, "children are clipped to the parent");

  shield::Xoshiro256 rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const Interval outer{100 + rng.NextBelow(100), 700 + rng.NextBelow(200)};
    std::vector<Interval> children;
    const size_t n = rng.NextBelow(8);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t a = rng.NextBelow(1000);
      const uint64_t b = a + rng.NextBelow(300);
      children.push_back({a, b});
    }
    std::vector<bool> covered(1200, false);
    for (const Interval& c : children) {
      for (uint64_t t = c.start; t < c.end; ++t) {
        covered[t] = true;
      }
    }
    uint64_t oracle = 0;
    for (uint64_t t = outer.start; t < outer.end; ++t) {
      oracle += covered[t] ? 1 : 0;
    }
    if (CoveredNs(outer, children) != oracle) {
      Check(false, "covered time differs from the point-count oracle");
      return;
    }
  }
}

void AttributionSumsUp() {
  // One durable set and one get, each served by its own store call: the
  // request's time splits into net self, WAL self and store time exactly.
  std::vector<RequestSpan> requests = {
      {1, 0, 1000, 7, 9, 0, /*get=*/false, /*ok=*/true},
      {2, 0, 500, 8, 0, 0, /*get=*/true, /*ok=*/true},
  };
  ServerSpans server;
  server.ops = {{7, 9, false}, {8, 0, true}};
  server.calls = {{11, 100, 900, 0, 1, 1, 1}, {12, 200, 300, 1, 1, 0, 1}};
  server.children = {{11, 150, 250, 1}, {11, 400, 450, 1}, {12, 200, 300, 1}};
  const TraceAnalysis a = Analyze(requests, server, /*durable=*/true);
  Check(a.set.matched == 1 && a.get.matched == 1, "both requests tie to their store call");
  Check(a.set.net_self_us_p50 == 0.2, "set net self = 1000 - 800 ns");
  Check(a.set.store_us_p50 == 0.15, "set store time = two children, 150 ns");
  Check(a.set.wal_self_us_p50 == 0.65, "set WAL self = 800 - 150 ns");
  Check(std::fabs(a.set.unattributed_us) < 1e-12, "single-request attribution has no residual");
  Check(a.get.net_self_us_p50 == 0.4 && a.get.store_us_p50 == 0.1, "get splits 400 + 100 ns");
  Check(a.wal_calls == 1 && a.wal_call_us_p50 == 0.8, "only the mutating call is a WAL call");

  // A get whose key matches a call outside its interval stays unmatched.
  requests = {{3, 1000, 1100, 8, 0, 0, true, true}};
  Check(Analyze(requests, server, true).get.matched == 0, "a get never ties to a call outside it");
}

void ValueCodecRejectsTampering() {
  uint64_t index = 0;
  Check(ParseKey(KeyFor(123456), &index) && index == 123456, "key round-trips");
  Check(!ParseKey("x000000000000001", &index), "foreign key format is rejected");
  const std::string v = ValueFor(42, 17, 32);
  uint64_t version = 0;
  Check(ParseValue(v, 42, 32, &version) && version == 17, "value round-trips");
  Check(!ParseValue(v, 43, 32, &version), "a value of another key is rejected");
  std::string flipped = v;
  flipped[31] ^= 1;
  Check(!ParseValue(flipped, 42, 32, &version), "a damaged value is rejected");
  Check(!ParseValue(v.substr(0, 31), 42, 32, &version), "a short value is rejected");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileMatchesOracle();
  perfbench::FailedRequestIsInfiniteAndCounted();
  perfbench::GroupedPercentileIsMedianOfGroups();
  perfbench::SelfTimeMatchesOracle();
  perfbench::AttributionSumsUp();
  perfbench::ValueCodecRejectsTampering();
  if (perfbench::g_failures == 0) {
    std::printf("perfbench selftest: all checks passed\n");
  }
  return perfbench::g_failures == 0 ? 0 : 1;
}
