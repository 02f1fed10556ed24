#include "src/obs/watchdog.h"

#include <cstdio>

#include "src/obs/audit.h"

namespace shield::obs {
namespace {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

}  // namespace

SloWatchdog::SloWatchdog(const SloThresholds& thresholds, Registry* registry)
    : thresholds_(thresholds) {
  Registry& reg = registry != nullptr ? *registry : Registry::Global();
  evals_ = &reg.GetCounter("slo.evals");
  breaches_ = &reg.GetCounter("slo.breaches");
  ok_ = &reg.GetGauge("slo.ok");
  ok_->Set(1);
}

std::vector<SloBreach> SloWatchdog::Evaluate(const MetricsSnapshot& now) {
  evals_->Inc();
  std::vector<SloBreach> breaches;
  if (!has_last_) {
    last_ = now;
    has_last_ = true;
    return breaches;
  }
  const MetricsSnapshot delta = Delta(last_, now);
  last_ = now;

  auto check_p99 = [&](const Metric& m, uint64_t threshold) {
    if (m.histogram.count == 0) return;
    const uint64_t p99 = static_cast<uint64_t>(m.histogram.Quantile(0.99));
    if (p99 > threshold) {
      breaches.push_back({m.name + ".p99", p99, threshold});
    }
  };

  for (const Metric& m : delta.metrics) {
    if (m.type != MetricType::kHistogram) continue;
    if (StartsWith(m.name, "stage.")) {
      check_p99(m, thresholds_.stage_p99_ns);
    } else if (StartsWith(m.name, "net.latency.")) {
      check_p99(m, thresholds_.op_p99_ns);
    } else if (m.name == "net.reactor_loop_lag") {
      check_p99(m, thresholds_.loop_lag_p99_ns);
    }
  }

  const int64_t backlog = now.GaugeValue("repl.backlog_entries", 0);
  if (backlog > thresholds_.repl_backlog_entries) {
    breaches.push_back({"repl.backlog_entries", static_cast<uint64_t>(backlog),
                        static_cast<uint64_t>(thresholds_.repl_backlog_entries)});
  }

  const uint64_t violations = delta.CounterValue("heal.violations_detected", 0);
  // Any interval with a new heal violation breaches.
  constexpr uint64_t kScrubViolations = 1;
  if (violations >= kScrubViolations) {
    breaches.push_back({"heal.violations_detected", violations, kScrubViolations});
  }

  ok_->Set(breaches.empty() ? 1 : 0);
  if (!breaches.empty()) {
    breaches_->Inc(breaches.size());
    for (const SloBreach& b : breaches) {
      char detail[320];
      snprintf(detail, sizeof(detail), "%s observed=%llu threshold=%llu",
               b.metric.c_str(),
               static_cast<unsigned long long>(b.observed),
               static_cast<unsigned long long>(b.threshold));
      AuditEvent(AuditType::kSloBreach, detail);
    }
  }
  return breaches;
}

}  // namespace shield::obs
