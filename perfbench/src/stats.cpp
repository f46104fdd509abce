#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile nearest_rank(std::vector<double> v, double q) {
  Percentile p;
  p.samples = static_cast<int>(v.size());
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  // 1-based rank ceil(q * n), clamped to [1, n]. The small epsilon keeps
  // q * n that is an integer in exact arithmetic (0.9 * 100) from
  // rounding up a rank.
  const double n = static_cast<double>(v.size());
  long rank = static_cast<long>(std::ceil(q * n - 1e-9));
  rank = std::clamp(rank, 1L, static_cast<long>(v.size()));
  p.value = v[static_cast<std::size_t>(rank - 1)];
  p.above = p.samples - static_cast<int>(rank);
  return p;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool op_ok(const OpOutcome& o) {
  return !o.threw && o.converged && o.checked_ok;
}

bool OpTally::add(const OpOutcome& o) {
  ++attempted;
  if (op_ok(o)) return true;
  ++failed;
  failures.push_back(o.what.empty() ? "unspecified failure" : o.what);
  return false;
}

void check_metrics(const MetricMap& m, const std::set<std::string>& may_be_zero,
                   OpTally& ops) {
  OpOutcome o;
  o.converged = true;
  for (const auto& [name, v] : m) {
    if (std::isfinite(v) && (v != 0 || may_be_zero.count(name))) continue;
    o.checked_ok = false;
    o.what += (o.what.empty() ? "metrics not finite or 0: " : ", ");
    o.what += name + " = " + std::to_string(v);
  }
  ops.add(o);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
