// Sample statistics and op accounting for the benchmark.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

// A run's metrics by name. Units live in BENCHMARK.json only.
using MetricMap = std::map<std::string, double>;

// Nearest-rank percentile of a sample set. `above` is the number of
// samples ranked beyond the reported one: a percentile is only worth
// reporting when at least ten samples lie above it.
struct Percentile {
  double value = 0;
  int samples = 0;
  int above = 0;
};

// q in (0, 1]; an empty set gives {0, 0, 0}.
Percentile nearest_rank(std::vector<double> v, double q);

// Median with the midpoint rule for even counts (Python's
// statistics.median); 0 for an empty set.
double median(std::vector<double> v);

// One benchmark operation (a solve or a service job). It fails when it
// threw, did not converge, or failed a correctness check.
struct OpOutcome {
  bool threw = false;
  bool converged = false;
  bool checked_ok = true;
  std::string what;  // failure reason, empty on success
};

bool op_ok(const OpOutcome& o);

struct OpTally {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  // Counts the op; returns whether it succeeded.
  bool add(const OpOutcome& o);
};

// One op that fails unless every metric of the run is finite and
// nonzero, apart from those named in `may_be_zero` (a layer the workload
// leaves idle, or a count that is legitimately 0 such as dropped trace
// events). A solver counter that was renamed, or a key misspelled here,
// then shows as a failure instead of a plausible 0.
void check_metrics(const MetricMap& m, const std::set<std::string>& may_be_zero,
                   OpTally& ops);

// Peak resident set size of this process, MiB.
double peak_rss_mb();

}  // namespace perfbench
