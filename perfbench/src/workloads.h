// The benchmark's three workloads. Each run either measures the
// end-to-end metrics (trace off) or, in a separate run, the per-layer
// metrics (trace on). Both check every output they produce.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "probes.h"
#include "stats.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // scratch space for checkpoints (service)
};

struct RunOutput {
  MetricMap metrics;
  std::set<std::string> may_be_zero;  // see check_metrics()
  OpTally ops;
};

// Runs one workload. Its last op is check_metrics() over the metrics it
// reports. Throws std::invalid_argument for an unknown workload name.
RunOutput run_workload(const RunArgs& args);

}  // namespace perfbench
