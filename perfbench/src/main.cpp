// perfbench: the repository benchmark executable.
//
//   perfbench --workload <alloy|spmd_chain|service> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where metrics maps each metric's name to its value (null when not
// finite); perfbench/run.py adds the units from BENCHMARK.json. With
// --trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with --trace 1 they are the per-layer ones, from a separate
// traced run. Exits 1 when any op failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<alloy|spmd_chain|service> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>]\n",
               msg);
  std::exit(2);
}

perfbench::RunArgs parse(int argc, char** argv) {
  perfbench::RunArgs a;
  a.workdir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload")
        a.workload = val;
      else if (key == "--seed")
        a.seed = std::stoull(val);
      else if (key == "--seconds")
        a.seconds = std::stod(val);
      else if (key == "--trace")
        a.trace = std::stoi(val) != 0;
      else if (key == "--workdir")
        a.workdir = val;
      else
        usage(("unknown argument " + key).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunArgs args = parse(argc, argv);
  perfbench::RunOutput out;
  try {
    out = perfbench::run_workload(args);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    // Any failure outside an op's own accounting is one more failed op.
    perfbench::OpOutcome o;
    o.threw = true;
    o.what = e.what();
    out.ops.add(o);
  }
  for (const std::string& f : out.ops.failures)
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());

  const bool ok = out.ops.failed == 0 && out.ops.attempted > 0;
  std::string json = "{\"correct\": ";
  json += ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.ops.attempted);
  json += ", \"failed\": " + std::to_string(out.ops.failed);
  json += ", \"metrics\": {";
  for (const auto& [name, v] : out.metrics) {
    char num[64] = "null";
    if (std::isfinite(v)) std::snprintf(num, sizeof num, "%.17g", v);
    if (json.back() != '{') json += ", ";
    json += "\"" + name + "\": " + num;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return ok ? 0 : 1;
}
