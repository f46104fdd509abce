// Span arithmetic over TraceRecorder lanes.
//
// A span's self time is its duration minus the part of its interval
// covered by its child spans. The parent of a span is the innermost
// span on the same lane whose interval contains it; when two spans have
// the same interval, the one that closed later (a RAII span closes after
// everything nested inside it) is the parent. Siblings may overlap (the
// TaskGraph node spans the solver reconstructs on the graph thread's lane
// do), so coverage is the union of the children's intervals, never their
// sum. That is also why raw sums of nested spans (pool.task inside
// pool.task) double count and lane busy time is a union.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ls3df {
class TraceRecorder;
}

namespace perfbench {

struct Span {
  int lane = 0;
  std::string name;
  int cat = 0;           // ls3df::TraceCat
  std::uint64_t t0 = 0;  // µs
  std::uint64_t t1 = 0;  // µs, >= t0
  std::uint64_t arg = 0;
};

// Every retained span of a recorder, in per-lane emission order.
std::vector<Span> collect_spans(const ls3df::TraceRecorder& rec);

// Self time (µs) of every span, index-aligned with `spans`. Spans must
// be in per-lane emission order (as collect_spans returns them).
std::vector<double> self_times_us(const std::vector<Span>& spans);

// Length of the union of [t0, t1) intervals (µs).
double union_us(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv);

struct SpanTotals {
  long count = 0;
  double inclusive_s = 0;
  double self_s = 0;
};

// Per-name totals across lanes.
std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

}  // namespace perfbench
