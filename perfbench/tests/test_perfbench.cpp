// Self-tests of the benchmark's own arithmetic: percentiles with their
// sample counts, span self time on nested synthetic spans, and the
// counting of failed ops, including metrics that read 0 or not finite.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankReportsSamplesAbove) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const Percentile p90 = nearest_rank(v, 0.9);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.samples, 100);
  EXPECT_EQ(p90.above, 10);
  const Percentile p50 = nearest_rank(v, 0.5);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.above, 50);
  const Percentile max = nearest_rank(v, 1.0);
  EXPECT_EQ(max.value, 100.0);
  EXPECT_EQ(max.above, 0);
}

TEST(Percentile, SmallAndEmptySets) {
  const Percentile one = nearest_rank({3.5}, 0.9);
  EXPECT_EQ(one.value, 3.5);
  EXPECT_EQ(one.samples, 1);
  EXPECT_EQ(one.above, 0);
  // 11 samples: rank ceil(9.9) = 10, one sample above.
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(i);
  EXPECT_EQ(nearest_rank(v, 0.9).value, 10.0);
  EXPECT_EQ(nearest_rank(v, 0.9).above, 1);
  const Percentile none = nearest_rank({}, 0.9);
  EXPECT_EQ(none.samples, 0);
  EXPECT_EQ(none.value, 0.0);
}

TEST(Median, MidpointForEvenCounts) {
  EXPECT_EQ(median({4, 1, 3}), 3.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

Span span(int lane, const char* name, std::uint64_t t0, std::uint64_t t1) {
  Span s;
  s.lane = lane;
  s.name = name;
  s.t0 = t0;
  s.t1 = t1;
  return s;
}

TEST(Spans, SelfTimeOfNestedSpans) {
  // Lane 0, in RAII emission order (children close first):
  //   iter [0,100) > phase [10,60) > task [20,30), task [40,55)
  //                > phase [70,90)
  // Lane 1 holds an unrelated span covering the same interval.
  const std::vector<Span> spans = {
      span(0, "task", 20, 30),  span(0, "task", 40, 55),
      span(0, "phase", 10, 60), span(0, "phase", 70, 90),
      span(0, "iter", 0, 100),  span(1, "task", 0, 100),
  };
  const std::vector<double> self = self_times_us(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 10.0);
  EXPECT_EQ(self[1], 15.0);
  EXPECT_EQ(self[2], 50.0 - 25.0);
  EXPECT_EQ(self[3], 20.0);
  EXPECT_EQ(self[4], 100.0 - 50.0 - 20.0);
  EXPECT_EQ(self[5], 100.0);  // another lane's spans are not children

  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("task").count, 3);
  EXPECT_DOUBLE_EQ(totals.at("task").inclusive_s, 125e-6);
  EXPECT_DOUBLE_EQ(totals.at("iter").self_s, 30e-6);
}

TEST(Spans, NestedSameNameSpansDoNotDoubleCount) {
  // A pool task that runs a nested batch on its own lane: raw sums count
  // [10,20) twice; self times and the lane union do not.
  const std::vector<Span> spans = {span(0, "pool.task", 10, 20),
                                   span(0, "pool.task", 0, 40)};
  const std::vector<double> self = self_times_us(spans);
  EXPECT_EQ(self[0] + self[1], 40.0);
  EXPECT_EQ(union_us({{10, 20}, {0, 40}}), 40.0);
}

TEST(Spans, OverlappingSiblingsCoverTheirUnion) {
  // Node spans reconstructed on the graph thread's lane overlap each
  // other; the enclosing iteration's coverage is their union, not their
  // sum.
  const std::vector<Span> spans = {
      span(0, "node", 1, 50), span(0, "node", 10, 60),
      span(0, "node", 55, 90), span(0, "iter", 0, 100)};
  const std::vector<double> self = self_times_us(spans);
  EXPECT_EQ(self[3], 100.0 - 89.0);
}

TEST(Spans, IdenticalIntervalsNestByEmissionOrder) {
  // Both spans round to the same microseconds; the one emitted later
  // closed later, so it is the parent.
  const std::vector<Span> spans = {span(0, "inner", 5, 9),
                                   span(0, "outer", 5, 9)};
  const std::vector<double> self = self_times_us(spans);
  EXPECT_EQ(self[0], 4.0);
  EXPECT_EQ(self[1], 0.0);
}

TEST(Spans, CollectsRecorderLanes) {
  ls3df::TraceRecorder rec(16);
  rec.emit("a", ls3df::TraceCat::kMark, 1, 5, 7);
  const std::vector<Span> spans = collect_spans(rec);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "a");
  EXPECT_EQ(spans[0].t1 - spans[0].t0, 4u);
  EXPECT_EQ(spans[0].arg, 7u);
}

TEST(OpTally, CountsEveryKindOfFailure) {
  OpTally t;
  OpOutcome ok;
  ok.converged = true;
  EXPECT_TRUE(t.add(ok));

  OpOutcome threw;
  threw.threw = true;
  threw.converged = true;
  threw.what = "boom";
  EXPECT_FALSE(t.add(threw));

  OpOutcome unconverged;  // converged defaults to false
  EXPECT_FALSE(t.add(unconverged));

  OpOutcome wrong;
  wrong.converged = true;
  wrong.checked_ok = false;
  EXPECT_FALSE(t.add(wrong));

  EXPECT_EQ(t.attempted, 4);
  EXPECT_EQ(t.failed, 3);
  ASSERT_EQ(t.failures.size(), 3u);
  EXPECT_EQ(t.failures[0], "boom");
  EXPECT_EQ(t.failures[1], "unspecified failure");
}

TEST(OpTally, MetricCheckFailsOnZeroOrNonFinite) {
  OpTally t;
  check_metrics({{"a", 1.5}, {"idle", 0.0}}, {"idle"}, t);
  EXPECT_EQ(t.attempted, 1);
  EXPECT_EQ(t.failed, 0);

  // A key nobody wrote reads 0 unless it is allowed to.
  check_metrics({{"a", 1.5}, {"renamed", 0.0}}, {"idle"}, t);
  EXPECT_EQ(t.failed, 1);
  EXPECT_NE(t.failures.back().find("renamed"), std::string::npos);

  check_metrics({{"idle", std::nan("")}}, {"idle"}, t);
  check_metrics({{"b", HUGE_VAL}}, {}, t);
  EXPECT_EQ(t.attempted, 4);
  EXPECT_EQ(t.failed, 3);
}

}  // namespace
}  // namespace perfbench
