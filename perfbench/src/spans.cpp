#include "spans.h"

#include <algorithm>
#include <numeric>

#include "obs/trace.h"

namespace perfbench {

std::vector<Span> collect_spans(const ls3df::TraceRecorder& rec) {
  std::vector<Span> out;
  for (int lane = 0; lane < rec.lane_count(); ++lane)
    for (const ls3df::TraceEvent& ev : rec.lane_events(lane))
      out.push_back({lane, ev.name ? ev.name : "", ev.cat, ev.t0_us,
                     std::max(ev.t0_us, ev.t1_us), ev.arg});
  return out;
}

double union_us(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  std::uint64_t lo = 0, hi = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (open && a <= hi) {
      hi = std::max(hi, b);
      continue;
    }
    if (open) total += static_cast<double>(hi - lo);
    lo = a;
    hi = b;
    open = true;
  }
  if (open) total += static_cast<double>(hi - lo);
  return total;
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  const std::size_t n = spans.size();
  // Visit order: by lane, then start ascending, then end descending, and
  // for identical intervals the later-emitted (enclosing) span first.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.lane != y.lane) return x.lane < y.lane;
    if (x.t0 != y.t0) return x.t0 < y.t0;
    if (x.t1 != y.t1) return x.t1 > y.t1;
    return a > b;
  });
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(n);
  std::vector<std::size_t> stack;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = order[k];
    const Span& s = spans[i];
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      if (top.lane == s.lane && top.t0 <= s.t0 && s.t1 <= top.t1) break;
      stack.pop_back();
    }
    if (!stack.empty()) kids[stack.back()].push_back({s.t0, s.t1});
    stack.push_back(i);
  }
  std::vector<double> self(n);
  for (std::size_t i = 0; i < n; ++i)
    self[i] = static_cast<double>(spans[i].t1 - spans[i].t0) -
              union_us(std::move(kids[i]));
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_us(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.inclusive_s += static_cast<double>(spans[i].t1 - spans[i].t0) * 1e-6;
    t.self_s += self[i] * 1e-6;
  }
  return out;
}

}  // namespace perfbench
