#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "atoms/builders.h"
#include "checkpoint/fault_injection.h"
#include "common/rng.h"
#include "fragment/ls3df.h"
#include "obs/trace.h"
#include "service/solver_service.h"
#include "spans.h"
#include "transport/proc_transport.h"
#include "transport/thread_transport.h"

namespace perfbench {

using namespace ls3df;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// setup_s is the median of constructions spread over the run, so it
// samples the same host conditions as the ops do: kSetupPerOp before
// every timed solve (alloy, spmd_chain), or kServiceSetups before and as
// many after the loop (service, whose construction takes ~70 us).
constexpr int kSetupPerOp = 15;
constexpr int kServiceSetups = 100;
// Events per lane of the traced runs' recorders (32 B each).
constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;
constexpr double kEnergyTol = 1e-5;  // Ha

// ---------------------------------------------------------------------
// Reference problems. alloy and spmd_chain are fixed reference inputs:
// their energies are checked against the values below, so the seed
// only fills the kernel probes' arrays. The service workload draws its
// job stream from the seed.

// ZnTeO 3x1x1 model alloy with the examples/znteo_alloy settings.
constexpr double kAlloyEnergy = -32.479228;

Structure alloy_structure() { return build_model_znteo({3, 1, 1}, 1, 7); }

Ls3dfOptions alloy_options() {
  Ls3dfOptions lo;
  lo.division = {3, 1, 1};
  lo.points_per_cell = 8;
  lo.buffer_points = 4;
  lo.ecut = 0.9;
  lo.extra_bands = 4;
  lo.fragment_smearing = 0.01;
  lo.wall_height = 0.0;
  lo.atom_margin = 0.0;
  lo.eig.max_iterations = 8;
  lo.max_iterations = 40;
  lo.l1_tol = 5e-4;
  lo.n_workers = 4;
  return lo;
}

// H2 molecules, one per cell of edge `a`, along the x (axis 0) or z
// (axis 2) direction; `half_bond` is half the H-H distance (Bohr).
Structure h2_chain(int cells, int axis, double half_bond, double a = 6.0) {
  Vec3d len{a, a, a};
  len[axis] = a * cells;
  Structure s{Lattice(len)};
  for (int c = 0; c < cells; ++c)
    for (double sgn : {-1.0, 1.0}) {
      Vec3d pos{0.5 * a, 0.5 * a, 0.5 * a};
      pos[axis] = a * c + 0.5 * a + sgn * half_bond;
      s.add_atom(Species::kH, pos);
    }
  return s;
}

// The bench_kernels skewed chain scaled to 12 cells: 24 fragments in
// two size classes, solved by 3 thread-SPMD ranks of 1 worker each.
constexpr double kChainEnergy = -8.962747;
constexpr int kChainRanks = 3;

Structure chain_structure() { return h2_chain(12, 2, 0.7); }

Ls3dfOptions chain_options() {
  Ls3dfOptions lo;
  lo.division = {1, 1, 12};
  lo.points_per_cell = 8;
  lo.ecut = 1.0;
  lo.buffer_points = 4;
  lo.extra_bands = 3;
  lo.eig.max_iterations = 8;
  lo.n_workers = 1;
  lo.n_shards = kChainRanks;
  lo.transport = TransportKind::kThreads;
  return lo;
}

// The same problem as one dense single-threaded solve: the baseline of
// transport.spmd_efficiency and a bitwise cross-check of the ranks.
Ls3dfOptions chain_baseline_options() {
  Ls3dfOptions lo = chain_options();
  lo.n_shards = 0;
  lo.transport = TransportKind::kInProc;
  return lo;
}

// ---------------------------------------------------------------------
// Output checks.

bool same_bits(const Ls3dfResult& a, const Ls3dfResult& b) {
  const auto same = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0;
  };
  return a.iterations == b.iterations && a.converged == b.converged &&
         same(a.conv_history, b.conv_history) && same(a.rho, b.rho) &&
         same(a.v_eff, b.v_eff) &&
         std::memcmp(&a.charge_patch_error, &b.charge_patch_error,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.energy.total, &b.energy.total, sizeof(double)) == 0;
}

OpOutcome check_solve(const Ls3dfResult& r, double ref_energy,
                      const std::string& what) {
  OpOutcome o;
  o.converged = r.converged;
  o.checked_ok = std::abs(r.energy.total - ref_energy) <= kEnergyTol;
  if (!o.converged)
    o.what = what + ": not converged after " + std::to_string(r.iterations) +
             " iterations";
  else if (!o.checked_ok)
    o.what = what + ": energy " + std::to_string(r.energy.total) +
             " Ha differs from the reference " + std::to_string(ref_energy);
  return o;
}

OpOutcome thrown(const std::string& what, const std::exception& e) {
  OpOutcome o;
  o.threw = true;
  o.what = what + ": " + e.what();
  return o;
}

// ---------------------------------------------------------------------
// Per-layer metrics a workload leaves idle read 0.

const std::vector<const char*> kTransportLayer = {
    "transport.bytes", "transport.collectives", "transport.wait_s",
    "transport.rank_imbalance", "transport.spmd_efficiency"};
const std::vector<const char*> kSpmdOnly = {"transport.rank_imbalance",
                                            "transport.spmd_efficiency"};
const std::vector<const char*> kCheckpointLayer = {
    "checkpoint.writes", "checkpoint.bytes", "checkpoint.write_s"};
const std::vector<const char*> kServiceLayer = {
    "service.jobs",          "service.queue_s_p50",
    "service.run_s_p50",     "service.retries",
    "service.warm_instance_hits", "service.warm_started_frac",
    "service.repeat_frac",   "service.donations"};
// Counts that are legitimately 0 on any workload.
const std::vector<const char*> kMayBeZero = {"parallel.donated_lanes",
                                             "obs.trace_dropped"};

void idle(const std::vector<const char*>& names, RunOutput& out) {
  for (const char* n : names) {
    out.metrics[n] = 0.0;
    out.may_be_zero.insert(n);
  }
}

// ---------------------------------------------------------------------
// Readers for what the solver exposes in Ls3dfResult::metrics.

// Counters and histograms appear once first incremented, so an absent
// one reads 0; check_metrics() fails a run whose active layer sums to 0.
double counter(const MetricsSnapshot& m, const std::string& name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0.0 : it->second;
}

// Gauges read here are set at the end of every solve; absence is an
// error.
double gauge(const MetricsSnapshot& m, const std::string& name) {
  const auto it = m.gauges.find(name);
  if (it == m.gauges.end())
    throw std::runtime_error("Ls3dfResult::metrics has no gauge " + name);
  return it->second;
}

const MetricsHistogram* histogram(const MetricsSnapshot& m,
                                  const std::string& name) {
  const auto it = m.histograms.find(name);
  return it == m.histograms.end() ? nullptr : &it->second;
}

double transport_bytes(const MetricsSnapshot& m) {
  double b = 0;
  for (const auto& [name, v] : m.counters)
    if (name.rfind("transport.", 0) == 0 && name.size() > 6 &&
        name.compare(name.size() - 6, 6, "_bytes") == 0)
      b += v;
  return b;
}

// Per-phase seconds summed over a solve's outer iterations, as the
// Ls3dfOptions::progress callback reports them.
struct PhaseSums {
  double gen_vf = 0, petot = 0, gen_dens = 0, genpot = 0, mix = 0;
  std::vector<double> iter_wall;

  void add(const Ls3dfProgress& p) {
    gen_vf += p.gen_vf_s;
    petot += p.petot_s;
    gen_dens += p.gen_dens_s;
    genpot += p.genpot_s;
    mix += p.mix_s;
    iter_wall.push_back(p.wall_s);
  }
  double total() const { return gen_vf + petot + gen_dens + genpot + mix; }
};

// Busy lane-seconds of one recorder: per lane, the union of its phase
// and pool-task spans. TaskGraph node spans are left out: the thread
// running the graph records them on behalf of the lanes that ran them.
double busy_lane_s(const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<std::uint64_t, std::uint64_t>>> lanes;
  for (const Span& s : spans)
    if (s.cat == static_cast<int>(TraceCat::kPhase) ||
        s.cat == static_cast<int>(TraceCat::kPool))
      lanes[s.lane].push_back({s.t0, s.t1});
  double us = 0;
  for (auto& [lane, iv] : lanes) us += union_us(std::move(iv));
  return us * 1e-6;
}

void add_trace_metrics(const std::vector<Span>& spans, MetricMap& m) {
  for (const auto& [name, t] : totals_by_name(spans)) {
    if (name.rfind("davidson.sweep", 0) == 0) {
      m["dft.davidson_sweeps"] += static_cast<double>(t.count);
      m["dft.davidson_s"] += t.inclusive_s;
    }
  }
}

// Seconds a recorder spent exchanging: the union of its collective
// spans (transfer and waiting together — only the proc transport splits
// out its wait) and, under thread-SPMD, of the overlapped iteration's
// chainless Gen_dens graph nodes, whose window exchange calls the
// transport directly, outside any collective span.
double exchange_s(const std::vector<Span>& spans, bool spmd) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (const Span& s : spans)
    if (s.cat == static_cast<int>(TraceCat::kCollective) ||
        (spmd && s.cat == static_cast<int>(TraceCat::kNode) &&
         s.name == "Gen_dens" && s.arg == 0))
      iv.push_back({s.t0, s.t1});
  return union_us(std::move(iv)) * 1e-6;
}

void add_checkpoint_metrics(const MetricsSnapshot& s, MetricMap& m) {
  m["checkpoint.writes"] += counter(s, "checkpoint.writes");
  m["checkpoint.bytes"] += counter(s, "checkpoint.bytes");
  if (const MetricsHistogram* h = histogram(s, "checkpoint.write_s"))
    m["checkpoint.write_s"] += h->sum;
}

void add_transport_metrics(const MetricsSnapshot& s, MetricMap& m) {
  m["transport.bytes"] += transport_bytes(s);
  if (const MetricsHistogram* h = histogram(s, "transport.phase_wait_s"))
    m["transport.collectives"] += static_cast<double>(h->count);
}

void add_phase_metrics(const PhaseSums& p, MetricMap& m) {
  m["fragment.gen_vf_s"] += p.gen_vf;
  m["fragment.gen_dens_s"] += p.gen_dens;
  m["fragment.genpot_s"] += p.genpot;
  m["fragment.mix_s"] += p.mix;
}

// Per-span-name attribution table of one recorder: count, inclusive
// seconds, and self seconds (nested spans subtracted, so rows add up).
void print_span_table(const char* label, const std::vector<Span>& spans) {
  std::printf("%s spans:\n", label);
  for (const auto& [name, t] : totals_by_name(spans))
    std::printf("  %-22s n=%-7ld incl=%9.4f s self=%9.4f s\n", name.c_str(),
                t.count, t.inclusive_s, t.self_s);
}

template <typename Fn>
void time_reps(int reps, std::vector<double>& seconds, Fn&& fn) {
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    seconds.push_back(since(t0));
  }
}

// Another op starts only while it is expected to end no later than half
// an op past the run's time budget.
bool budget_spent(Clock::time_point start, double seconds, double op_s) {
  return since(start) + 0.5 * op_s >= seconds;
}

// `wall_s` is the run's wall time for the closed-loop service, whose
// rate is jobs over that wall. The sequential workloads pass 0: their
// rate is 1 / median(construct + solve), since a count over the run's
// wall time would move by a whole solve out of ~5 whenever the last one
// ends on the other side of the time budget.
void end_to_end(const std::vector<double>& solve_s,
                const std::vector<double>& latency_s, double wall_s,
                const char* label, RunOutput& out) {
  const Percentile p90 = nearest_rank(latency_s, 0.9);
  const double p50 = median(latency_s);
  const double rate = wall_s > 0 ? latency_s.size() / wall_s
                      : p50 > 0  ? 1.0 / p50
                                 : 0.0;
  out.metrics["solve_s"] = median(solve_s);
  out.metrics["jobs_per_s"] = rate;
  out.metrics["job_p50_s"] = p50;
  out.metrics["job_p90_s"] = p90.value;
  std::printf("%s: %d ops, %.4f ops/s, latency n=%d p50=%.4f s p90=%.4f s "
              "(%d samples above p90)\n",
              label, static_cast<int>(latency_s.size()), rate, p90.samples,
              p50, p90.value, p90.above);
}

// ---------------------------------------------------------------------
// One process, one solver: the alloy workload.

struct Solo {
  double construct_s = 0, solve_s = 0;
  Ls3dfResult result;
};

Solo solo_solve(const Structure& s, const Ls3dfOptions& o) {
  Solo r;
  const Clock::time_point t0 = Clock::now();
  Ls3dfSolver solver(s, o);
  r.construct_s = since(t0);
  const Clock::time_point t1 = Clock::now();
  r.result = solver.solve();
  r.solve_s = since(t1);
  return r;
}

// One traced solve plus its per-layer view (fragment, dft, parallel) and
// the overhead against an untraced twin.
void traced_solo(const Structure& s, const Ls3dfOptions& o, double ref,
                 RunOutput& out) {
  MetricMap& m = out.metrics;
  Solo plain;
  try {
    plain = solo_solve(s, o);
    out.ops.add(check_solve(plain.result, ref, "untraced solve"));
  } catch (const std::exception& e) {
    out.ops.add(thrown("untraced solve", e));
  }

  TraceRecorder rec(kTraceCapacity);
  PhaseSums phases;
  Ls3dfOptions to = o;
  to.trace = &rec;
  to.progress = [&phases](const Ls3dfProgress& p) { phases.add(p); };
  Solo traced;
  try {
    traced = solo_solve(s, to);
    out.ops.add(check_solve(traced.result, ref, "traced solve"));
  } catch (const std::exception& e) {
    out.ops.add(thrown("traced solve", e));
    return;
  }
  const std::vector<Span> spans = collect_spans(rec);
  const Ls3dfResult& r = traced.result;
  m["fragment.iterations"] = r.iterations;
  m["fragment.iter_s"] = median(phases.iter_wall);
  m["fragment.petot_f_share"] =
      phases.total() > 0 ? phases.petot / phases.total() : 0.0;
  add_phase_metrics(phases, m);
  add_trace_metrics(spans, m);
  m["parallel.lane_busy_frac"] =
      busy_lane_s(spans) / (std::max(1, o.n_workers) * traced.solve_s);
  m["parallel.donated_lanes"] = gauge(r.metrics, "solver.donated_lane_events");
  m["parallel.overlap_fraction"] = r.overlap_fraction;
  if (plain.solve_s > 0)
    m["obs.trace_overhead_frac"] = traced.solve_s / plain.solve_s - 1.0;
  m["obs.trace_events"] = static_cast<double>(rec.total_events());
  m["obs.trace_dropped"] = static_cast<double>(rec.dropped());
  std::printf("traced solve: %.3f s (untraced %.3f s)\n",
               traced.solve_s, plain.solve_s);
  print_span_table("traced solve", spans);
}

RunOutput run_alloy(const RunArgs& a) {
  const Structure s = alloy_structure();
  const Ls3dfOptions o = alloy_options();
  RunOutput out;
  if (a.trace) {
    traced_solo(s, o, kAlloyEnergy, out);
    const FragmentShape shape = costliest_fragment(s, o, out.ops);
    kernel_probes(s, o, shape, o.n_workers, a.seed, out.metrics);
    phase_hook_probes(s, o, out.metrics);
    idle(kTransportLayer, out);  // n_shards = 0
    idle(kCheckpointLayer, out);
    idle(kServiceLayer, out);
    return out;
  }
  std::vector<double> setup_s, solve_s, latency_s;
  const Clock::time_point start = Clock::now();
  do {
    time_reps(kSetupPerOp, setup_s, [&] { Ls3dfSolver solver(s, o); });
    try {
      const Solo r = solo_solve(s, o);
      if (out.ops.add(check_solve(r.result, kAlloyEnergy, "alloy solve"))) {
        solve_s.push_back(r.solve_s);
        latency_s.push_back(r.construct_s + r.solve_s);
      }
      std::printf("alloy solve: %d iterations, %.3f s, E = %.8f Ha\n",
                  r.result.iterations, r.solve_s, r.result.energy.total);
    } catch (const std::exception& e) {
      out.ops.add(thrown("alloy solve", e));
    }
  } while (!latency_s.empty() &&
           !budget_spent(start, a.seconds, median(latency_s)));
  out.metrics["setup_s"] = median(setup_s);
  end_to_end(solve_s, latency_s, 0.0, "alloy", out);
  return out;
}

// ---------------------------------------------------------------------
// Thread-SPMD group solve: the spmd_chain workload.

class Barrier {
 public:
  explicit Barrier(int n) : n_(n) {}
  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (++arrived_ == n_) {
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [this] { return arrived_ >= n_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int n_;
  int arrived_ = 0;
};

struct RankRun {
  double construct_s = 0, solve_s = 0;
  Ls3dfResult result;
  PhaseSums phases;
  std::unique_ptr<TraceRecorder> trace;
  std::string error;
};

// Every rank constructs its solver on its own thread; once all are
// built, each times its own solve(). With `solve` false only the
// constructions run (setup_s). If any rank failed to construct, no rank
// solves: the others would wait for it at the first collective.
std::vector<RankRun> spmd_solve(const Structure& s, const Ls3dfOptions& base,
                                bool traced, bool solve = true) {
  const int ranks = base.n_shards;
  auto group = make_thread_spmd_group(ranks);
  std::vector<RankRun> runs(ranks);
  Barrier built(ranks);
  std::atomic<bool> construct_failed{false};
  std::vector<std::thread> threads;
  for (int r = 0; r < ranks; ++r)
    threads.emplace_back([&, r] {
      RankRun& run = runs[r];
      Ls3dfOptions o = base;
      o.transport_factory = [&group, r](int, int, std::size_t) {
        return std::move(group[r]);
      };
      if (traced) {
        run.trace = std::make_unique<TraceRecorder>(kTraceCapacity);
        o.trace = run.trace.get();
        o.progress = [&run](const Ls3dfProgress& p) { run.phases.add(p); };
      }
      std::unique_ptr<Ls3dfSolver> solver;
      try {
        const Clock::time_point t0 = Clock::now();
        solver = std::make_unique<Ls3dfSolver>(s, o);
        run.construct_s = since(t0);
      } catch (const std::exception& e) {
        run.error = std::string("construct: ") + e.what();
        construct_failed = true;
      }
      built.arrive_and_wait();
      if (!solve || construct_failed) return;
      try {
        const Clock::time_point t0 = Clock::now();
        run.result = solver->solve();
        run.solve_s = since(t0);
      } catch (const std::exception& e) {
        run.error = std::string("solve: ") + e.what();
      }
    });
  for (std::thread& t : threads) t.join();
  return runs;
}

// Converged, within tolerance of the reference energy, and every rank's
// result bitwise equal to rank 0's.
OpOutcome check_ranks(const std::vector<RankRun>& runs,
                      const std::string& what) {
  for (std::size_t r = 0; r < runs.size(); ++r)
    if (!runs[r].error.empty()) {
      OpOutcome o;
      o.threw = true;
      o.what = what + ": rank " + std::to_string(r) + " " + runs[r].error;
      return o;
    }
  OpOutcome o = check_solve(runs[0].result, kChainEnergy, what);
  for (std::size_t r = 1; r < runs.size() && o.checked_ok; ++r)
    if (!same_bits(runs[r].result, runs[0].result)) {
      o.checked_ok = false;
      o.what = what + ": rank " + std::to_string(r) +
               " result differs from rank 0";
    }
  return o;
}

double slowest_solve(const std::vector<RankRun>& runs) {
  double t = 0;
  for (const RankRun& r : runs) t = std::max(t, r.solve_s);
  return t;
}

void traced_spmd(const Structure& s, const Ls3dfOptions& o, RunOutput& out) {
  MetricMap& m = out.metrics;
  const std::vector<RankRun> plain = spmd_solve(s, o, false);
  const bool plain_ok = out.ops.add(check_ranks(plain, "untraced group"));
  const std::vector<RankRun> traced = spmd_solve(s, o, true);
  if (!out.ops.add(check_ranks(traced, "traced group"))) return;

  Solo base;
  try {
    base = solo_solve(s, chain_baseline_options());
    OpOutcome c = check_solve(base.result, kChainEnergy, "baseline");
    if (c.checked_ok && !same_bits(base.result, traced[0].result)) {
      c.checked_ok = false;
      c.what = "baseline: dense single-thread result differs from rank 0";
    }
    out.ops.add(c);
  } catch (const std::exception& e) {
    out.ops.add(thrown("baseline", e));
  }

  const double wall = slowest_solve(traced);
  const double plain_wall = plain_ok ? slowest_solve(plain) : 0.0;
  double petot_max = 0, petot_sum = 0, phase_sum = 0, busy = 0;
  for (const RankRun& r : traced) {
    const std::vector<Span> spans = collect_spans(*r.trace);
    add_trace_metrics(spans, m);
    m["transport.wait_s"] += exchange_s(spans, true);
    add_transport_metrics(r.result.metrics, m);
    m["parallel.donated_lanes"] +=
        gauge(r.result.metrics, "solver.donated_lane_events");
    m["obs.trace_events"] += static_cast<double>(r.trace->total_events());
    m["obs.trace_dropped"] += static_cast<double>(r.trace->dropped());
    busy += busy_lane_s(spans);
    petot_max = std::max(petot_max, r.phases.petot);
    petot_sum += r.phases.petot;
    phase_sum += r.phases.total();
  }
  // Phase times of the slowest rank: the one the others wait for.
  const auto slowest = std::max_element(
      traced.begin(), traced.end(), [](const RankRun& x, const RankRun& y) {
        return x.phases.total() < y.phases.total();
      });
  add_phase_metrics(slowest->phases, m);
  const int ranks = static_cast<int>(traced.size());
  // Every rank takes part in every collective; count each once.
  m["transport.collectives"] /= ranks;
  m["fragment.iterations"] = traced[0].result.iterations;
  m["fragment.iter_s"] = median(traced[0].phases.iter_wall);
  m["fragment.petot_f_share"] = phase_sum > 0 ? petot_sum / phase_sum : 0.0;
  m["parallel.lane_busy_frac"] = busy / (ranks * wall);
  m["parallel.overlap_fraction"] = traced[0].result.overlap_fraction;
  m["transport.rank_imbalance"] =
      petot_sum > 0 ? petot_max / (petot_sum / ranks) : 0.0;
  if (plain_wall > 0) {
    m["transport.spmd_efficiency"] = base.solve_s / (ranks * plain_wall);
    m["obs.trace_overhead_frac"] = wall / plain_wall - 1.0;
  }
  std::printf("spmd_chain traced: %.3f s, untraced %.3f s, 1-thread "
              "baseline %.3f s\n",
              wall, plain_wall, base.solve_s);
  print_span_table("rank 0", collect_spans(*traced[0].trace));
}

RunOutput run_spmd_chain(const RunArgs& a) {
  const Structure s = chain_structure();
  const Ls3dfOptions o = chain_options();
  RunOutput out;
  if (a.trace) {
    traced_spmd(s, o, out);
    Ls3dfOptions one = o;
    one.transport = TransportKind::kInProc;
    const FragmentShape shape = costliest_fragment(s, o, out.ops);
    kernel_probes(s, o, shape, o.n_workers, a.seed, out.metrics);
    phase_hook_probes(s, one, out.metrics);
    idle(kCheckpointLayer, out);
    idle(kServiceLayer, out);
    return out;
  }
  std::vector<double> setup_s, solve_s, latency_s;
  const Clock::time_point start = Clock::now();
  do {
    for (int i = 0; i < kSetupPerOp; ++i) {
      double t = 0;
      for (const RankRun& r : spmd_solve(s, o, false, false))
        t = std::max(t, r.construct_s);
      setup_s.push_back(t);
    }
    const std::vector<RankRun> runs = spmd_solve(s, o, false);
    double construct = 0;
    for (const RankRun& r : runs)
      construct = std::max(construct, r.construct_s);
    if (out.ops.add(check_ranks(runs, "spmd_chain solve"))) {
      solve_s.push_back(slowest_solve(runs));
      latency_s.push_back(construct + slowest_solve(runs));
    }
    std::printf("spmd_chain solve: %d iterations, %.3f s, E = %.8f Ha\n",
                runs[0].result.iterations, slowest_solve(runs),
                runs[0].result.energy.total);
  } while (!latency_s.empty() &&
           !budget_spent(start, a.seconds, median(latency_s)));
  out.metrics["setup_s"] = median(setup_s);
  end_to_end(solve_s, latency_s, 0.0, "spmd_chain", out);
  return out;
}

// ---------------------------------------------------------------------
// SolverService closed loop: the service workload.

// Job classes of the bench_service mix.
enum JobClass { kDense, kBatched, kSharded, kPriority, kProcess };
const char* const kClassName[] = {"dense", "batched", "sharded", "priority",
                                  "proc"};

struct ServiceJob {
  int cls = kDense;
  Structure structure;
  JobSpec spec;
  int repeat_of = -1;  // index of the earlier job whose input this repeats
  long kill_at = -1;   // collective index of an injected worker kill
};

constexpr int kOutstanding = 3;  // closed loop: jobs kept in flight
constexpr int kServiceLanes = 3;
// Jobs per run: kJobsPerSecond x --seconds, at least kMinJobs so that
// p90 has at least 10 samples above it.
constexpr double kJobsPerSecond = 6.0;
constexpr int kMinJobs = 100;
constexpr int kCheckSample = 8;  // seeded extra jobs checked bitwise

Ls3dfOptions service_options(int cells) {
  Ls3dfOptions lo;
  lo.division = {cells, 1, 1};
  lo.points_per_cell = 6;
  lo.ecut = 0.7;
  lo.buffer_points = 3;
  lo.extra_bands = 3;
  lo.eig.max_iterations = 4;
  lo.max_iterations = 30;
  lo.l1_tol = 1e-2;
  lo.n_workers = 2;
  return lo;
}

// bench_service's classes on service_options(): small 3-cell jobs (its
// head runs them with batch_width 2), heavy 4-cell sharded-overlapped
// jobs, a high-priority job with one Davidson sweep fewer, and 2-rank
// proc-transport jobs.
ServiceJob fresh_job(int cls, Rng& rng) {
  ServiceJob j;
  j.cls = cls;
  const int cells = cls == kSharded ? 4 : 3;
  // Every job its own structure: the bond length is drawn per job.
  j.structure = h2_chain(cells, 0, rng.uniform(0.66, 0.74));
  Ls3dfOptions lo = service_options(cells);
  switch (cls) {
    case kDense:
      lo.batch_width = 0;
      break;
    case kBatched:
      lo.batch_width = 2;
      break;
    case kSharded:
      lo.n_shards = 2;
      lo.overlap = true;
      lo.donate = true;
      break;
    case kPriority:
      lo.eig.max_iterations -= 1;
      j.spec.priority = 2;
      break;
    case kProcess:
      lo.n_shards = 2;
      lo.transport = TransportKind::kProc;
      break;
  }
  j.spec.options = lo;
  return j;
}

// The seeded job stream, stratified in blocks of fourteen. Eleven are
// fresh jobs in bench_service's proportions: six small jobs (split here
// into three dense and three batched, as the two classes are named
// apart), two sharded-overlapped, one high-priority and two proc-
// transport jobs, each proc job losing a worker at a seeded collective
// as every proc job in bench_service does. The other three (21%) are
// exact repeats of earlier inputs. Stratifying keeps the work per run
// steady across seeds while the seed still decides every structure, the
// order, which inputs repeat and where each worker dies.
std::vector<ServiceJob> service_mix(std::uint64_t seed, int n) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  std::vector<ServiceJob> jobs;
  while (static_cast<int>(jobs.size()) < n) {
    std::vector<int> slots = {kDense,    kDense,    kDense,    kBatched,
                              kBatched,  kBatched,  kSharded,  kSharded,
                              kPriority, kProcess,  kProcess,  -1,
                              -1,        -1};
    for (int i = static_cast<int>(slots.size()) - 1; i > 0; --i)
      std::swap(slots[i], slots[rng.uniform_int(0, i + 1)]);
    // The stream cannot open with a repeat.
    if (jobs.empty())
      while (slots[0] < 0) std::rotate(slots.begin(), slots.begin() + 1,
                                       slots.end());
    for (int cls : slots) {
      if (cls >= 0) {
        jobs.push_back(fresh_job(cls, rng));
        if (cls == kProcess) jobs.back().kill_at = rng.uniform_int(4, 12);
        continue;
      }
      int src = rng.uniform_int(0, static_cast<int>(jobs.size()));
      while (jobs[src].repeat_of >= 0) src = jobs[src].repeat_of;
      ServiceJob r = jobs[src];
      r.repeat_of = src;
      r.kill_at = -1;
      jobs.push_back(r);
    }
  }
  jobs.resize(n);
  return jobs;
}

struct JobRecord {
  int index = 0;  // into the mix
  SolverService::JobId id = 0;
  double latency_s = 0;
  JobStatus status;
  PhaseSums phases;
};

struct LoopResult {
  std::vector<JobRecord> jobs;
  double wall_s = 0;
  long donations = 0, warm_instance_hits = 0;
  MetricMap layers;  // per-layer numbers read while the service lives
};

// Standalone solve() of every checked input, keyed by the mix index of
// the original: a seeded sample of the jobs run plus every repeated
// input among them. Runs on kOutstanding threads, after the timed loop.
std::map<int, Ls3dfResult> service_refs(const std::vector<ServiceJob>& mix,
                                        const std::deque<JobRecord>& run,
                                        std::uint64_t seed) {
  std::vector<int> keys;
  for (const JobRecord& r : run)
    if (mix[r.index].repeat_of >= 0) keys.push_back(mix[r.index].repeat_of);
  Rng rng(seed ^ 0x636865636bull);
  for (int k = 0; k < kCheckSample && !run.empty(); ++k) {
    const int i = run[rng.uniform_int(0, static_cast<int>(run.size()))].index;
    keys.push_back(mix[i].repeat_of >= 0 ? mix[i].repeat_of : i);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::vector<Ls3dfResult> results(keys.size());
  std::vector<std::string> errors(keys.size());
  std::mutex mu;
  std::size_t next = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kOutstanding; ++t)
    threads.emplace_back([&] {
      for (;;) {
        std::size_t k;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (next == keys.size()) return;
          k = next++;
        }
        const ServiceJob& j = mix[keys[k]];
        try {
          results[k] = Ls3dfSolver(j.structure, j.spec.options).solve();
        } catch (const std::exception& e) {
          errors[k] = e.what();
        }
      }
    });
  for (std::thread& t : threads) t.join();
  std::map<int, Ls3dfResult> refs;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (!errors[k].empty())
      throw std::runtime_error("standalone solve of job " +
                               std::to_string(keys[k]) + ": " + errors[k]);
    refs.emplace(keys[k], std::move(results[k]));
  }
  return refs;
}

// One op per job: it failed if it did not finish, did not converge, or
// differs from the standalone solve of its input (where one was made).
OpOutcome check_job(const ServiceJob& j, const JobRecord& rec,
                    const SolverService& svc,
                    const std::map<int, Ls3dfResult>& refs) {
  const std::string what =
      "job " + std::to_string(rec.index) + " (" + kClassName[j.cls] + ")";
  OpOutcome o;
  if (rec.status.state != JobState::kDone) {
    o.threw = true;
    o.what = what + ": " + rec.status.error;
    return o;
  }
  const Ls3dfResult& r = svc.result(rec.id);
  o.converged = r.converged;
  if (!o.converged) o.what = what + ": not converged";
  const auto ref = refs.find(j.repeat_of >= 0 ? j.repeat_of : rec.index);
  if (ref != refs.end() && !same_bits(r, ref->second)) {
    o.checked_ok = false;
    o.what = what + ": differs from its standalone solve";
  }
  return o;
}

// Runs the first `n_jobs` jobs of the mix as a closed loop that keeps
// kOutstanding jobs in flight. Each job is timed from its submit() to
// the status() poll that first sees it terminal. After the loop, with
// the service still holding the results, every job is checked.
LoopResult service_loop(const std::vector<ServiceJob>& mix, int n_jobs,
                        bool traced, const std::string& ck_dir,
                        std::uint64_t seed, OpTally& ops) {
  std::filesystem::remove_all(ck_dir);
  std::filesystem::create_directories(ck_dir);
  SolverServiceOptions so;
  so.total_lanes = kServiceLanes;
  so.max_concurrent = kOutstanding;
  so.checkpoint_dir = ck_dir;
  so.trace_capacity = traced ? 4096 : 0;
  LoopResult out;
  std::vector<std::unique_ptr<FaultPlan>> plans;
  // A deque keeps each record (and the PhaseSums a progress callback
  // writes into) at a stable address while records are appended.
  std::deque<JobRecord> records;
  {
    SolverService svc(so);
    struct InFlight {
      std::size_t record;
      Clock::time_point submitted;
    };
    std::vector<InFlight> in_flight;
    const auto submit = [&] {
      const int next = static_cast<int>(records.size());
      const ServiceJob& j = mix[next];
      records.emplace_back();
      JobRecord& rec = records.back();
      rec.index = next;
      JobSpec spec = j.spec;
      spec.name = std::string(kClassName[j.cls]) + std::to_string(next);
      if (traced)
        spec.options.progress = [&rec](const Ls3dfProgress& p) {
          rec.phases.add(p);
        };
      if (j.kill_at >= 0) {
        plans.push_back(std::make_unique<FaultPlan>(next));
        plans.back()->kill_worker_at(j.kill_at, 1);
        FaultPlan* plan = plans.back().get();
        spec.on_bind = [plan](Ls3dfSolver& solver) {
          if (auto* proc = dynamic_cast<ProcTransport*>(
                  solver.shard_transport_object()))
            proc->set_fault_plan(plan);
        };
      }
      in_flight.push_back({records.size() - 1, Clock::now()});
      rec.id = svc.submit(j.structure, std::move(spec));
    };
    const Clock::time_point start = Clock::now();
    Clock::time_point last_done = start;
    while (static_cast<int>(in_flight.size()) < kOutstanding &&
           static_cast<int>(records.size()) < n_jobs)
      submit();
    while (!in_flight.empty()) {
      bool progressed = false;
      for (std::size_t k = 0; k < in_flight.size();) {
        JobRecord& rec = records[in_flight[k].record];
        const JobState st = svc.status(rec.id).state;
        if (st != JobState::kDone && st != JobState::kFailed) {
          ++k;
          continue;
        }
        last_done = Clock::now();
        rec.latency_s = std::chrono::duration<double>(
                            last_done - in_flight[k].submitted)
                            .count();
        rec.status = svc.wait(rec.id);
        in_flight.erase(in_flight.begin() + static_cast<long>(k));
        progressed = true;
        if (static_cast<int>(records.size()) < n_jobs) submit();
      }
      // Jobs take ~0.5 s; a 1 ms poll keeps the loop's own wakeups off
      // the lanes it measures.
      if (!progressed)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    out.wall_s = std::chrono::duration<double>(last_done - start).count();
    out.donations = svc.lane_donation_events();
    out.warm_instance_hits = svc.warm_instance_hits();

    const std::map<int, Ls3dfResult> refs = service_refs(mix, records, seed);
    for (const JobRecord& rec : records) {
      ops.add(check_job(mix[rec.index], rec, svc, refs));
      if (!traced || rec.status.state != JobState::kDone) continue;
      const MetricsSnapshot& m = svc.result(rec.id).metrics;
      out.layers["parallel.overlap_fraction"] +=
          svc.result(rec.id).overlap_fraction;
      add_checkpoint_metrics(m, out.layers);
      add_transport_metrics(m, out.layers);
      out.layers["parallel.donated_lanes"] +=
          gauge(m, "solver.donated_lane_events");
      if (const TraceRecorder* t = svc.job_trace(rec.id)) {
        const std::vector<Span> spans = collect_spans(*t);
        add_trace_metrics(spans, out.layers);
        out.layers["transport.wait_s"] += exchange_s(spans, false);
        out.layers["parallel.busy_lane_s"] += busy_lane_s(spans);
        out.layers["obs.trace_events"] +=
            static_cast<double>(t->total_events());
        out.layers["obs.trace_dropped"] += static_cast<double>(t->dropped());
      }
    }
  }
  std::filesystem::remove_all(ck_dir);
  out.jobs.assign(records.begin(), records.end());
  return out;
}

void service_layers(const std::vector<ServiceJob>& mix, const LoopResult& l,
                    double plain_s_per_job, MetricMap& m) {
  for (const auto& [name, v] : l.layers) m[name] += v;
  std::vector<double> queued, run, iter_wall;
  int done = 0, warm = 0, repeats = 0, retries = 0, iterations = 0;
  PhaseSums all;
  for (const JobRecord& r : l.jobs) {
    retries += r.status.retries;
    repeats += mix[r.index].repeat_of >= 0;
    if (r.status.state != JobState::kDone) continue;
    ++done;
    warm += r.status.warm_started;
    iterations += r.status.iterations;
    queued.push_back(r.status.queued_s);
    run.push_back(r.status.run_s);
    all.gen_vf += r.phases.gen_vf;
    all.petot += r.phases.petot;
    all.gen_dens += r.phases.gen_dens;
    all.genpot += r.phases.genpot;
    all.mix += r.phases.mix;
    iter_wall.insert(iter_wall.end(), r.phases.iter_wall.begin(),
                     r.phases.iter_wall.end());
  }
  const double n = std::max<std::size_t>(l.jobs.size(), 1);
  m["parallel.overlap_fraction"] /= std::max(done, 1);  // mean over jobs
  m["fragment.iterations"] = iterations;
  m["fragment.iter_s"] = median(iter_wall);
  m["fragment.petot_f_share"] = all.total() > 0 ? all.petot / all.total() : 0;
  add_phase_metrics(all, m);
  m["parallel.lane_busy_frac"] =
      m["parallel.busy_lane_s"] / (kServiceLanes * l.wall_s);
  m.erase("parallel.busy_lane_s");
  m["service.queue_s_p50"] = median(queued);
  m["service.run_s_p50"] = median(run);
  m["service.retries"] = retries;
  m["service.warm_instance_hits"] = static_cast<double>(l.warm_instance_hits);
  m["service.warm_started_frac"] = warm / n;
  m["service.repeat_frac"] = repeats / n;
  m["service.donations"] = static_cast<double>(l.donations);
  m["service.jobs"] = static_cast<double>(l.jobs.size());
  if (plain_s_per_job > 0)
    m["obs.trace_overhead_frac"] = l.wall_s / n / plain_s_per_job - 1.0;
  std::printf("service traced: %d/%zu jobs done, %d repeats, %d warm "
              "starts, %d retries\n",
              done, l.jobs.size(), repeats, warm, retries);
}

// Latency by job class (repeats apart), with sample counts.
void print_class_latency(const std::vector<ServiceJob>& mix,
                         const LoopResult& loop) {
  std::map<std::string, std::vector<double>> by_class;
  for (const JobRecord& r : loop.jobs) {
    const ServiceJob& j = mix[r.index];
    by_class[j.repeat_of >= 0 ? "repeat" : kClassName[j.cls]].push_back(
        r.latency_s);
  }
  for (const auto& [name, v] : by_class)
    std::printf("  %-8s n=%-4zu p50=%.4f s max=%.4f s\n", name.c_str(),
                v.size(), median(v), nearest_rank(v, 1.0).value);
}

RunOutput run_service(const RunArgs& a) {
  RunOutput out;
  // A fixed job count per run, set from the time budget, keeps the work
  // (and the results the service retains) the same on every run.
  const int n_jobs = std::max(
      kMinJobs, static_cast<int>(std::lround(kJobsPerSecond * a.seconds)));
  const std::vector<ServiceJob> mix = service_mix(a.seed, n_jobs);
  const std::string ck_dir =
      (std::filesystem::path(a.workdir) / "service-checkpoints").string();

  if (!a.trace) {
    SolverServiceOptions so;
    so.total_lanes = kServiceLanes;
    so.max_concurrent = kOutstanding;
    std::vector<double> setup_s;
    const auto construct = [&] { SolverService svc(so); };
    time_reps(kServiceSetups, setup_s, construct);
    const LoopResult loop =
        service_loop(mix, n_jobs, false, ck_dir, a.seed, out.ops);
    time_reps(kServiceSetups, setup_s, construct);
    out.metrics["setup_s"] = median(setup_s);
    std::vector<double> run_s, latency_s;
    for (const JobRecord& r : loop.jobs)
      if (r.status.state == JobState::kDone) {
        run_s.push_back(r.status.run_s);
        latency_s.push_back(r.latency_s);
      }
    end_to_end(run_s, latency_s, loop.wall_s, "service", out);
    print_class_latency(mix, loop);
    return out;
  }
  // Traced: kernel probes at the first dense job's fragment shape (every
  // block has dense jobs), then the first half of the stream untraced and
  // traced; the overhead compares their seconds per job.
  const ServiceJob& probe =
      *std::find_if(mix.begin(), mix.end(),
                    [](const ServiceJob& j) { return j.cls == kDense; });
  const FragmentShape shape =
      costliest_fragment(probe.structure, probe.spec.options, out.ops);
  kernel_probes(probe.structure, probe.spec.options, shape,
                probe.spec.options.n_workers, a.seed, out.metrics);
  phase_hook_probes(probe.structure, probe.spec.options, out.metrics);
  const int half = std::max(kMinJobs / 2, n_jobs / 2);
  const LoopResult plain =
      service_loop(mix, half, false, ck_dir, a.seed, out.ops);
  const LoopResult traced =
      service_loop(mix, half, true, ck_dir, a.seed, out.ops);
  service_layers(mix, traced, plain.wall_s / half, out.metrics);
  idle(kSpmdOnly, out);
  return out;
}

}  // namespace

RunOutput run_workload(const RunArgs& args) {
  RunOutput (*const run)(const RunArgs&) =
      args.workload == "alloy"        ? run_alloy
      : args.workload == "spmd_chain" ? run_spmd_chain
      : args.workload == "service"    ? run_service
                                      : nullptr;
  if (!run)
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  RunOutput out = run(args);
  if (args.trace)
    out.may_be_zero.insert(kMayBeZero.begin(), kMayBeZero.end());
  else
    out.metrics["peak_rss_mb"] = peak_rss_mb();
  check_metrics(out.metrics, out.may_be_zero, out.ops);
  return out;
}

}  // namespace perfbench
