// Randomized cross-path equivalence suite: the one solve driver runs
// over dense/sharded x inproc/proc layouts at any batch width, worker
// count and donation setting, and the bit-identity contract across them
// is a combinatorial surface no hand-picked configuration list covers.
// A seeded generator draws (division, batch_width, n_shards, transport,
// workers, donate) tuples and asserts that a full solve() reproduces the
// reference — the same driver at its most serial shape — bit for bit:
// density, effective potential, convergence history, charge-patch error
// and total energy. The reference itself is pinned to the committed
// golden digests (golden_digests.h). Deterministic: the suite seed is
// fixed (override with LS3DF_EQUIV_SEED, scale with LS3DF_EQUIV_DRAWS),
// and every failure message carries the seed + draw index for replay.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "atoms/builders.h"
#include "common/rng.h"
#include "fragment/ls3df.h"
#include "golden_digests.h"
#include "obs/trace.h"
#include "service/solver_service.h"
#include "transport/thread_transport.h"

namespace ls3df {
namespace {

constexpr std::uint64_t kSuiteSeed = 20260726;

using golden::base_options;
using golden::h2_chain;

// The reference shape: the driver at its most serial — one worker, dense
// global fields, one fragment per batch, fixed lanes. Its bits are
// frozen in golden_digests.h.
Ls3dfOptions reference_shape(Ls3dfOptions lo) {
  lo.batch_width = 1;
  lo.n_shards = 0;
  lo.n_workers = 1;
  lo.donate = false;
  return lo;
}

// The reference solve of an x-chain division, solved once per process
// and shared by every test. ReferenceSolvesMatchGoldenDigests pins it to
// its golden digest.
const Ls3dfResult& chain_reference(int ncells) {
  static std::map<int, Ls3dfResult> refs;
  auto it = refs.find(ncells);
  if (it == refs.end())
    it = refs.emplace(ncells, Ls3dfSolver(h2_chain(ncells),
                                          reference_shape(base_options(ncells)))
                                  .solve())
             .first;
  return it->second;
}

struct Draw {
  int ncells;       // division {ncells, 1, 1} on an ncells-cell chain
  int batch_width;  // 0 = width 1
  int n_shards;     // 0 = dense grid
  TransportKind transport;
  int workers;
  bool donate;  // live lane donation: must be bit-identical either way

  std::string describe(std::uint64_t seed, int index) const {
    std::ostringstream os;
    os << "replay: LS3DF_EQUIV_SEED=" << seed << " draw #" << index
       << " {division=" << ncells << "x1x1 batch_width=" << batch_width
       << " n_shards=" << n_shards << " transport="
       << transport_name(transport) << " workers=" << workers
       << " donate=" << (donate ? "on" : "off") << "}";
    return os.str();
  }
};

Draw random_draw(Rng& rng) {
  Draw d;
  d.ncells = rng.uniform() < 0.75 ? 3 : 4;
  const int widths[] = {0, 1, 2, 4};
  d.batch_width = widths[rng.uniform_int(4)];
  const int shards[] = {0, 0, 1, 2, 3};
  d.n_shards = shards[rng.uniform_int(5)];
  // The proc transport forks one worker process per shard; keep it a
  // minority draw so the suite stays fast.
  d.transport = (d.n_shards > 0 && rng.uniform() < 0.3)
                    ? TransportKind::kProc
                    : TransportKind::kInProc;
  const int workers[] = {1, 2, 4};
  d.workers = workers[rng.uniform_int(3)];
  d.donate = rng.uniform() < 0.5;
  return d;
}

TEST(CrossPathEquivalence, RandomizedDrawsMatchDenseReferenceBitwise) {
  std::uint64_t seed = kSuiteSeed;
  int n_draws = 20;
  if (const char* env = std::getenv("LS3DF_EQUIV_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  if (const char* env = std::getenv("LS3DF_EQUIV_DRAWS"))
    n_draws = std::atoi(env);

  Rng rng(seed);
  // The first draws are pinned to the corners a random sweep can miss:
  // the dense and proc-sharded layouts, batch_width 0 (width 1), and
  // donation on the widest-contended shapes (many chains, few workers:
  // retirement actually widens the surviving lanes).
  std::vector<Draw> draws = {
      {3, 4, 0, TransportKind::kInProc, 1, true},
      {3, 4, 0, TransportKind::kInProc, 4, true},
      {3, 2, 3, TransportKind::kInProc, 2, true},
      {3, 4, 2, TransportKind::kProc, 2, true},
      {3, 0, 2, TransportKind::kInProc, 2, true},
      {4, 1, 0, TransportKind::kInProc, 4, true},
      {4, 0, 0, TransportKind::kInProc, 4, true},
  };
  while (static_cast<int>(draws.size()) < n_draws)
    draws.push_back(random_draw(rng));

  for (int i = 0; i < static_cast<int>(draws.size()); ++i) {
    const Draw& d = draws[i];
    SCOPED_TRACE(d.describe(seed, i));
    const Ls3dfResult& ref = chain_reference(d.ncells);

    Structure s = h2_chain(d.ncells);
    Ls3dfOptions lo = base_options(d.ncells);
    lo.batch_width = d.batch_width;
    lo.n_shards = d.n_shards;
    lo.transport = d.transport;
    lo.n_workers = d.workers;
    lo.donate = d.donate;
    Ls3dfSolver solver(s, lo);
    Ls3dfResult r = solver.solve();

    ASSERT_EQ(r.iterations, ref.iterations);
    ASSERT_EQ(r.conv_history.size(), ref.conv_history.size());
    for (std::size_t k = 0; k < ref.conv_history.size(); ++k)
      ASSERT_EQ(r.conv_history[k], ref.conv_history[k])
          << "L1 metric differs at iteration " << k;
    ASSERT_EQ(r.charge_patch_error, ref.charge_patch_error);
    ASSERT_EQ(r.rho.size(), ref.rho.size());
    for (std::size_t k = 0; k < ref.rho.size(); ++k)
      ASSERT_EQ(r.rho[k], ref.rho[k]) << "density differs at point " << k;
    ASSERT_EQ(r.v_eff.size(), ref.v_eff.size());
    for (std::size_t k = 0; k < ref.v_eff.size(); ++k)
      ASSERT_EQ(r.v_eff[k], ref.v_eff[k])
          << "potential differs at point " << k;
    ASSERT_EQ(r.energy.total, ref.energy.total);
  }
}

// The kill-and-resume dimension: a solve crashed mid-iteration and
// resumed from its latest snapshot must land on the uninterrupted run's
// bits — across the dense path and the sharded path for shard counts
// {2, 4} on both non-SPMD transports. Each configuration is its own
// reference (solver-level equivalence to the dense baseline is the
// suite above); what this dimension pins is that interruption is
// invisible.
TEST(CrossPathEquivalence, KillAndResumeMatchesUninterruptedBitwise) {
  struct Config {
    int n_shards;
    TransportKind transport;
  };
  const Config configs[] = {
      {0, TransportKind::kInProc},
      {2, TransportKind::kInProc},
      {4, TransportKind::kInProc},
      {2, TransportKind::kProc},
      {4, TransportKind::kProc},
  };
  const std::string path = "/tmp/ls3df_test_equiv_resume.snap";

  for (const Config& c : configs) {
    SCOPED_TRACE(std::string("n_shards=") + std::to_string(c.n_shards) +
                 " transport=" + transport_name(c.transport));
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());

    Structure s = h2_chain(3);
    Ls3dfOptions lo = base_options(3);
    lo.n_shards = c.n_shards;
    lo.transport = c.transport;
    lo.n_workers = 2;
    const Ls3dfResult ref = Ls3dfSolver(s, lo).solve();

    // Crash in iteration 2's first batch solve; the iteration-1
    // snapshot (cadence 1) is already committed.
    Ls3dfOptions crash = lo;
    crash.checkpoint.path = path;
    Ls3dfSolver probe(s, crash);
    const int per_iter = static_cast<int>(probe.batches().size());
    int counter = 0;
    crash.on_batch_solve = [&counter, per_iter](int) {
      if (counter++ == per_iter)
        throw std::runtime_error("injected crash");
    };
    Ls3dfSolver victim(s, crash);
    EXPECT_THROW(victim.solve(), std::runtime_error);

    // A fresh solver (fresh process, in spirit) resumes and must be
    // indistinguishable from never having crashed.
    Ls3dfSolver resumer(s, lo);
    const Ls3dfResult r = resumer.resume(path);
    ASSERT_EQ(r.iterations, ref.iterations);
    ASSERT_EQ(r.conv_history.size(), ref.conv_history.size());
    for (std::size_t k = 0; k < ref.conv_history.size(); ++k)
      ASSERT_EQ(r.conv_history[k], ref.conv_history[k])
          << "L1 metric differs at iteration " << k;
    ASSERT_EQ(r.charge_patch_error, ref.charge_patch_error);
    for (std::size_t k = 0; k < ref.rho.size(); ++k)
      ASSERT_EQ(r.rho[k], ref.rho[k]) << "density differs at point " << k;
    for (std::size_t k = 0; k < ref.v_eff.size(); ++k)
      ASSERT_EQ(r.v_eff[k], ref.v_eff[k])
          << "potential differs at point " << k;
    ASSERT_EQ(r.energy.total, ref.energy.total);
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
  }
}

void expect_bitwise_equal(const Ls3dfResult& r, const Ls3dfResult& ref) {
  ASSERT_EQ(r.iterations, ref.iterations);
  ASSERT_EQ(r.conv_history.size(), ref.conv_history.size());
  for (std::size_t k = 0; k < ref.conv_history.size(); ++k)
    ASSERT_EQ(r.conv_history[k], ref.conv_history[k])
        << "L1 metric differs at iteration " << k;
  ASSERT_EQ(r.charge_patch_error, ref.charge_patch_error);
  ASSERT_EQ(r.rho.size(), ref.rho.size());
  for (std::size_t k = 0; k < ref.rho.size(); ++k)
    ASSERT_EQ(r.rho[k], ref.rho[k]) << "density differs at point " << k;
  ASSERT_EQ(r.v_eff.size(), ref.v_eff.size());
  for (std::size_t k = 0; k < ref.v_eff.size(); ++k)
    ASSERT_EQ(r.v_eff[k], ref.v_eff[k])
        << "potential differs at point " << k;
  ASSERT_EQ(r.energy.total, ref.energy.total);
}

// The observability dimension: a trace recorder, the metrics registry
// and the per-iteration progress callback are execution knobs — a solve
// with all of them live must reproduce the untraced bits exactly, on
// the dense and sharded layouts and a thread-SPMD group.
TEST(CrossPathEquivalence, TracingAndMetricsAreBitwiseInvisible) {
  const Structure s = h2_chain(3);
  const Ls3dfOptions base = base_options(3);

  for (int n_shards : {0, 2}) {
    SCOPED_TRACE(n_shards == 0 ? "dense" : "sharded");
    Ls3dfOptions lo = base;
    lo.n_shards = n_shards;
    lo.n_workers = 2;
    Ls3dfResult ref;
    {
      Ls3dfSolver solver(s, lo);
      ref = solver.solve();
    }

    TraceRecorder rec;
    std::vector<double> residuals;
    lo.trace = &rec;
    lo.progress = [&residuals](const Ls3dfProgress& p) {
      EXPECT_EQ(p.iteration, static_cast<int>(residuals.size()) + 1);
      EXPECT_GE(p.wall_s, 0.0);
      residuals.push_back(p.residual);
    };
    Ls3dfSolver solver(s, lo);
    const Ls3dfResult r = solver.solve();
    expect_bitwise_equal(r, ref);

    // The observability layer actually observed the solve...
    EXPECT_GT(rec.total_events(), 0u);
    ASSERT_EQ(residuals.size(), r.conv_history.size());
    for (std::size_t k = 0; k < residuals.size(); ++k)
      EXPECT_EQ(residuals[k], r.conv_history[k]);
    ASSERT_FALSE(r.metrics.empty());
    EXPECT_EQ(r.metrics.counters.at("solver.iterations"),
              static_cast<double>(r.iterations));
  }

  // Thread-SPMD: every rank carries its own recorder and registry; the
  // solve must still land on the dense untraced reference's bits.
  Ls3dfResult ref;
  {
    Ls3dfOptions lo = base;
    Ls3dfSolver solver(s, lo);
    ref = solver.solve();
  }
  const int shards = 2;
  auto group = make_thread_spmd_group(shards);
  std::vector<TraceRecorder> recs(shards);
  std::vector<Ls3dfResult> res(shards);
  std::vector<std::thread> threads;
  for (int rk = 0; rk < shards; ++rk)
    threads.emplace_back([&, rk]() {
      Ls3dfOptions o = base;
      o.n_shards = shards;
      o.n_workers = 1;
      o.transport = TransportKind::kThreads;
      o.transport_factory = [&group, rk](int, int, std::size_t) {
        return std::move(group[rk]);
      };
      o.trace = &recs[rk];
      Ls3dfSolver solver(s, o);
      res[rk] = solver.solve();
    });
  for (auto& t : threads) t.join();
  for (int rk = 0; rk < shards; ++rk) {
    SCOPED_TRACE("spmd rank " + std::to_string(rk));
    expect_bitwise_equal(res[rk], ref);
    EXPECT_GT(recs[rk].total_events(), 0u);
    EXPECT_FALSE(res[rk].metrics.empty());
  }
}

// The service dimension: heterogeneous draws submitted to one
// SolverService — concurrent jobs on a shared lane budget, with live
// cross-job donation as finishers leave — must land on the same dense
// single-worker reference bits as their standalone solves. Multi-
// tenancy is an execution knob like worker count: arithmetically
// invisible.
TEST(CrossPathEquivalence, ServiceJobsMatchDenseReferenceBitwise) {
  const std::vector<Draw> draws = {
      {3, 4, 0, TransportKind::kInProc, 4, true},
      {3, 0, 2, TransportKind::kInProc, 2, true},
      {4, 1, 0, TransportKind::kInProc, 4, false},
      {3, 4, 2, TransportKind::kProc, 2, true},
  };

  SolverServiceOptions so;
  so.total_lanes = 4;
  so.max_concurrent = static_cast<int>(draws.size());
  SolverService service(so);
  std::vector<SolverService::JobId> ids;
  for (const Draw& d : draws) {
    JobSpec spec;
    Ls3dfOptions lo = base_options(d.ncells);
    lo.batch_width = d.batch_width;
    lo.n_shards = d.n_shards;
    lo.transport = d.transport;
    lo.n_workers = d.workers;
    lo.donate = d.donate;
    spec.options = lo;
    ids.push_back(service.submit(h2_chain(d.ncells), std::move(spec)));
  }
  service.drain();

  for (std::size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE(draws[i].describe(0, static_cast<int>(i)));
    const JobStatus st = service.status(ids[i]);
    ASSERT_EQ(st.state, JobState::kDone) << st.error;
    expect_bitwise_equal(service.result(ids[i]),
                         chain_reference(draws[i].ncells));
  }
}

// The frozen reference: every golden corner's reference-shape solve
// reproduces its committed digest. The draws above compare execution
// shapes to an in-run reference; this pins that reference to bits that
// no code path has to be kept alive to reproduce.
TEST(CrossPathEquivalence, ReferenceSolvesMatchGoldenDigests) {
  const auto expect_digest = [](const char* corner, const Ls3dfResult& r,
                                std::uint64_t digest) {
    EXPECT_EQ(golden::result_digest(r), digest)
        << corner << std::hex << ": got 0x" << golden::result_digest(r);
  };
  expect_digest("chain3", chain_reference(3), golden::kChain3);
  expect_digest("chain4", chain_reference(4), golden::kChain4);
  expect_digest("zchain4",
                Ls3dfSolver(golden::z_chain(),
                            reference_shape(golden::z_chain_options()))
                    .solve(),
                golden::kZChain4);
}

}  // namespace
}  // namespace ls3df
