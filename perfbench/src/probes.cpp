#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/flops.h"
#include "common/rng.h"
#include "dft/hamiltonian.h"
#include "fft/fft.h"
#include "fft/fft3d.h"
#include "grid/gvectors.h"
#include "linalg/blas.h"
#include "linalg/eigen.h"
#include "poisson/poisson.h"
#include "stats.h"
#include "xc/lda.h"

namespace perfbench {

using namespace ls3df;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median wall time of one call in µs, after one warm-up call: at least
// `min_reps` calls and at least `min_s` seconds of calls (capped at 2000).
template <typename Fn>
double median_call_us(Fn&& fn, int min_reps = 5, double min_s = 0.25) {
  fn();
  std::vector<double> us;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(us.size()) < min_reps ||
         (seconds_since(start) < min_s && us.size() < 2000)) {
    const Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(us);
}

void fill_random(std::complex<double>* p, std::size_t n, Rng& rng) {
  for (std::size_t i = 0; i < n; ++i)
    p[i] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
}

// Same rule as the solver: the largest buffer b <= b_max such that every
// fragment extent plus 2b is a 2-3-5-7-smooth FFT size.
int smooth_uniform_buffer(int p, int m, int b_max) {
  for (int b = b_max; b > 0; --b)
    if (Fft1D::is_smooth(p + 2 * b) &&
        (m < 3 || Fft1D::is_smooth(2 * p + 2 * b)))
      return b;
  return 0;
}

}  // namespace

FragmentShape costliest_fragment(const Structure& s,
                                 const Ls3dfOptions& opt, OpTally& ops) {
  Ls3dfOptions plain = opt;
  plain.n_shards = 0;
  plain.transport_factory = nullptr;
  plain.trace = nullptr;
  plain.progress = nullptr;
  const Ls3dfSolver solver(s, plain);
  // Before any solve, fragment_costs() is the solver's analytic model:
  // basis x bands^2 + basis x log2(basis) x bands.
  const std::vector<double> costs = solver.fragment_costs();
  const int f = static_cast<int>(std::max_element(costs.begin(), costs.end()) -
                                 costs.begin());
  const Fragment& frag = solver.decomposition().fragments()[f];

  const Vec3i m = opt.division;
  const int p = opt.points_per_cell;
  const Vec3d L = s.lattice().lengths();
  const Vec3d cell{L.x / m.x, L.y / m.y, L.z / m.z};
  const double margin =
      opt.atom_margin >= 0 ? opt.atom_margin : 2.5 * opt.wall_width;
  FragmentShape shape;
  shape.fragment = f;
  Vec3i buffer;
  for (int i = 0; i < 3; ++i) {
    const int want = std::min(opt.buffer_points, (m[i] - 2) * p / 2);
    buffer[i] = m[i] == 1 || frag.size[i] >= m[i] || want <= 0
                    ? 0
                    : smooth_uniform_buffer(p, m[i], want);
    shape.grid[i] = frag.size[i] * p + 2 * buffer[i];
  }
  const Lattice box({cell.x * shape.grid.x / p, cell.y * shape.grid.y / p,
                     cell.z * shape.grid.z / p});
  shape.n_basis = GVectors(box, shape.grid, opt.ecut).count();
  const int n_occ =
      static_cast<int>(std::ceil(solver.fragment_electrons(f) / 2.0));
  shape.n_bands =
      std::min(std::max(1, n_occ + opt.extra_bands), shape.n_basis);

  // Atoms whose periodic image falls in the box window, eroded by the
  // wall margin on cut axes, in box coordinates.
  shape.box = Structure(box);
  for (const Atom& atom : s.atoms()) {
    const Vec3d u = s.lattice().fractional(atom.position);
    Vec3d local;
    bool inside = true;
    for (int i = 0; i < 3 && inside; ++i) {
      const double lo = frag.corner[i] - static_cast<double>(buffer[i]) / p;
      const double erode =
          frag.size[i] < m[i]
              ? std::min(margin / cell[i], static_cast<double>(buffer[i]) / p)
              : 0.0;
      const double wlo = lo + erode;
      const double whi = lo + static_cast<double>(shape.grid[i]) / p - erode;
      const double ui = (u[i] - std::floor(u[i])) * m[i];
      inside = false;
      for (int k = -1; k <= 1 && !inside; ++k) {
        const double vi = ui + k * m[i];
        if (vi >= wlo - 1e-12 && vi < whi - 1e-12) {
          local[i] = (vi - lo) * cell[i];
          inside = true;
        }
      }
    }
    if (inside) shape.box.add_atom(atom.species, local);
  }

  // The shape above re-derives the solver's private fragment geometry;
  // it must agree with what the solver publishes about the fragment.
  const double ng = shape.n_basis, nb = shape.n_bands;
  const double cost = ng * nb * nb + ng * std::log2(std::max(2.0, ng)) * nb;
  OpOutcome o;
  o.converged = true;
  if (std::abs(cost - costs[f]) > 1e-12 * costs[f] ||
      shape.box.size() != solver.fragment_atom_count(f)) {
    o.checked_ok = false;
    o.what = "probe shape of fragment " + std::to_string(f) + ": " +
             std::to_string(shape.box.size()) + " atoms, cost " +
             std::to_string(cost) + "; the solver has " +
             std::to_string(solver.fragment_atom_count(f)) + " atoms, cost " +
             std::to_string(costs[f]);
  }
  ops.add(o);
  return shape;
}

void kernel_probes(const Structure& s, const Ls3dfOptions& opt,
                   const FragmentShape& shape, int n_workers,
                   std::uint64_t seed, MetricMap& out) {
  Rng rng(seed ^ 0x70726f6265ull);
  const Vec3i g = shape.grid;
  const std::size_t npts = static_cast<std::size_t>(g.x) * g.y * g.z;
  const int nb = shape.n_bands;

  // FFT: one forward + inverse pair per call, reported per transform.
  {
    const Fft3D fft(g);
    std::vector<std::complex<double>> data(npts);
    fill_random(data.data(), npts, rng);
    const double us = 0.5 * median_call_us([&] {
      fft.forward(data);
      fft.inverse(data);
    });
    const double flop = static_cast<double>(FlopCounter::fft3d(g.x, g.y, g.z));
    out["fft.fft3d_us"] = us;
    out["fft.fft3d_flop"] = flop;
    // In-place transform: each pass over the three axes reads and writes
    // the grid once.
    out["fft.fft3d_bytes"] = 3.0 * 2.0 * 16.0 * static_cast<double>(npts);
    out["fft.fft3d_gflops"] = flop / (us * 1e3);

    std::vector<std::complex<double>> stack(npts * nb);
    fill_random(stack.data(), stack.size(), rng);
    out["fft.many_us"] = median_call_us(
        [&] { fft.forward_many(stack.data(), nb, n_workers); });
  }

  // Hamiltonian::apply on nb bands of the fragment basis.
  {
    const GVectors basis(shape.box.lattice(), g, opt.ecut);
    Hamiltonian h(shape.box, basis);
    FieldR v(g);
    for (std::size_t i = 0; i < npts; ++i) v[i] = rng.uniform(-0.5, 0.0);
    h.set_local_potential(v);
    MatC psi(basis.count(), nb), hpsi(basis.count(), nb);
    fill_random(psi.data(), psi.size(), rng);
    const double us = median_call_us([&] { h.apply(psi, hpsi); });
    out["dft.apply_us_per_band"] = us / nb;
    // Each band's local-potential term is one inverse and one forward
    // transform of the fragment grid.
    out["fft.apply_share"] = 2.0 * nb * out["fft.fft3d_us"] / us;
  }

  // Rayleigh-Ritz shapes: the Davidson subspace is up to 2 nb wide.
  {
    const int dim = std::min(2 * nb, shape.n_basis);
    MatC a(shape.n_basis, dim), b(shape.n_basis, dim), c(dim, dim);
    fill_random(a.data(), a.size(), rng);
    fill_random(b.data(), b.size(), rng);
    const double us = median_call_us(
        [&] { gemm(Op::kConjTrans, Op::kNone, 1.0, a, b, 0.0, c); });
    const double flop =
        static_cast<double>(FlopCounter::zgemm(dim, dim, shape.n_basis));
    out["linalg.zgemm_flop"] = flop;
    out["linalg.zgemm_bytes"] =
        16.0 * static_cast<double>(a.size() + b.size() + 2 * c.size());
    out["linalg.zgemm_gflops"] = flop / (us * 1e3);

    MatC herm(dim, dim);
    for (int j = 0; j < dim; ++j)
      for (int i = j; i < dim; ++i) {
        const std::complex<double> z =
            i == j ? std::complex<double>(rng.uniform(-1.0, 1.0), 0.0)
                   : std::complex<double>(rng.uniform(-1.0, 1.0),
                                          rng.uniform(-1.0, 1.0));
        herm(i, j) = z;
        herm(j, i) = std::conj(z);
      }
    out["linalg.eigh_us"] = median_call_us([&] {
      const EighResult r = eigh(herm);
      if (r.eigenvalues.empty()) throw std::runtime_error("eigh: empty");
    });
  }

  // GENPOT kernels on the global grid with a positive density.
  {
    const Vec3i m = opt.division;
    const int p = opt.points_per_cell;
    FieldR rho({m.x * p, m.y * p, m.z * p});
    for (std::size_t i = 0; i < rho.size(); ++i)
      rho[i] = rng.uniform(0.01, 0.2);
    const double point_volume =
        s.lattice().volume() / static_cast<double>(rho.size());
    out["poisson.solve_us"] = median_call_us([&] {
      const HartreeResult r = solve_poisson(rho, s.lattice());
      if (!std::isfinite(r.energy)) throw std::runtime_error("poisson: nan");
    });
    out["xc.lda_us"] = median_call_us([&] {
      const XcResult r = lda_xc_field(rho, point_volume);
      if (!std::isfinite(r.energy)) throw std::runtime_error("xc: nan");
    });
  }
}

void phase_hook_probes(const Structure& s, const Ls3dfOptions& opt,
                       MetricMap& out) {
  Ls3dfSolver solver(s, opt);
  const auto timed = [](auto&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    return seconds_since(t0);
  };
  FieldR rho;
  out["fragment.hook_gen_vf_s"] =
      timed([&] { solver.gen_vf(solver.ionic_potential()); });
  out["fragment.hook_petot_f_s"] = timed([&] { solver.petot_f(); });
  out["fragment.hook_gen_dens_s"] = timed([&] { rho = solver.gen_dens(); });
  out["fragment.hook_genpot_s"] = timed([&] {
    const FieldR v = solver.genpot(rho);
    if (v.size() != rho.size()) throw std::runtime_error("genpot: shape");
  });
}

}  // namespace perfbench
