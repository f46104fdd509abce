// Kernel and phase-hook probes, run at the shapes a workload's solve
// actually uses. Each probe times calls into one layer's public
// functions from the outside; flops and bytes are computed from the
// FlopCounter formulas and the array sizes, not measured.
#pragma once

#include <cstdint>

#include "atoms/structure.h"
#include "fragment/ls3df.h"
#include "stats.h"

namespace perfbench {

// The fragment the probes model: the costliest one by the solver's
// fragment_costs(), with its box grid, basis size and band count derived
// from division, points_per_cell, buffer_points, ecut and
// fragment_electrons() the way the solver derives them. The derivation
// is one op in `ops`: it fails unless the shape's analytic cost and atom
// count equal the solver's fragment_costs() and fragment_atom_count().
struct FragmentShape {
  int fragment = 0;
  ls3df::Vec3i grid{0, 0, 0};
  int n_basis = 0;
  int n_bands = 0;
  ls3df::Structure box;  // the fragment's atoms, in box coordinates
};

FragmentShape costliest_fragment(const ls3df::Structure& s,
                                 const ls3df::Ls3dfOptions& opt,
                                 OpTally& ops);

// fft.*, linalg.*, dft.apply_us_per_band, poisson.solve_us, xc.lda_us at
// the fragment shape (and the global grid for Poisson/xc). `n_workers`
// is the lane count forward_many fans out over.
void kernel_probes(const ls3df::Structure& s, const ls3df::Ls3dfOptions& opt,
                   const FragmentShape& shape, int n_workers,
                   std::uint64_t seed, MetricMap& out);

// One pass of each phase hook (gen_vf, petot_f, gen_dens, genpot) on a
// fresh solver fed the bare ionic potential: fragment.hook_*_s.
void phase_hook_probes(const ls3df::Structure& s,
                       const ls3df::Ls3dfOptions& opt, MetricMap& out);

}  // namespace perfbench
