// Golden digests: the frozen bits of the reference solves.
//
// Every execution shape of Ls3dfSolver (worker count, batch width, shard
// count, transport, donation, tracing, service multiplexing) must land on
// the same bits. The suites check that by comparing each shape against an
// in-run reference solve; this table pins the reference itself, so the
// contract is anchored to committed numbers rather than to a second code
// path that has to be kept alive for comparison.
//
// A digest is FNV-1a (the checkpoint Fingerprint hash) over the raw bits
// of rho, v_eff, conv_history, charge_patch_error and energy.total. The
// digests were generated by the dense phased single-worker path
// (per-fragment PEtot_F, n_shards 0, donation off), and every execution
// shape reproduces them. They bind to IEEE-754 double arithmetic as
// compiled for the baseline x86-64 ISA (no FMA contraction) and to the
// C library's exp/log/pow. A change that moves the bits on purpose (a
// new FFT, a different reduction order) regenerates the table in the
// same commit and records the old and new digests in CHANGES.md.
//
// The corners:
//   chain3 / chain4 - base_options on a 3- and 4-cell H2 chain divided
//                     along x (the cross-path equivalence suite's two
//                     divisions);
//   zchain4         - the skewed 1x1x4 division of bench_kernels (two
//                     size classes with ~2x cost skew), two outer
//                     iterations.
#pragma once

#include <cstddef>
#include <cstdint>

#include "checkpoint/snapshot.h"
#include "fragment/ls3df.h"

namespace ls3df {
namespace golden {

// An ncells-cell H2 chain along x, one molecule per cubic cell.
inline Structure h2_chain(int ncells, double a = 6.0) {
  Structure s(Lattice({a * ncells, a, a}));
  for (int c = 0; c < ncells; ++c) {
    s.add_atom(Species::kH, {a * c + 0.5 * a - 0.7, 0.5 * a, 0.5 * a});
    s.add_atom(Species::kH, {a * c + 0.5 * a + 0.7, 0.5 * a, 0.5 * a});
  }
  return s;
}

// Cheap-but-real solver settings for the x-chains. Only execution knobs
// may vary on top of these, so every shape reproduces the same bits.
inline Ls3dfOptions base_options(int ncells) {
  Ls3dfOptions lo;
  lo.division = {ncells, 1, 1};
  lo.points_per_cell = 8;
  lo.ecut = 1.0;
  lo.buffer_points = 4;
  lo.extra_bands = 3;
  lo.eig.max_iterations = 6;
  lo.max_iterations = 2;
  lo.l1_tol = 0.0;  // fixed iteration count: compare full trajectories
  return lo;
}

// The 8-fragment 1x1x4 problem: four cells along z give four size-2 and
// four size-1 fragments (a 2x2x2 division is structurally degenerate in
// LS3DF and rejected by the solver).
inline Structure z_chain() {
  const double a = 6.0;
  Structure s(Lattice({a, a, 4 * a}));
  for (int c = 0; c < 4; ++c) {
    s.add_atom(Species::kH, {0.5 * a, 0.5 * a, a * c + 0.5 * a - 0.7});
    s.add_atom(Species::kH, {0.5 * a, 0.5 * a, a * c + 0.5 * a + 0.7});
  }
  return s;
}

inline Ls3dfOptions z_chain_options() {
  Ls3dfOptions lo;
  lo.division = {1, 1, 4};
  lo.points_per_cell = 8;
  lo.ecut = 1.0;
  lo.buffer_points = 4;
  lo.extra_bands = 3;
  lo.eig.max_iterations = 8;
  lo.max_iterations = 2;
  lo.l1_tol = 0.0;
  return lo;
}

inline std::uint64_t result_digest(const Ls3dfResult& r) {
  Fingerprint fp;
  static const char kTag[] = "ls3df-golden-v1";
  fp.mix_bytes(kTag, sizeof(kTag));
  const auto mix_all = [&fp](const double* p, std::size_t n) {
    fp.mix_u64(static_cast<std::uint64_t>(n));
    for (std::size_t i = 0; i < n; ++i) fp.mix_double(p[i]);
  };
  mix_all(r.rho.data(), r.rho.size());
  mix_all(r.v_eff.data(), r.v_eff.size());
  mix_all(r.conv_history.data(), r.conv_history.size());
  fp.mix_double(r.charge_patch_error);
  fp.mix_double(r.energy.total);
  return fp.value();
}

constexpr std::uint64_t kChain3 = 0xc50b8a413a88d87dull;
constexpr std::uint64_t kChain4 = 0xfbcca5dd354aa55full;
constexpr std::uint64_t kZChain4 = 0x58120bc6a5291814ull;

}  // namespace golden
}  // namespace ls3df
