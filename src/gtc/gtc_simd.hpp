#pragma once

#include <cstddef>
#include <cstdint>

#include "gtc/particles.hpp"
#include "gtc/torus_grid.hpp"

namespace vpar::gtc::detail {

/// Lanes of the widest stencil strip (AVX-512: 8 doubles).
inline constexpr std::size_t kStripLanes = 8;

/// The 32-point stencils (compute_stencil) of W consecutive markers,
/// lane-transposed: lane l of every array belongs to marker i0 + l, so the
/// weight arithmetic runs on contiguous vector loads. Lane l's upper plane
/// is plane[l] + 1 (it may be the ghost plane); cells are int32 offsets
/// within a plane (TorusGrid bounds a rank's planes below 2^31 points).
struct StencilStrip {
  std::int32_t plane[kStripLanes];
  double wplane[2][kStripLanes];
  std::int32_t cell[16][kStripLanes];
  double wcell[16][kStripLanes];
};

/// Build the strip of markers [i0, i0 + W) at the active SIMD width W, which
/// it returns (i0 + W <= particles.size()). Every lane equals compute_stencil
/// of its marker bitwise: the vector build takes the six distinct periodic
/// wraps of the ring (points 0 and 2 share y's, points 1 and 3 share x's)
/// and truncates zeta's plane before the clamp; a lane whose ring point
/// leaves [-n, 2n) takes compute_stencil itself. At width 1 lane 0 is
/// compute_stencil's.
std::size_t build_stencil_strip(const ParticleSet& particles,
                                const TorusGrid& grid, std::size_t i0,
                                StencilStrip& out);

/// SIMD gather-push of markers [lo, lo + (hi - lo) / W * W), one strip of W
/// markers at a time: stencil strips, the 32 weighted field terms
/// accumulated in vectors in the scalar order (a hardware gather at W = 8,
/// from ex/ey planes [0, planes_local] of the grid, ghost included), and the
/// drift's periodic wrap as selects. Bitwise identical to the scalar push.
/// Returns the first marker it left — the ragged tail, which the caller
/// pushes with the scalar reference. Safe to call from parallel_for span
/// callbacks (writes only slots [lo, hi)).
std::size_t gather_push_strips(ParticleSet& particles, const TorusGrid& grid,
                               double dt, double b0, std::size_t lo,
                               std::size_t hi);

/// Deposit markers [lo, lo + (hi - lo) / W * W) into `charge_base` (planes
/// [0, planes_local] of grid.plane_size() points): stencils built a vector
/// strip at a time, then the scalar scatter in marker order — bitwise the
/// scalar deposit. Returns the first marker it left for the caller's scalar
/// reference.
std::size_t deposit_strips(const ParticleSet& particles, const TorusGrid& grid,
                           double* charge_base, std::size_t lo, std::size_t hi);

/// SIMD charge-fold sweep: charge[k] += w[k]; w[k] = 0 for k in [0, n) —
/// element-wise, so bitwise identical to the scalar loop. Used by the
/// WorkVector and Hybrid deposit reductions.
void deposit_fold_simd(double* charge, double* w, std::size_t n);

}  // namespace vpar::gtc::detail
