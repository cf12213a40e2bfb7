#pragma once

#include <array>
#include <cmath>
#include <cstddef>

#include "gtc/particles.hpp"
#include "gtc/torus_grid.hpp"

namespace vpar::gtc {

/// Charge-deposition implementations (paper §6.1, Figure 8):
///  - Scatter:    classic direct scatter-add. Multiple particles may update
///                the same grid point, a memory dependency the vector
///                compilers cannot prove away — unvectorizable.
///  - WorkVector: the Nishiguchi/Orii/Yabe work-vector algorithm the ES/X1
///                ports use: the grid gains an extra dimension of the vector
///                length so each vector lane owns a private copy, followed
///                by a reduction. Vectorizes fully at the cost of a 2-8x
///                memory-footprint increase.
///  - Sorted:     counting-sort particles by cell, then deposit in cell
///                order (conflict-free groups); trades extra integer work
///                and data movement for vectorizability.
///  - Hybrid:     the paper's MPI+OpenMP mode under the simrt pool: the
///                particle range is cut into kHybridDepositChunks fixed
///                chunks served by simrt::parallel_for, each accumulating
///                into a private grid copy, folded into the charge grid in
///                ascending chunk order. Because the partition and the fold
///                order are fixed (independent of how many pool workers
///                participate), the result is bitwise identical whether the
///                loop ran serial or across helpers.
/// All variants produce the same charge field up to floating-point
/// summation order.
enum class DepositVariant { Scatter, WorkVector, Sorted, Hybrid };

/// Fixed chunk count of DepositVariant::Hybrid (the determinism contract
/// above). 8 private grid copies — the same memory blow-up class as a
/// vlen-8 work vector.
inline constexpr std::size_t kHybridDepositChunks = 8;

/// Periodic wrap of a coordinate into [0, n). The overwhelmingly common case
/// is a coordinate at most one period out of range (a drift step or ring
/// point just across the boundary); fmod — an order of magnitude slower —
/// only runs for far-out values. Bitwise identical to the plain
/// fmod-then-fixup formulation: for v in [n, 2n) the direct subtraction is
/// exact (Sterbenz) and equals the exact fmod; for v in (-n, 0), fmod(v, n)
/// == v exactly, so both forms compute the same v + n.
inline double wrap_periodic(double v, double n) {
  // For v in (-ulp(n)/2, 0), v + n rounds to n itself: map it to its
  // periodic image 0.0 so the result stays in [0, n).
  auto add_period = [n](double neg) {
    const double w = neg + n;
    return w < n ? w : 0.0;
  };
  if (v >= 0.0 && v < n) return v;
  if (v >= n && v < n + n) return v - n;
  if (v < 0.0 && v >= -n) return add_period(v);
  v = std::fmod(v, n);
  return v < 0.0 ? add_period(v) : v;
}

/// Gyro-averaged 4-point deposition stencil of one marker: the charge ring
/// is sampled at four points, each bilinearly spread onto four grid points,
/// on the two toroidal planes bracketing the marker.
struct DepositStencil {
  int plane[2];          ///< local plane indices (second may be the ghost)
  double wplane[2];      ///< linear weights along zeta
  std::size_t cell[16];  ///< flattened ring-point x bilinear-corner cells
  double wcell[16];      ///< corresponding weights (sum to 1)
};

/// Build the stencil for marker (x, y, zeta, rho). zeta must lie in this
/// rank's domain.
void compute_stencil(const TorusGrid& grid, double x, double y, double zeta,
                     double rho, DepositStencil& out);

/// Accumulate all markers' charge into grid.charge(). The caller zeroes the
/// charge array and flushes the ghost plane afterwards.
void deposit(const ParticleSet& particles, TorusGrid& grid, DepositVariant variant,
             std::size_t vlen = 256);

/// Hybrid loop-level parallel deposition (the paper's MPI/OpenMP mode, 6.1):
/// the particle loop is split across `threads` host threads, each with a
/// private grid copy (like a coarse work-vector), followed by a reduction.
/// Physics identical to Scatter up to floating-point summation order.
void deposit_threaded(const ParticleSet& particles, TorusGrid& grid, int threads);

/// Bookkeeping constants.
[[nodiscard]] double deposition_flops_per_particle();

}  // namespace vpar::gtc
