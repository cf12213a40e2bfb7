#pragma once

#include <array>
#include <cstddef>

#include "part/halo.hpp"
#include "qcd/lattice.hpp"

namespace vpar::qcd {

/// Even/odd half-lattice geometry of one rank: the local half extents
/// (nxh = nxl/2, nyl, nzl, ntl) with a one-site ghost shell, plus the
/// global origin needed for the staggered phases and parity offsets.
struct HalfGeom {
  part::Extent<4> n{};       ///< local half extents
  part::TileLayout<4> layout{};
  part::Index<4> origin{};   ///< global (x, y, z, t) of local site 0 (full x!)
};

namespace detail {

/// Per-row kernel arguments: output rows of the target parity and, per
/// direction, the source-parity neighbor rows (x offsets already applied),
/// plus the row-constant staggered phases.
struct RowPointers {
  std::array<double*, kPlanes> out{};
  std::array<std::array<const double*, kPlanes>, 4> fwd{};
  std::array<std::array<const double*, kPlanes>, 4> bwd{};
  std::array<double, 4> eta{};
};

/// Scalar reference row kernel (the W=1 instantiation of the shared body).
void dslash_row(const RowPointers& p, std::size_t n);

/// Runtime-dispatched SIMD row kernel: bitwise identical to dslash_row at
/// every width (shared expression tree, -ffp-contract=off). Records no
/// simd.* metrics: apply_dslash records the whole sweep once.
void dslash_row_simd(const RowPointers& p, std::size_t n);

}  // namespace detail

/// Apply the staggered Dslash: out (parity `target_parity`) from src (the
/// opposite parity), whose ghosts must be current. Rows are served through
/// simrt::parallel_for (rows write disjoint output rows, so hybrid helpers
/// are bitwise-safe); within a row the kernel dispatches scalar or SIMD.
/// Records the "dslash" kernel loop with perf, the sweep's simd.* spans once
/// per call, and bumps qcd.* meters.
void apply_dslash(std::array<double*, kPlanes> out,
                  std::array<const double*, kPlanes> src, const HalfGeom& geom,
                  int target_parity);

}  // namespace vpar::qcd
