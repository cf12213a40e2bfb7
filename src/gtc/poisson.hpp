#pragma once

#include "gtc/torus_grid.hpp"

namespace vpar::gtc {

/// Solve the perpendicular Poisson equation  -Lap_perp phi = rho  on every
/// locally owned toroidal plane with a 2D FFT spectral solve (periodic
/// cross-section, zero-mean gauge: the k=0 mode is set to zero), then take
/// E = -grad phi there. Reads grid.charge (owned planes only) and writes
/// grid.phi and the owned planes of grid.ex/ey, not their ghost plane. One
/// parallel_for over the planes: each plane's phi and E come out bitwise
/// the same however the planes are spread over threads.
void solve_poisson(TorusGrid& grid);

/// Compute E = -grad phi on every owned plane with periodic central
/// differences, writing grid.ex/ey (owned planes) — the same per-plane sweep
/// solve_poisson ends with, for callers that set phi themselves.
void compute_efield(TorusGrid& grid);

}  // namespace vpar::gtc
