#pragma once

#include <array>
#include <cstddef>

#include "cactus/grid.hpp"
#include "part/halo.hpp"
#include "part/partition.hpp"
#include "simrt/communicator.hpp"

namespace vpar::cactus {

/// Block distribution of the global 3D grid over a (px, py, pz) processor
/// grid, optionally periodic. Non-periodic faces are where the radiation
/// boundary condition applies. Built on part::BlockPartition<3>, whose
/// axis-0-fastest linearization matches the rank = (ck*py + cj)*px + ci
/// convention this struct always used; the flat fields stay because the
/// kernels index through them.
struct Decomp3D {
  Decomp3D(std::size_t nx, std::size_t ny, std::size_t nz, int px, int py, int pz,
           int rank, bool periodic);

  std::size_t n[3];   ///< global extents (x, y, z)
  int p[3];           ///< processor grid
  int c[3];           ///< this rank's coordinates
  std::size_t nl[3];  ///< local extents
  bool periodic;
  part::BlockPartition<3> partition;  ///< the decomposition behind the above
  /// This rank's ghost exchange, planned once: exchange_ghosts reuses it
  /// and the receive buffers it keeps.
  part::HaloSchedule<3> halo;

  [[nodiscard]] int rank() const { return partition.rank_of({c[0], c[1], c[2]}); }
  [[nodiscard]] int rank_of(int ci, int cj, int ck) const;

  /// Neighbour rank along `axis` in direction `dir` (-1 or +1), or -1 when
  /// the face is a non-periodic global boundary.
  [[nodiscard]] int neighbor(int axis, int dir) const {
    return partition.neighbor(rank(), static_cast<std::size_t>(axis), dir);
  }

  [[nodiscard]] bool at_min(int axis) const { return c[axis] == 0; }
  [[nodiscard]] bool at_max(int axis) const { return c[axis] == p[axis] - 1; }

  /// Global index of this rank's first interior cell along `axis`.
  [[nodiscard]] std::size_t origin(int axis) const {
    return partition.axis_origin(static_cast<std::size_t>(axis), c[axis]);
  }
};

/// Fill the two-deep ghost zones of all fields from face neighbours using
/// three sweeps (x, then y including x ghosts, then z including x/y ghosts)
/// so edges and corners are carried without diagonal messages — the standard
/// Cactus driver pattern (paper Figure 6), now planned and executed by
/// part::plan_halo / part::exchange_halo. Non-periodic global faces are left
/// untouched; ghost contents are bitwise identical to the historical
/// hand-rolled exchange.
void exchange_ghosts(simrt::Communicator& comm, const Decomp3D& d,
                     GridFunctions& gf);

}  // namespace vpar::cactus
