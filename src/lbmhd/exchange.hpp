#pragma once

#include <optional>

#include "lbmhd/field_set.hpp"
#include "part/halo.hpp"
#include "part/partition.hpp"
#include "simrt/coarray.hpp"
#include "simrt/communicator.hpp"

namespace vpar::lbmhd {

/// Block distribution of the periodic global grid over a 2D processor grid
/// (paper Section 3: "block distributed over a 2D processor grid"). Built on
/// part::BlockPartition<2>, whose axis-0-fastest linearization is exactly the
/// rank = pj*px + pi convention this struct always used; the flat fields stay
/// because the kernels and the CAF port index through them.
struct Decomp2D {
  Decomp2D(std::size_t nx, std::size_t ny, int px, int py, int rank);

  std::size_t nx, ny;    ///< global extents
  int px, py;            ///< processor grid
  int pi, pj;            ///< this rank's coordinates (pi: x, pj: y)
  std::size_t nxl, nyl;  ///< local extents
  part::BlockPartition<2> partition;  ///< the torus behind the fields above
  /// This rank's ghost exchange, planned once: exchange_mpi reuses it and
  /// the receive buffers it keeps.
  part::HaloSchedule<2> halo;

  [[nodiscard]] int rank() const { return partition.rank_of({pi, pj}); }
  [[nodiscard]] int rank_of(int ci, int cj) const {
    const int mi = ((ci % px) + px) % px;
    const int mj = ((cj % py) + py) % py;
    return partition.rank_of({mi, mj});
  }
  [[nodiscard]] int east() const { return partition.neighbor(rank(), 0, +1); }
  [[nodiscard]] int west() const { return partition.neighbor(rank(), 0, -1); }
  [[nodiscard]] int north() const { return partition.neighbor(rank(), 1, +1); }
  [[nodiscard]] int south() const { return partition.neighbor(rank(), 1, -1); }

  /// Global coordinates of this rank's first interior cell.
  [[nodiscard]] std::size_t x0() const {
    return partition.axis_origin(0, pi);
  }
  [[nodiscard]] std::size_t y0() const {
    return partition.axis_origin(1, pj);
  }
};

/// Two-phase MPI ghost exchange, lowered onto part::plan_halo /
/// part::exchange_halo: boundary columns of all planes are packed into one
/// buffer per face (reducing message count, as the paper's MPI port does),
/// exchanged east/west, then full-width rows — carrying the fresh corner
/// data — are exchanged north/south. Ghost contents after the call are
/// bitwise identical to the historical hand-rolled exchange.
void exchange_mpi(simrt::Communicator& comm, const Decomp2D& d, FieldSet& fields);

/// One-sided CAF ghost exchange: each image puts its boundary strips
/// directly into its neighbours' ghost zones via co-array writes, with
/// sync_all separating the epochs. No packing and no intermediate message
/// copies, but many small transfers — the trade-off the paper measures.
/// `block_offset` is the element offset of `fields` inside each image's
/// co-array block (the two time levels alternate halves of the block).
void exchange_caf(simrt::CoArray<double>& fields_coarray, const Decomp2D& d,
                  FieldSet& fields, std::size_t block_offset = 0);

}  // namespace vpar::lbmhd
