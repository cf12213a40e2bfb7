#include "lbmhd/exchange.hpp"

#include <array>
#include <stdexcept>
#include <vector>

#include "part/halo.hpp"
#include "perf/recorder.hpp"

namespace vpar::lbmhd {

namespace {
constexpr int G = FieldSet::kGhost;
constexpr int kHaloTagBase = 101;  ///< the historical kTagX..kTagY2 range

// Validated before the partition member is built, preserving the historical
// contract that any degenerate Decomp2D throws std::runtime_error.
std::array<int, 2> checked_dims(int px, int py) {
  if (px < 1 || py < 1) {
    throw std::runtime_error("Decomp2D: processor grid must be >= 1 per axis");
  }
  return {px, py};
}
}  // namespace

Decomp2D::Decomp2D(std::size_t nx_in, std::size_t ny_in, int px_in, int py_in,
                   int rank)
    : nx(nx_in),
      ny(ny_in),
      px(px_in),
      py(py_in),
      partition(part::Extent<2>{{nx_in, ny_in}}, checked_dims(px_in, py_in),
                {true, true}) {
  if (nx % static_cast<std::size_t>(px) != 0 ||
      ny % static_cast<std::size_t>(py) != 0) {
    throw std::runtime_error("Decomp2D: grid not divisible by processor grid");
  }
  partition.grid().check_rank(rank);
  const auto c = partition.coords_of(rank);
  pi = c[0];
  pj = c[1];
  const part::Extent<2> local = partition.local_extent(rank);
  nxl = local[0];
  nyl = local[1];
  if (nxl < 2 * G || nyl < 2 * G) {
    throw std::runtime_error("Decomp2D: local block smaller than ghost width");
  }
  const auto g = static_cast<std::size_t>(G);
  halo = part::plan_halo(partition, rank,
                         part::HaloSpec<2>{{{g, g}}, kHaloTagBase});
}

void exchange_mpi(simrt::Communicator& comm, const Decomp2D& d, FieldSet& fields) {
  const std::size_t nxl = fields.nxl(), nyl = fields.nyl();
  const std::size_t stride = fields.stride();

  // The x phase exchanges interior-height boundary columns, the y phase
  // full-width rows that carry the fresh corners — exactly the axis-ordered
  // sweep plan_halo produces for a 2D torus. Receives are posted before any
  // packing (exchange_halo's phase structure), so arriving boundary data
  // lands while this rank is still packing its own — the overlap window the
  // machine models credit on platforms with asynchronous progress.
  part::TileLayout<2> layout = part::TileLayout<2>::make(
      {{nxl, nyl}}, {{static_cast<std::size_t>(G), static_cast<std::size_t>(G)}});

  std::array<double*, FieldSet::kPlanes> planes{};
  for (int p = 0; p < FieldSet::kPlanes; ++p) planes[static_cast<std::size_t>(p)] = fields.plane(p);
  part::exchange_halo(comm, d.halo, layout,
                      std::span<double* const>(planes.data(), planes.size()));

  // Buffer packing/unpacking is user-level copy traffic the CAF port avoids
  // (the paper credits CAF with a 3x memory-traffic reduction on the halo
  // path: no user pack + no system-level MPI copy).
  const std::size_t xcount =
      static_cast<std::size_t>(FieldSet::kPlanes) * nyl * G;
  const std::size_t ycount =
      static_cast<std::size_t>(FieldSet::kPlanes) * G * stride;
  perf::LoopRecord rec;
  rec.vectorizable = true;
  rec.instances = 4.0;  // pack east/west + unpack west/east ghost strips
  rec.trips = static_cast<double>(xcount + ycount) / 2.0;
  rec.flops_per_trip = 0.0;
  rec.bytes_per_trip = 2.0 * sizeof(double) * 2.0;  // copy in + MPI system copy
  rec.access = perf::AccessPattern::Strided;
  perf::record_loop("comm_pack", rec);
}

void exchange_caf(simrt::CoArray<double>& ca, const Decomp2D& d, FieldSet& fields,
                  std::size_t block_offset) {
  const std::size_t nxl = fields.nxl(), nyl = fields.nyl();
  const std::size_t stride = fields.stride();
  const std::size_t plane_size = fields.plane_size();

  ca.sync_all();  // neighbours finished updating their interiors

  // --- X phase: put my boundary columns into neighbours' ghost columns.
  // CAF subscript notation on a non-contiguous face: one small put per
  // (plane, row) — many short messages, exactly the behaviour the paper
  // attributes to the CAF port. The puts are fire-and-forget stores that
  // retire while the loop keeps streaming: an overlap window until the
  // closing sync_all.
  perf::OverlapScope window;
  for (int p = 0; p < FieldSet::kPlanes; ++p) {
    const double* plane = fields.plane(p);
    const std::size_t pbase = block_offset + static_cast<std::size_t>(p) * plane_size;
    for (std::size_t j = 0; j < nyl; ++j) {
      const std::size_t row = fields.at(static_cast<std::ptrdiff_t>(j), 0);
      // East boundary -> east image's west ghosts (columns -G..-1).
      ca.put(d.east(), pbase + fields.at(static_cast<std::ptrdiff_t>(j), -G),
             std::span<const double>(plane + row + nxl - G, G));
      // West boundary -> west image's east ghosts (columns nxl..nxl+G-1).
      ca.put(d.west(),
             pbase + fields.at(static_cast<std::ptrdiff_t>(j),
                               static_cast<std::ptrdiff_t>(nxl)),
             std::span<const double>(plane + row, G));
    }
  }
  ca.sync_all();  // x ghosts visible before rows (with corners) move

  // --- Y phase: full-width contiguous rows, one put per (plane, ghost row).
  for (int p = 0; p < FieldSet::kPlanes; ++p) {
    const double* plane = fields.plane(p);
    const std::size_t pbase = block_offset + static_cast<std::size_t>(p) * plane_size;
    for (int g = 0; g < G; ++g) {
      const double* top =
          plane + fields.at(static_cast<std::ptrdiff_t>(nyl) - G + g, -G);
      ca.put(d.north(), pbase + fields.at(-G + g, -G),
             std::span<const double>(top, stride));
      const double* bottom = plane + fields.at(g, -G);
      ca.put(d.south(), pbase + fields.at(static_cast<std::ptrdiff_t>(nyl) + g, -G),
             std::span<const double>(bottom, stride));
    }
  }
  ca.sync_all();
}

}  // namespace vpar::lbmhd
