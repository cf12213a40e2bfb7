#include "cactus/exchange3d.hpp"

#include <stdexcept>
#include <vector>

#include "part/halo.hpp"
#include "trace/trace.hpp"

namespace vpar::cactus {

namespace {
constexpr int G = GridFunctions::kGhost;
constexpr int kHaloTagBase = 200;  ///< the historical 200+axis tag range
}  // namespace

Decomp3D::Decomp3D(std::size_t nx, std::size_t ny, std::size_t nz, int px, int py,
                   int pz, int rank, bool periodic_in)
    : n{nx, ny, nz},
      p{px, py, pz},
      periodic(periodic_in),
      partition(part::Extent<3>{{nx, ny, nz}}, {px, py, pz},
                {periodic_in, periodic_in, periodic_in}) {
  partition.grid().check_rank(rank);
  const auto coords = partition.coords_of(rank);
  for (int a = 0; a < 3; ++a) {
    if (n[a] % static_cast<std::size_t>(p[a]) != 0) {
      throw std::runtime_error("Decomp3D: grid not divisible by processor grid");
    }
    c[a] = coords[static_cast<std::size_t>(a)];
    nl[a] = partition.axis_extent(static_cast<std::size_t>(a), c[a]);
    if (nl[a] < 2 * G) {
      throw std::runtime_error("Decomp3D: local block smaller than ghost width");
    }
  }
  const auto g = static_cast<std::size_t>(G);
  halo = part::plan_halo(partition, rank,
                         part::HaloSpec<3>{{{g, g, g}}, kHaloTagBase});
}

int Decomp3D::rank_of(int ci, int cj, int ck) const {
  const std::array<int, 3> m = {((ci % p[0]) + p[0]) % p[0],
                                ((cj % p[1]) + p[1]) % p[1],
                                ((ck % p[2]) + p[2]) % p[2]};
  return partition.rank_of(m);
}

void exchange_ghosts(simrt::Communicator& comm, const Decomp3D& d,
                     GridFunctions& gf) {
  trace::TraceSpan span("cactus.exchange3d", d.nl[0],
                        static_cast<std::int64_t>(d.nl[1]) * d.nl[2]);
  // Axis-ordered sweeps with earlier axes' ghosts included in later sweeps'
  // face boxes (plan_halo's phase structure): edges and corners propagate
  // without diagonal messages. Receives are posted before packing, so
  // arriving faces land in place while this rank packs its own — each axis
  // sweep is one overlap window.
  const std::size_t g = static_cast<std::size_t>(G);
  const part::TileLayout<3> layout =
      part::TileLayout<3>::make({{d.nl[0], d.nl[1], d.nl[2]}}, {{g, g, g}});

  std::vector<double*> fields;
  fields.reserve(static_cast<std::size_t>(gf.nfields()));
  for (int f = 0; f < gf.nfields(); ++f) fields.push_back(gf.field(f));
  part::exchange_halo(comm, d.halo, layout,
                      std::span<double* const>(fields.data(), fields.size()));
}

}  // namespace vpar::cactus
