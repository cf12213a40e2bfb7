#include "qcd/simulation.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace vpar::qcd {

namespace {

constexpr int kBaseTag = 300;  ///< halo tags 300..307 (4 axes x 2 directions)

/// SplitMix64-style position hash: deterministic, decomposition-independent.
double site_value(std::ptrdiff_t gx, std::ptrdiff_t gy, std::ptrdiff_t gz,
                  std::ptrdiff_t gt, std::size_t plane) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t v :
       {static_cast<std::uint64_t>(gx), static_cast<std::uint64_t>(gy),
        static_cast<std::uint64_t>(gz), static_cast<std::uint64_t>(gt),
        static_cast<std::uint64_t>(plane)}) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
  }
  // Map to [-1, 1) in exact steps of 2^-15.
  return static_cast<double>(static_cast<std::int64_t>(h >> 48) - 32768) /
         32768.0;
}

}  // namespace

std::array<int, 4> Simulation::resolve_dims(const Options& o, int ranks) {
  if (o.nx % 2 != 0) {
    throw std::runtime_error("qcd: nx must be even (even/odd split)");
  }
  const std::array<std::size_t, 4> half_ext{o.nx / 2, o.ny, o.nz, o.nt};
  std::array<int, 4> dims = o.dims;
  part::factor_rank_grid(ranks, half_ext, dims);
  // Every rank needs an even full-x block so the checkerboard origin parity
  // is uniform; if the auto-factorization landed x factors that break this,
  // refactor with the x axis pinned serial.
  if (o.nx % (2 * static_cast<std::size_t>(dims[0])) != 0 &&
      o.dims[0] == 0) {
    dims = o.dims;
    dims[0] = 1;
    part::factor_rank_grid(ranks, half_ext, dims);
  }
  return dims;
}

Simulation::Simulation(simrt::Communicator& comm, const Options& options)
    : comm_(&comm),
      options_(options),
      half_(part::Extent<4>{{options.nx / 2, options.ny, options.nz,
                             options.nt}},
            resolve_dims(options, comm.size()),
            {true, true, true, true}) {
  if (half_.size() != comm.size()) {
    throw std::runtime_error("qcd: dims product != communicator size");
  }
  const auto dims = half_.grid().dims;
  if (options_.nx % (2 * static_cast<std::size_t>(dims[0])) != 0 ||
      options_.ny % static_cast<std::size_t>(dims[1]) != 0 ||
      options_.nz % static_cast<std::size_t>(dims[2]) != 0 ||
      options_.nt % static_cast<std::size_t>(dims[3]) != 0) {
    // x must split into even blocks; y/z/t may be uneven (BlockPartition
    // front-loads the remainder) but a 1-deep halo needs every block >= 1.
    if (options_.nx % (2 * static_cast<std::size_t>(dims[0])) != 0) {
      throw std::runtime_error("qcd: nx must divide into even blocks");
    }
  }
  geom_.n = half_.local_extent(comm.rank());
  for (std::size_t a = 0; a < 4; ++a) {
    if (geom_.n[a] == 0) {
      throw std::runtime_error("qcd: empty local block (too many ranks)");
    }
  }
  geom_.layout = part::TileLayout<4>::make(geom_.n, {{1, 1, 1, 1}});
  const part::Index<4> o = half_.origin(comm.rank());
  geom_.origin = {{2 * o[0], o[1], o[2], o[3]}};
  // The Dslash and diagnostics() read only the 8 axis neighbours of a site:
  // no edge or corner ghost, so each exchange is one phase.
  schedule_ =
      part::plan_halo(half_, comm.rank(), {part::Extent<4>{{1, 1, 1, 1}},
                                           kBaseTag, /*corners=*/false});
  even_.assign(kPlanes * geom_.layout.total(), 0.0);
  odd_.assign(kPlanes * geom_.layout.total(), 0.0);
}

void Simulation::initialize() {
  const auto& n = geom_.n;
  for (int parity = 0; parity < 2; ++parity) {
    std::vector<double>& field = parity == 0 ? even_ : odd_;
    for (std::size_t pl = 0; pl < kPlanes; ++pl) {
      double* pp = plane(field, pl);
      for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(n[3]); ++t) {
        for (std::ptrdiff_t z = 0; z < static_cast<std::ptrdiff_t>(n[2]); ++z) {
          for (std::ptrdiff_t y = 0; y < static_cast<std::ptrdiff_t>(n[1]); ++y) {
            const std::ptrdiff_t gy = geom_.origin[1] + y;
            const std::ptrdiff_t gz = geom_.origin[2] + z;
            const std::ptrdiff_t gt = geom_.origin[3] + t;
            const std::ptrdiff_t q = (parity + gy + gz + gt) & 1;
            for (std::ptrdiff_t xh = 0; xh < static_cast<std::ptrdiff_t>(n[0]);
                 ++xh) {
              const std::ptrdiff_t gx = geom_.origin[0] + 2 * xh + q;
              pp[geom_.layout.offset({{xh, y, z, t}})] =
                  site_value(gx, gy, gz, gt, pl);
            }
          }
        }
      }
    }
  }
}

void Simulation::exchange(std::vector<double>& field) {
  trace::TraceSpan span("qcd.exchange", geom_.n[0],
                        static_cast<std::int64_t>(geom_.n[1] * geom_.n[2] *
                                                  geom_.n[3]));
  const auto p = planes(field);
  part::exchange_halo(*comm_, schedule_, geom_.layout,
                      std::span<double* const>(p.data(), p.size()));
}

void Simulation::step() {
  trace::TraceSpan span("qcd.step");
  exchange(odd_);
  apply_dslash(planes(even_), cplanes(odd_), geom_, /*target_parity=*/0);
  exchange(even_);
  apply_dslash(planes(odd_), cplanes(even_), geom_, /*target_parity=*/1);
  if (options_.normalize) {
    double n2 = local_norm2();
    comm_->allreduce_inplace(std::span<double>(&n2, 1),
                             simrt::ReduceOp::Sum);
    scale_fields(1.0 / std::sqrt(n2));
  }
  static trace::Counter& steps = trace::Metrics::instance().counter("qcd.steps");
  steps.add();
}

void Simulation::run(int steps) {
  for (int s = 0; s < steps; ++s) step();
}

double Simulation::local_norm2() {
  const auto& n = geom_.n;
  double acc = 0.0;
  for (std::vector<double>* field : {&even_, &odd_}) {
    for (std::size_t pl = 0; pl < kPlanes; ++pl) {
      const double* pp = plane(*field, pl);
      for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(n[3]); ++t) {
        for (std::ptrdiff_t z = 0; z < static_cast<std::ptrdiff_t>(n[2]); ++z) {
          for (std::ptrdiff_t y = 0; y < static_cast<std::ptrdiff_t>(n[1]); ++y) {
            const double* row = pp + geom_.layout.offset({{0, y, z, t}});
            for (std::size_t xh = 0; xh < n[0]; ++xh) {
              acc += row[xh] * row[xh];
            }
          }
        }
      }
    }
  }
  return acc;
}

void Simulation::scale_fields(double s) {
  const auto& n = geom_.n;
  for (std::vector<double>* field : {&even_, &odd_}) {
    for (std::size_t pl = 0; pl < kPlanes; ++pl) {
      double* pp = plane(*field, pl);
      for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(n[3]); ++t) {
        for (std::ptrdiff_t z = 0; z < static_cast<std::ptrdiff_t>(n[2]); ++z) {
          for (std::ptrdiff_t y = 0; y < static_cast<std::ptrdiff_t>(n[1]); ++y) {
            double* row = pp + geom_.layout.offset({{0, y, z, t}});
            for (std::size_t xh = 0; xh < n[0]; ++xh) row[xh] *= s;
          }
        }
      }
    }
  }
}

Diagnostics Simulation::diagnostics() {
  exchange(odd_);
  exchange(even_);
  const auto& n = geom_.n;
  const LinkMatrices& u = links();
  double link = 0.0;
  // Re<psi(x), U_mu psi(x+mu)> over all sites: sweep target parity 0 then 1;
  // x+mu neighbors live on the opposite parity whose ghosts are now fresh.
  for (int parity = 0; parity < 2; ++parity) {
    std::vector<double>& tgt = parity == 0 ? even_ : odd_;
    std::vector<double>& src = parity == 0 ? odd_ : even_;
    const auto tp = planes(tgt);
    const auto sp = planes(src);
    const auto sy = static_cast<std::ptrdiff_t>(geom_.layout.stride[1]);
    const auto sz = static_cast<std::ptrdiff_t>(geom_.layout.stride[2]);
    const auto st = static_cast<std::ptrdiff_t>(geom_.layout.stride[3]);
    for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(n[3]); ++t) {
      for (std::ptrdiff_t z = 0; z < static_cast<std::ptrdiff_t>(n[2]); ++z) {
        for (std::ptrdiff_t y = 0; y < static_cast<std::ptrdiff_t>(n[1]); ++y) {
          const std::ptrdiff_t gy = geom_.origin[1] + y;
          const std::ptrdiff_t gz = geom_.origin[2] + z;
          const std::ptrdiff_t gt = geom_.origin[3] + t;
          const std::ptrdiff_t q = (parity + gy + gz + gt) & 1;
          const std::size_t base = geom_.layout.offset({{0, y, z, t}});
          const std::ptrdiff_t fo[4] = {q, sy, sz, st};
          for (std::size_t xh = 0; xh < n[0]; ++xh) {
            for (std::size_t mu = 0; mu < 4; ++mu) {
              for (std::size_t c = 0; c < kColors; ++c) {
                const double pr = tp[2 * c][base + xh];
                const double pi = tp[2 * c + 1][base + xh];
                for (std::size_t d = 0; d < kColors; ++d) {
                  const double fr = sp[2 * d][base + xh + fo[mu]];
                  const double fi = sp[2 * d + 1][base + xh + fo[mu]];
                  const double ur = u.re[mu][c][d], ui = u.im[mu][c][d];
                  link += pr * (ur * fr - ui * fi) + pi * (ur * fi + ui * fr);
                }
              }
            }
          }
        }
      }
    }
  }
  double vals[2] = {local_norm2(), link};
  comm_->allreduce_inplace(std::span<double>(vals, 2), simrt::ReduceOp::Sum);
  return Diagnostics{vals[0], vals[1]};
}

Simulation::Checkpoint Simulation::save_state() const {
  return Checkpoint{even_, odd_};
}

void Simulation::restore_state(const Checkpoint& checkpoint) {
  if (checkpoint.even.size() != even_.size() ||
      checkpoint.odd.size() != odd_.size()) {
    throw std::runtime_error("qcd: checkpoint shape mismatch");
  }
  even_ = checkpoint.even;
  odd_ = checkpoint.odd;
}

std::vector<double> Simulation::gather_psi() {
  const auto& n = geom_.n;
  // Local contribution: full-lattice sites of this rank, site-major
  // (t, z, y, full-x), kPlanes values per site.
  std::vector<double> contrib;
  contrib.reserve(2 * n.volume() * kPlanes);
  for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(n[3]); ++t) {
    for (std::ptrdiff_t z = 0; z < static_cast<std::ptrdiff_t>(n[2]); ++z) {
      for (std::ptrdiff_t y = 0; y < static_cast<std::ptrdiff_t>(n[1]); ++y) {
        const std::ptrdiff_t gy = geom_.origin[1] + y;
        const std::ptrdiff_t gz = geom_.origin[2] + z;
        const std::ptrdiff_t gt = geom_.origin[3] + t;
        const std::size_t nxl = 2 * n[0];
        for (std::size_t lx = 0; lx < nxl; ++lx) {
          const std::ptrdiff_t gx =
              geom_.origin[0] + static_cast<std::ptrdiff_t>(lx);
          const int parity = static_cast<int>((gx + gy + gz + gt) & 1);
          std::vector<double>& field = parity == 0 ? even_ : odd_;
          const auto xh = static_cast<std::ptrdiff_t>(lx / 2);
          const std::size_t off = geom_.layout.offset({{xh, y, z, t}});
          for (std::size_t pl = 0; pl < kPlanes; ++pl) {
            contrib.push_back(plane(field, pl)[off]);
          }
        }
      }
    }
  }

  const std::size_t total =
      options_.nx * options_.ny * options_.nz * options_.nt * kPlanes;
  std::vector<double> flat(comm_->rank() == 0 ? total : 0);
  comm_->gather(std::span<const double>(contrib), std::span<double>(flat), 0);
  if (comm_->rank() != 0) return {};

  // Rank-ordered blocks -> global site order.
  std::vector<double> global(total);
  std::size_t consumed = 0;
  for (int r = 0; r < comm_->size(); ++r) {
    const part::Extent<4> rn = half_.local_extent(r);
    const part::Index<4> ro = half_.origin(r);
    const std::ptrdiff_t x0 = 2 * ro[0];
    for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(rn[3]); ++t) {
      for (std::ptrdiff_t z = 0; z < static_cast<std::ptrdiff_t>(rn[2]); ++z) {
        for (std::ptrdiff_t y = 0; y < static_cast<std::ptrdiff_t>(rn[1]); ++y) {
          for (std::size_t lx = 0; lx < 2 * rn[0]; ++lx) {
            const auto gx = static_cast<std::size_t>(x0) + lx;
            const auto gy = static_cast<std::size_t>(ro[1] + y);
            const auto gz = static_cast<std::size_t>(ro[2] + z);
            const auto gt = static_cast<std::size_t>(ro[3] + t);
            const std::size_t site =
                ((gt * options_.nz + gz) * options_.ny + gy) * options_.nx + gx;
            for (std::size_t pl = 0; pl < kPlanes; ++pl) {
              global[site * kPlanes + pl] = flat[consumed++];
            }
          }
        }
      }
    }
  }
  return global;
}

}  // namespace vpar::qcd
