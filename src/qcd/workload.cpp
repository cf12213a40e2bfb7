#include "qcd/workload.hpp"

#include <stdexcept>

#include "qcd/lattice.hpp"
#include "qcd/simulation.hpp"

namespace vpar::qcd {

namespace {

/// The half-lattice partition resolve_dims would build. Rank 0 holds the
/// front-loaded (largest) blocks, which is also the critical-path rank the
/// AppProfile convention wants.
part::BlockPartition<4> half_partition(const ScalingConfig& c) {
  Options opt;
  opt.nx = c.nx;
  opt.ny = c.ny;
  opt.nz = c.nz;
  opt.nt = c.nt;
  const auto dims = Simulation::resolve_dims(opt, c.procs);
  part::BlockPartition<4> half(part::Extent<4>{{c.nx / 2, c.ny, c.nz, c.nt}},
                               dims, {true, true, true, true});
  if (half.size() != c.procs) {
    throw std::runtime_error("qcd::make_profile: dims product != procs");
  }
  return half;
}

}  // namespace

double baseline_flops(const ScalingConfig& c) {
  const double sites = static_cast<double>(c.nx) * static_cast<double>(c.ny) *
                       static_cast<double>(c.nz) * static_cast<double>(c.nt);
  return sites * static_cast<double>(c.steps) * dslash_flops_per_site();
}

std::array<double, 4> halo_bytes_per_exchange(const ScalingConfig& c) {
  const part::Extent<4> n = half_partition(c).local_extent(0);
  const double nxh = static_cast<double>(n[0]);
  const double nyl = static_cast<double>(n[1]);
  const double nzl = static_cast<double>(n[2]);
  const double ntl = static_cast<double>(n[3]);
  // The stencil reads no edge or corner ghost, so every face is
  // interior-only; both directions of an axis send the same face.
  const std::array<double, 4> face = {
      nyl * nzl * ntl,
      nxh * nzl * ntl,
      nxh * nyl * ntl,
      nxh * nyl * nzl,
  };
  std::array<double, 4> bytes{};
  for (std::size_t a = 0; a < 4; ++a) {
    bytes[a] = 2.0 * face[a] * static_cast<double>(kPlanes) * sizeof(double);
  }
  return bytes;
}

arch::AppProfile make_profile(const ScalingConfig& c) {
  if (c.threads_per_rank < 1) {
    throw std::runtime_error("qcd::make_profile: threads_per_rank < 1");
  }
  const part::BlockPartition<4> half = half_partition(c);
  const part::Extent<4> n = half.local_extent(0);
  const double nxh = static_cast<double>(n[0]);
  const double rows = static_cast<double>(n[1] * n[2] * n[3]);
  const double steps = c.steps;

  arch::AppProfile app;
  app.procs = c.procs;
  app.threads_per_rank = c.threads_per_rank;
  app.baseline_flops = baseline_flops(c);

  // --- dslash (shape mirrors apply_dslash: one record per sweep, two
  // sweeps — even and odd targets — per step) ------------------------------
  {
    perf::LoopRecord rec;
    rec.vectorizable = true;
    rec.instances = 2.0 * rows * steps;
    rec.trips = nxh;
    rec.flops_per_trip = dslash_flops_per_site();
    rec.bytes_per_trip = dslash_bytes_per_site();
    rec.access = perf::AccessPattern::Stream;
    app.kernels.record("dslash", rec);
  }

  // --- halo traffic (exchange_halo posts receives before packing, and a
  // corner-free schedule is one phase, so every exchange is one overlap
  // window; 2 exchanges per step on the all-periodic torus). Only an axis
  // the rank grid splits sends its 2 faces as messages: on the others a
  // rank is its own neighbor and copies the faces in place, as it would on
  // a real machine ---------------------------------------------------------
  const std::array<double, 4> per_axis = halo_bytes_per_exchange(c);
  double messages = 0.0, bytes = 0.0;
  for (std::size_t a = 0; a < 4; ++a) {
    if (half.grid().dims[a] == 1) continue;
    messages += 2.0 * 2.0 * steps;
    bytes += 2.0 * per_axis[a] * steps;
  }
  app.comm.record_overlapped(perf::CommKind::PointToPoint, messages, bytes);
  app.comm.record_overlap_window(2.0 * steps);

  // --- the per-step norm allreduce (normalize on) -------------------------
  app.comm.record(perf::CommKind::Reduction, steps, steps * sizeof(double));

  return app;
}

}  // namespace vpar::qcd
