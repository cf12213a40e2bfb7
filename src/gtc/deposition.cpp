#include "gtc/deposition.hpp"

#include <algorithm>
#include <thread>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "gtc/gtc_simd.hpp"
#include "perf/recorder.hpp"
#include "simd/dispatch.hpp"
#include "simrt/parallel.hpp"

namespace vpar::gtc {

void compute_stencil(const TorusGrid& grid, double x, double y, double zeta,
                     double rho, DepositStencil& out) {
  const double zrel = (zeta - grid.zeta_min()) / grid.dzeta();
  int pl = static_cast<int>(std::floor(zrel));
  pl = std::clamp(pl, 0, grid.planes_local() - 1);  // guards FP edge cases
  const double wz = zrel - static_cast<double>(pl);
  out.plane[0] = pl;
  out.plane[1] = pl + 1;  // may be the ghost plane
  out.wplane[0] = 1.0 - wz;
  out.wplane[1] = wz;

  const std::size_t ngx = grid.ngx();
  const std::size_t ngy = grid.ngy();
  const double nx = static_cast<double>(ngx);
  const double ny = static_cast<double>(ngy);
  // Four points on the charged ring (paper Figure 8b).
  const double ox[4] = {rho, 0.0, -rho, 0.0};
  const double oy[4] = {0.0, rho, 0.0, -rho};

  for (int r = 0; r < 4; ++r) {
    const double px = wrap_periodic(x + ox[r], nx);
    const double py = wrap_periodic(y + oy[r], ny);
    const auto ix = static_cast<std::size_t>(px);
    const auto iy = static_cast<std::size_t>(py);
    const double fx = px - static_cast<double>(ix);
    const double fy = py - static_cast<double>(iy);
    const std::size_t ix1 = ix + 1 == ngx ? 0 : ix + 1;
    const std::size_t iy1 = iy + 1 == ngy ? 0 : iy + 1;

    const int base = 4 * r;
    out.cell[base + 0] = iy * ngx + ix;
    out.cell[base + 1] = iy * ngx + ix1;
    out.cell[base + 2] = iy1 * ngx + ix;
    out.cell[base + 3] = iy1 * ngx + ix1;
    out.wcell[base + 0] = 0.25 * (1.0 - fx) * (1.0 - fy);
    out.wcell[base + 1] = 0.25 * fx * (1.0 - fy);
    out.wcell[base + 2] = 0.25 * (1.0 - fx) * fy;
    out.wcell[base + 3] = 0.25 * fx * fy;
  }
}

double deposition_flops_per_particle() {
  // zeta weights (~6) + 4 ring points x (wrap ~6, bilinear weights ~10)
  // + 32 weighted accumulations x 3 flops.
  return 6.0 + 4.0 * 16.0 + 32.0 * 3.0;
}

namespace {

void deposit_one(const ParticleSet& p, std::size_t i, const TorusGrid& grid,
                 double* charge_base, std::size_t plane_stride) {
  DepositStencil st;
  compute_stencil(grid, p.x[i], p.y[i], p.zeta[i], p.rho[i], st);
  const double qi = p.q[i];
  for (int b = 0; b < 2; ++b) {
    double* plane = charge_base +
                    static_cast<std::size_t>(st.plane[b]) * plane_stride;
    const double w = qi * st.wplane[b];
    for (int c = 0; c < 16; ++c) {
      plane[st.cell[c]] += w * st.wcell[c];
    }
  }
}

void record_deposit(const TorusGrid& grid, std::size_t n, bool vectorizable,
                    std::size_t trips) {
  perf::LoopRecord rec;
  rec.vectorizable = vectorizable;
  rec.instances = trips > 0 ? static_cast<double>((n + trips - 1) / trips) : 0.0;
  rec.trips = static_cast<double>(std::min(n, trips));
  rec.flops_per_trip = deposition_flops_per_particle();
  // Randomly localized particles: each of the 32 updates touches a fresh
  // cache line; charge reads+writes dominate.
  rec.bytes_per_trip = 32.0 * 2.0 * sizeof(double) + 6.0 * sizeof(double);
  rec.access = perf::AccessPattern::Gather;
  rec.working_set_bytes =
      static_cast<double>(grid.planes_local() + 1) *
      static_cast<double>(grid.plane_size()) * sizeof(double);
  perf::record_loop("charge_deposition", rec);
}

}  // namespace

void deposit(const ParticleSet& particles, TorusGrid& grid, DepositVariant variant,
             std::size_t vlen) {
  const std::size_t n = particles.size();
  const std::size_t plane_stride = grid.plane_size();

  switch (variant) {
    case DepositVariant::Scatter: {
      for (std::size_t i = 0; i < n; ++i) {
        deposit_one(particles, i, grid, grid.charge().data(), plane_stride);
      }
      // Potential store conflicts between particles: unvectorizable.
      record_deposit(grid, n, /*vectorizable=*/false, n);
      return;
    }

    case DepositVariant::WorkVector: {
      if (vlen == 0) throw std::runtime_error("deposit: vlen must be positive");
      const std::size_t copy = static_cast<std::size_t>(grid.planes_local() + 1) *
                               plane_stride;
      // The work-vector array: one private grid copy per vector lane. This
      // is the 2-8x memory blow-up the paper discusses. Reused across calls
      // on this thread so the per-step path never touches the allocator;
      // the reduction sweep below re-zeroes it on its way out, so a
      // same-size call starts clean without a separate memset pass.
      static thread_local std::vector<double> work;
      if (work.size() != vlen * copy) {
        work.assign(vlen * copy, 0.0);
      }
      static thread_local std::vector<DepositStencil> stencils;
      stencils.resize(vlen);
      // Process particles one vlen-group at a time: group member j owns lane
      // j (identical to the reference lane = i % vlen assignment, so the
      // in-lane accumulation order — and hence the result — is unchanged).
      // Splitting stencil computation from the scatter turns the gather-free
      // arithmetic half into a flat independent loop and keeps the group's
      // 32-entry stencils hot for the scatter half.
      for (std::size_t b = 0; b < n; b += vlen) {
        const std::size_t group = std::min(vlen, n - b);
        for (std::size_t j = 0; j < group; ++j) {
          const std::size_t i = b + j;
          compute_stencil(grid, particles.x[i], particles.y[i],
                          particles.zeta[i], particles.rho[i], stencils[j]);
        }
        for (std::size_t j = 0; j < group; ++j) {
          const DepositStencil& st = stencils[j];
          const double qi = particles.q[b + j];
          double* lane_base = work.data() + j * copy;
          for (int p = 0; p < 2; ++p) {
            double* __restrict plane =
                lane_base + static_cast<std::size_t>(st.plane[p]) * plane_stride;
            const double w = qi * st.wplane[p];
            for (int c = 0; c < 16; ++c) {
              plane[st.cell[c]] += w * st.wcell[c];
            }
          }
        }
      }
      // Gather the lane copies into the real grid, clearing each element
      // behind the read (the lanes are cache-hot here; a separate zeroing
      // pass on entry would stream the whole array a second time).
      double* __restrict charge = grid.charge().data();
      const bool fold_simd = simd::use_simd();
      for (std::size_t lane = 0; lane < vlen; ++lane) {
        double* __restrict w = work.data() + lane * copy;
        if (fold_simd) {
          // Element-wise fold: the SIMD sweep is bitwise identical.
          detail::deposit_fold_simd(charge, w, copy);
          continue;
        }
        for (std::size_t k = 0; k < copy; ++k) {
          charge[k] += w[k];
          w[k] = 0.0;
        }
      }
      record_deposit(grid, n, /*vectorizable=*/true, vlen);
      {
        perf::LoopRecord rec;  // the reduction sweep (reads, adds, re-zeroes)
        rec.vectorizable = true;
        rec.instances = static_cast<double>(vlen);
        rec.trips = static_cast<double>(copy);
        rec.flops_per_trip = 1.0;
        rec.bytes_per_trip = 3.0 * sizeof(double);
        rec.access = perf::AccessPattern::Stream;
        perf::record_loop("charge_deposition", rec);
      }
      return;
    }

    case DepositVariant::Hybrid: {
      // Fixed partition: chunk c covers [c*grain, (c+1)*grain) regardless of
      // pool size or helper participation, and the fold below runs in
      // ascending chunk order — so hybrid and serial execution accumulate
      // every grid point in exactly the same sequence (bitwise identical).
      const std::size_t copy =
          static_cast<std::size_t>(grid.planes_local() + 1) * plane_stride;
      const std::size_t grain =
          std::max<std::size_t>(1, (n + kHybridDepositChunks - 1) /
                                       kHybridDepositChunks);
      static thread_local std::vector<double> partial;
      if (partial.size() != kHybridDepositChunks * copy) {
        partial.assign(kHybridDepositChunks * copy, 0.0);
      }
      double* const partial_base = partial.data();
      const bool vector = simd::use_simd();
      simrt::parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
        double* mine = partial_base + (lo / grain) * copy;
        // Runtime dispatch: vector strips build the stencils, and every
        // marker still scatters in marker order (bitwise the scalar loop);
        // the ragged tail runs the scalar reference.
        std::size_t i =
            vector ? detail::deposit_strips(particles, grid, mine, lo, hi) : lo;
        for (; i < hi; ++i) deposit_one(particles, i, grid, mine, plane_stride);
      });
      // Deterministic reduction, re-zeroing behind the read like WorkVector.
      double* __restrict charge = grid.charge().data();
      for (std::size_t c = 0; c < kHybridDepositChunks; ++c) {
        double* __restrict w = partial_base + c * copy;
        if (vector) {
          // Element-wise fold in the same ascending chunk order: bitwise
          // identical to the scalar sweep.
          detail::deposit_fold_simd(charge, w, copy);
          continue;
        }
        for (std::size_t k = 0; k < copy; ++k) {
          charge[k] += w[k];
          w[k] = 0.0;
        }
      }
      record_deposit(grid, n, /*vectorizable=*/false, grain);
      {
        perf::LoopRecord rec;  // the chunk-copy reduction sweep
        rec.vectorizable = true;
        rec.instances = static_cast<double>(kHybridDepositChunks);
        rec.trips = static_cast<double>(copy);
        rec.flops_per_trip = 1.0;
        rec.bytes_per_trip = 3.0 * sizeof(double);
        rec.access = perf::AccessPattern::Stream;
        perf::record_loop("charge_deposition", rec);
      }
      return;
    }

    case DepositVariant::Sorted: {
      // Counting sort by (plane, leading cell) so same-cell particles are
      // adjacent; groups touching distinct cells are conflict-free.
      const std::size_t buckets =
          static_cast<std::size_t>(grid.planes_local()) * plane_stride;
      std::vector<std::size_t> count(buckets + 1, 0);
      std::vector<std::size_t> key(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double zrel = (particles.zeta[i] - grid.zeta_min()) / grid.dzeta();
        const int pl = std::clamp(static_cast<int>(std::floor(zrel)), 0,
                                  grid.planes_local() - 1);
        const auto ix = static_cast<std::size_t>(
            wrap_periodic(particles.x[i], static_cast<double>(grid.ngx())));
        const auto iy = static_cast<std::size_t>(
            wrap_periodic(particles.y[i], static_cast<double>(grid.ngy())));
        key[i] = static_cast<std::size_t>(pl) * plane_stride + iy * grid.ngx() + ix;
        ++count[key[i] + 1];
      }
      for (std::size_t b = 1; b <= buckets; ++b) count[b] += count[b - 1];
      std::vector<std::size_t> order(n);
      for (std::size_t i = 0; i < n; ++i) order[count[key[i]]++] = i;
      for (std::size_t s = 0; s < n; ++s) {
        deposit_one(particles, order[s], grid, grid.charge().data(), plane_stride);
      }
      record_deposit(grid, n, /*vectorizable=*/true, vlen);
      {
        perf::LoopRecord rec;  // the sorting passes (integer + data movement)
        rec.vectorizable = true;
        rec.instances = 3.0;
        rec.trips = static_cast<double>(n);
        rec.flops_per_trip = 2.0;
        rec.bytes_per_trip = 3.0 * sizeof(double);
        rec.access = perf::AccessPattern::Gather;
        perf::record_loop("charge_deposition", rec);
      }
      return;
    }
  }
}

void deposit_threaded(const ParticleSet& particles, TorusGrid& grid, int threads) {
  if (threads <= 1) {
    deposit(particles, grid, DepositVariant::Scatter);
    return;
  }
  const std::size_t n = particles.size();
  const std::size_t plane_stride = grid.plane_size();
  const std::size_t copy =
      static_cast<std::size_t>(grid.planes_local() + 1) * plane_stride;
  std::vector<double> partial(static_cast<std::size_t>(threads) * copy, 0.0);

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const std::size_t lo = n * static_cast<std::size_t>(t) /
                             static_cast<std::size_t>(threads);
      const std::size_t hi = n * static_cast<std::size_t>(t + 1) /
                             static_cast<std::size_t>(threads);
      double* mine = partial.data() + static_cast<std::size_t>(t) * copy;
      for (std::size_t i = lo; i < hi; ++i) {
        deposit_one(particles, i, grid, mine, plane_stride);
      }
    });
  }
  for (auto& th : pool) th.join();

  double* charge = grid.charge().data();
  for (int t = 0; t < threads; ++t) {
    const double* mine = partial.data() + static_cast<std::size_t>(t) * copy;
    for (std::size_t k = 0; k < copy; ++k) charge[k] += mine[k];
  }
  record_deposit(grid, n, /*vectorizable=*/false, n);
}

}  // namespace vpar::gtc
