#include "lbmhd/collision.hpp"

#include <array>

#include "lbmhd/collision_simd.hpp"
#include "perf/recorder.hpp"
#include "simd/dispatch.hpp"
#include "simrt/parallel.hpp"

namespace vpar::lbmhd {

namespace {

/// Row kernel shared by both loop structures: computes the macroscopic
/// moments, the MHD equilibria and relaxes all 27 populations for `n`
/// consecutive points.
///
/// The 27 population planes are distinct allocations; saying so with
/// __restrict lets the compiler keep the moments in registers and vectorize
/// the row loop instead of reloading through the pointer table on every
/// access. The direction loop is fully unrolled with the lattice constants
/// folded in — the axis directions lose their zero terms, the diagonals
/// share the s-scaled moment products — while keeping the reference
/// kernel's operation order, so the arithmetic is unchanged.
void collide_row(double* __restrict f0, double* __restrict f1,
                 double* __restrict f2, double* __restrict f3,
                 double* __restrict f4, double* __restrict f5,
                 double* __restrict f6, double* __restrict f7,
                 double* __restrict f8, double* __restrict gx0,
                 double* __restrict gx1, double* __restrict gx2,
                 double* __restrict gx3, double* __restrict gx4,
                 double* __restrict gx5, double* __restrict gx6,
                 double* __restrict gx7, double* __restrict gx8,
                 double* __restrict gy0, double* __restrict gy1,
                 double* __restrict gy2, double* __restrict gy3,
                 double* __restrict gy4, double* __restrict gy5,
                 double* __restrict gy6, double* __restrict gy7,
                 double* __restrict gy8, std::size_t n, double omega_f,
                 double omega_g) {
  constexpr double s = Lattice::kS;
  constexpr double w0 = Lattice::kW0;
  constexpr double w = Lattice::kW;

  for (std::size_t i = 0; i < n; ++i) {
    const double F0 = f0[i], F1 = f1[i], F2 = f2[i], F3 = f3[i], F4 = f4[i],
                 F5 = f5[i], F6 = f6[i], F7 = f7[i], F8 = f8[i];

    // Moments of f: density and momentum.
    const double rho = F0 + F1 + F2 + F3 + F4 + F5 + F6 + F7 + F8;
    const double diag_x = F2 - F4 - F6 + F8;
    const double diag_y = F2 + F4 - F6 - F8;
    const double mx = F1 - F5 + s * diag_x;
    const double my = F3 - F7 + s * diag_y;

    // Magnetic field: zeroth moment of the vector populations, accumulated
    // in direction order like the reference loop.
    const double GX0 = gx0[i], GX1 = gx1[i], GX2 = gx2[i], GX3 = gx3[i],
                 GX4 = gx4[i], GX5 = gx5[i], GX6 = gx6[i], GX7 = gx7[i],
                 GX8 = gx8[i];
    const double GY0 = gy0[i], GY1 = gy1[i], GY2 = gy2[i], GY3 = gy3[i],
                 GY4 = gy4[i], GY5 = gy5[i], GY6 = gy6[i], GY7 = gy7[i],
                 GY8 = gy8[i];
    const double bx = GX0 + GX1 + GX2 + GX3 + GX4 + GX5 + GX6 + GX7 + GX8;
    const double by = GY0 + GY1 + GY2 + GY3 + GY4 + GY5 + GY6 + GY7 + GY8;

    const double inv_rho = 1.0 / rho;
    const double ux = mx * inv_rho;
    const double uy = my * inv_rho;

    // Total stress T = rho u u + (B^2/2) I - B B and induction flux lam.
    const double b2h = 0.5 * (bx * bx + by * by);
    const double txx = mx * ux + b2h - bx * bx;
    const double tyy = my * uy + b2h - by * by;
    const double txy = mx * uy - bx * by;
    const double tr = txx + tyy;
    const double lam = ux * by - bx * uy;

    // Shared diagonal-direction products (e = (+-s, +-s)): the four
    // diagonals differ only in signs.
    const double sx = s * mx;
    const double sy = s * my;
    const double txxss = txx * s * s;
    const double txyss2 = 2.0 * txy * s * s;
    const double tyyss = tyy * s * s;
    const double sl4 = (4.0 * s) * lam;

    // Rest vector (e = 0).
    f0[i] = F0 + omega_f * (w0 * (rho - 2.0 * tr) - F0);
    gx0[i] = GX0 + omega_g * (w0 * bx - GX0);
    gy0[i] = GY0 + omega_g * (w0 * by - GY0);

    // Axis directions (e = (+-1, 0), (0, +-1)).
    f1[i] = F1 + omega_f * (w * (rho + 4.0 * mx + 8.0 * txx - 2.0 * tr) - F1);
    gx1[i] = GX1 + omega_g * (w * bx - GX1);
    gy1[i] = GY1 + omega_g * (w * (by + 4.0 * lam) - GY1);

    f3[i] = F3 + omega_f * (w * (rho + 4.0 * my + 8.0 * tyy - 2.0 * tr) - F3);
    gx3[i] = GX3 + omega_g * (w * (bx - 4.0 * lam) - GX3);
    gy3[i] = GY3 + omega_g * (w * by - GY3);

    f5[i] = F5 + omega_f * (w * (rho - 4.0 * mx + 8.0 * txx - 2.0 * tr) - F5);
    gx5[i] = GX5 + omega_g * (w * bx - GX5);
    gy5[i] = GY5 + omega_g * (w * (by - 4.0 * lam) - GY5);

    f7[i] = F7 + omega_f * (w * (rho - 4.0 * my + 8.0 * tyy - 2.0 * tr) - F7);
    gx7[i] = GX7 + omega_g * (w * (bx + 4.0 * lam) - GX7);
    gy7[i] = GY7 + omega_g * (w * by - GY7);

    // Diagonal directions (e = (+-s, +-s)).
    const double ete_pp = txxss + txyss2 + tyyss;  // e_x e_y > 0 (dirs 2, 6)
    const double ete_pm = txxss - txyss2 + tyyss;  // e_x e_y < 0 (dirs 4, 8)

    f2[i] = F2 +
            omega_f * (w * (rho + 4.0 * (sx + sy) + 8.0 * ete_pp - 2.0 * tr) - F2);
    gx2[i] = GX2 + omega_g * (w * (bx - sl4) - GX2);
    gy2[i] = GY2 + omega_g * (w * (by + sl4) - GY2);

    f4[i] = F4 +
            omega_f * (w * (rho + 4.0 * (sy - sx) + 8.0 * ete_pm - 2.0 * tr) - F4);
    gx4[i] = GX4 + omega_g * (w * (bx - sl4) - GX4);
    gy4[i] = GY4 + omega_g * (w * (by - sl4) - GY4);

    f6[i] = F6 +
            omega_f * (w * (rho - 4.0 * (sx + sy) + 8.0 * ete_pp - 2.0 * tr) - F6);
    gx6[i] = GX6 + omega_g * (w * (bx + sl4) - GX6);
    gy6[i] = GY6 + omega_g * (w * (by - sl4) - GY6);

    f8[i] = F8 +
            omega_f * (w * (rho + 4.0 * (sx - sy) + 8.0 * ete_pm - 2.0 * tr) - F8);
    gx8[i] = GX8 + omega_g * (w * (bx + sl4) - GX8);
    gy8[i] = GY8 + omega_g * (w * (by + sl4) - GY8);
  }
}

struct PlanePointers {
  std::array<double*, Lattice::kDirs> f, gx, gy;
};

PlanePointers plane_pointers(FieldSet& fields) {
  PlanePointers p{};
  for (int i = 0; i < Lattice::kDirs; ++i) {
    p.f[static_cast<std::size_t>(i)] = fields.f(i);
    p.gx[static_cast<std::size_t>(i)] = fields.gx(i);
    p.gy[static_cast<std::size_t>(i)] = fields.gy(i);
  }
  return p;
}

inline void collide_span(const PlanePointers& p, std::size_t offset,
                         std::size_t n, double omega_f, double omega_g) {
  // Runtime dispatch: the SIMD row kernel executes the same operation order
  // per lane (bitwise identical); the scalar reference path below stays the
  // default when the build or the dispatch mode says so.
  if (simd::use_simd()) {
    detail::RowPointers rp;
    for (std::size_t d = 0; d < 9; ++d) {
      rp.f[d] = p.f[d] + offset;
      rp.gx[d] = p.gx[d] + offset;
      rp.gy[d] = p.gy[d] + offset;
    }
    detail::collide_row_simd(rp, n, omega_f, omega_g);
    return;
  }
  collide_row(p.f[0] + offset, p.f[1] + offset, p.f[2] + offset,
              p.f[3] + offset, p.f[4] + offset, p.f[5] + offset,
              p.f[6] + offset, p.f[7] + offset, p.f[8] + offset,
              p.gx[0] + offset, p.gx[1] + offset, p.gx[2] + offset,
              p.gx[3] + offset, p.gx[4] + offset, p.gx[5] + offset,
              p.gx[6] + offset, p.gx[7] + offset, p.gx[8] + offset,
              p.gy[0] + offset, p.gy[1] + offset, p.gy[2] + offset,
              p.gy[3] + offset, p.gy[4] + offset, p.gy[5] + offset,
              p.gy[6] + offset, p.gy[7] + offset, p.gy[8] + offset, n, omega_f,
              omega_g);
}

/// One simd.* record for a sweep of `rows` rows of `n` points each: the row
/// kernel records nothing (see simd::record_span).
void record_collide_spans(std::size_t rows, std::size_t n) {
  if (!simd::use_simd()) return;
  const std::size_t w = simd::active_width();
  simd::record_spans(w, rows, n / w, n % w);
}

}  // namespace

double collision_flops_per_point() {
  // Counted from the row kernel: moments 8+8+16(B)+3, derived stresses 15,
  // plus 9 directions x (em 3, ete 10, feq 7, relax 3, geq 8, relax 6) = 333.
  return 383.0;
}

double collision_bytes_per_point() {
  return 2.0 * 27.0 * sizeof(double);  // 27 populations read and written
}

void collide_flat(FieldSet& fields, const CollisionParams& params) {
  auto p = plane_pointers(fields);
  const std::size_t nxl = fields.nxl(), nyl = fields.nyl();
  // Rows write disjoint spans of every population plane, so splitting the j
  // sweep across idle pool workers is bitwise-safe (see simrt/parallel.hpp).
  simrt::parallel_for(0, nyl, 0, [&](std::size_t j0, std::size_t j1) {
    for (std::size_t j = j0; j < j1; ++j) {
      const std::size_t row = fields.at(static_cast<std::ptrdiff_t>(j), 0);
      collide_span(p, row, nxl, params.omega_f, params.omega_g);
    }
  });
  record_collide_spans(nyl, nxl);
  perf::LoopRecord rec;
  rec.vectorizable = true;
  rec.instances = static_cast<double>(nyl);
  rec.trips = static_cast<double>(nxl);
  rec.flops_per_trip = collision_flops_per_point();
  rec.bytes_per_trip = collision_bytes_per_point();
  rec.access = perf::AccessPattern::Stream;
  perf::record_loop("collision", rec);
}

void collide_blocked(FieldSet& fields, const CollisionParams& params,
                     std::size_t block) {
  auto p = plane_pointers(fields);
  const std::size_t nxl = fields.nxl(), nyl = fields.nyl();
  if (block == 0) block = nxl;
  for (std::size_t i0 = 0; i0 < nxl; i0 += block) {
    const std::size_t i1 = std::min(i0 + block, nxl);
    simrt::parallel_for(0, nyl, 0, [&](std::size_t j0, std::size_t j1) {
      for (std::size_t j = j0; j < j1; ++j) {
        const std::size_t row = fields.at(static_cast<std::ptrdiff_t>(j), 0);
        collide_span(p, row + i0, i1 - i0, params.omega_f, params.omega_g);
      }
    });
    record_collide_spans(nyl, i1 - i0);
  }
  perf::LoopRecord rec;
  rec.vectorizable = true;
  rec.instances = static_cast<double>(nyl) *
                  static_cast<double>((nxl + block - 1) / block);
  rec.trips = static_cast<double>(std::min(block, nxl));
  rec.flops_per_trip = collision_flops_per_point();
  rec.bytes_per_trip = collision_bytes_per_point();
  rec.access = perf::AccessPattern::Stream;
  // A column block of 27 planes stays resident across the j sweep.
  rec.working_set_bytes =
      27.0 * static_cast<double>(std::min(block, nxl)) * sizeof(double) * 8.0;
  perf::record_loop("collision", rec);
}

}  // namespace vpar::lbmhd
