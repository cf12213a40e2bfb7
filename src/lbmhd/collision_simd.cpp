#include "lbmhd/collision_simd.hpp"

#include "lbmhd/collision.hpp"
#include "simd/dispatch.hpp"
#include "simd/simd.hpp"

namespace vpar::lbmhd::detail {

namespace {

using simd::load;
using simd::splat;
using simd::store;

/// Width-templated collision body. Each lane executes exactly the scalar
/// collide_row operation sequence (same expressions, same association), so
/// results are bitwise identical to the reference for every width — W=1
/// instantiates the scalar tail. Must stay always_inline: the body has to be
/// compiled *inside* the target-attributed clones below, not at baseline ISA.
template <std::size_t W>
VPAR_SIMD_INLINE void collide_w(const RowPointers& p, std::size_t i0,
                                std::size_t i1, double omega_f,
                                double omega_g) {
  using V = simd::vec<W>;
  double* __restrict f0 = p.f[0];
  double* __restrict f1 = p.f[1];
  double* __restrict f2 = p.f[2];
  double* __restrict f3 = p.f[3];
  double* __restrict f4 = p.f[4];
  double* __restrict f5 = p.f[5];
  double* __restrict f6 = p.f[6];
  double* __restrict f7 = p.f[7];
  double* __restrict f8 = p.f[8];
  double* __restrict gx0 = p.gx[0];
  double* __restrict gx1 = p.gx[1];
  double* __restrict gx2 = p.gx[2];
  double* __restrict gx3 = p.gx[3];
  double* __restrict gx4 = p.gx[4];
  double* __restrict gx5 = p.gx[5];
  double* __restrict gx6 = p.gx[6];
  double* __restrict gx7 = p.gx[7];
  double* __restrict gx8 = p.gx[8];
  double* __restrict gy0 = p.gy[0];
  double* __restrict gy1 = p.gy[1];
  double* __restrict gy2 = p.gy[2];
  double* __restrict gy3 = p.gy[3];
  double* __restrict gy4 = p.gy[4];
  double* __restrict gy5 = p.gy[5];
  double* __restrict gy6 = p.gy[6];
  double* __restrict gy7 = p.gy[7];
  double* __restrict gy8 = p.gy[8];

  const V vof = splat<W>(omega_f);
  const V vog = splat<W>(omega_g);
  const V cs = splat<W>(Lattice::kS);
  const V cw0 = splat<W>(Lattice::kW0);
  const V cw = splat<W>(Lattice::kW);
  const V cs4 = splat<W>(4.0 * Lattice::kS);
  const V c1 = splat<W>(1.0);
  const V ch = splat<W>(0.5);
  const V c2 = splat<W>(2.0);
  const V c4 = splat<W>(4.0);
  const V c8 = splat<W>(8.0);

  for (std::size_t i = i0; i < i1; i += W) {
    const V F0 = load<W>(f0 + i), F1 = load<W>(f1 + i), F2 = load<W>(f2 + i),
            F3 = load<W>(f3 + i), F4 = load<W>(f4 + i), F5 = load<W>(f5 + i),
            F6 = load<W>(f6 + i), F7 = load<W>(f7 + i), F8 = load<W>(f8 + i);

    const V rho = F0 + F1 + F2 + F3 + F4 + F5 + F6 + F7 + F8;
    const V diag_x = F2 - F4 - F6 + F8;
    const V diag_y = F2 + F4 - F6 - F8;
    const V mx = F1 - F5 + cs * diag_x;
    const V my = F3 - F7 + cs * diag_y;

    const V GX0 = load<W>(gx0 + i), GX1 = load<W>(gx1 + i),
            GX2 = load<W>(gx2 + i), GX3 = load<W>(gx3 + i),
            GX4 = load<W>(gx4 + i), GX5 = load<W>(gx5 + i),
            GX6 = load<W>(gx6 + i), GX7 = load<W>(gx7 + i),
            GX8 = load<W>(gx8 + i);
    const V GY0 = load<W>(gy0 + i), GY1 = load<W>(gy1 + i),
            GY2 = load<W>(gy2 + i), GY3 = load<W>(gy3 + i),
            GY4 = load<W>(gy4 + i), GY5 = load<W>(gy5 + i),
            GY6 = load<W>(gy6 + i), GY7 = load<W>(gy7 + i),
            GY8 = load<W>(gy8 + i);
    const V bx = GX0 + GX1 + GX2 + GX3 + GX4 + GX5 + GX6 + GX7 + GX8;
    const V by = GY0 + GY1 + GY2 + GY3 + GY4 + GY5 + GY6 + GY7 + GY8;

    const V inv_rho = c1 / rho;
    const V ux = mx * inv_rho;
    const V uy = my * inv_rho;

    const V b2h = ch * (bx * bx + by * by);
    const V txx = mx * ux + b2h - bx * bx;
    const V tyy = my * uy + b2h - by * by;
    const V txy = mx * uy - bx * by;
    const V tr = txx + tyy;
    const V lam = ux * by - bx * uy;

    const V sx = cs * mx;
    const V sy = cs * my;
    const V txxss = txx * cs * cs;
    const V txyss2 = c2 * txy * cs * cs;
    const V tyyss = tyy * cs * cs;
    const V sl4 = cs4 * lam;

    store<W>(f0 + i, F0 + vof * (cw0 * (rho - c2 * tr) - F0));
    store<W>(gx0 + i, GX0 + vog * (cw0 * bx - GX0));
    store<W>(gy0 + i, GY0 + vog * (cw0 * by - GY0));

    store<W>(f1 + i, F1 + vof * (cw * (rho + c4 * mx + c8 * txx - c2 * tr) - F1));
    store<W>(gx1 + i, GX1 + vog * (cw * bx - GX1));
    store<W>(gy1 + i, GY1 + vog * (cw * (by + c4 * lam) - GY1));

    store<W>(f3 + i, F3 + vof * (cw * (rho + c4 * my + c8 * tyy - c2 * tr) - F3));
    store<W>(gx3 + i, GX3 + vog * (cw * (bx - c4 * lam) - GX3));
    store<W>(gy3 + i, GY3 + vog * (cw * by - GY3));

    store<W>(f5 + i, F5 + vof * (cw * (rho - c4 * mx + c8 * txx - c2 * tr) - F5));
    store<W>(gx5 + i, GX5 + vog * (cw * bx - GX5));
    store<W>(gy5 + i, GY5 + vog * (cw * (by - c4 * lam) - GY5));

    store<W>(f7 + i, F7 + vof * (cw * (rho - c4 * my + c8 * tyy - c2 * tr) - F7));
    store<W>(gx7 + i, GX7 + vog * (cw * (bx + c4 * lam) - GX7));
    store<W>(gy7 + i, GY7 + vog * (cw * by - GY7));

    const V ete_pp = txxss + txyss2 + tyyss;
    const V ete_pm = txxss - txyss2 + tyyss;

    store<W>(f2 + i,
             F2 + vof * (cw * (rho + c4 * (sx + sy) + c8 * ete_pp - c2 * tr) - F2));
    store<W>(gx2 + i, GX2 + vog * (cw * (bx - sl4) - GX2));
    store<W>(gy2 + i, GY2 + vog * (cw * (by + sl4) - GY2));

    store<W>(f4 + i,
             F4 + vof * (cw * (rho + c4 * (sy - sx) + c8 * ete_pm - c2 * tr) - F4));
    store<W>(gx4 + i, GX4 + vog * (cw * (bx - sl4) - GX4));
    store<W>(gy4 + i, GY4 + vog * (cw * (by - sl4) - GY4));

    store<W>(f6 + i,
             F6 + vof * (cw * (rho - c4 * (sx + sy) + c8 * ete_pp - c2 * tr) - F6));
    store<W>(gx6 + i, GX6 + vog * (cw * (bx + sl4) - GX6));
    store<W>(gy6 + i, GY6 + vog * (cw * (by - sl4) - GY6));

    store<W>(f8 + i,
             F8 + vof * (cw * (rho + c4 * (sx - sy) + c8 * ete_pm - c2 * tr) - F8));
    store<W>(gx8 + i, GX8 + vog * (cw * (bx + sl4) - GX8));
    store<W>(gy8 + i, GY8 + vog * (cw * (by + sl4) - GY8));
  }
}

/// Full-span clone at one width: vector strip then scalar (W=1) tail, both
/// instantiated from the same template inside this function so the whole
/// kernel compiles at the clone's ISA.
template <std::size_t W>
VPAR_SIMD_INLINE void collide_span_w(const RowPointers& p, std::size_t n,
                                     double omega_f, double omega_g) {
  const std::size_t nv = n / W * W;
  collide_w<W>(p, 0, nv, omega_f, omega_g);
  collide_w<1>(p, nv, n, omega_f, omega_g);
}

#if VPAR_SIMD_CLONE_AVX
__attribute__((noinline, target("avx"))) void collide_v4(const RowPointers& p,
                                                         std::size_t n,
                                                         double omega_f,
                                                         double omega_g) {
  collide_span_w<4>(p, n, omega_f, omega_g);
}
#endif
#if VPAR_SIMD_CLONE_AVX512
__attribute__((noinline, target("avx512f"))) void collide_v8(
    const RowPointers& p, std::size_t n, double omega_f, double omega_g) {
  collide_span_w<8>(p, n, omega_f, omega_g);
}
#endif

}  // namespace

void collide_row_simd(const RowPointers& p, std::size_t n, double omega_f,
                      double omega_g) {
  const std::size_t w = simd::active_width();
  switch (w) {
#if VPAR_SIMD_CLONE_AVX512
    case 8: collide_v8(p, n, omega_f, omega_g); break;
#endif
#if VPAR_SIMD_CLONE_AVX
    case 4: collide_v4(p, n, omega_f, omega_g); break;
#endif
#if VPAR_SIMD_HAVE_VEC
    case 2: collide_span_w<2>(p, n, omega_f, omega_g); break;
#endif
    default: collide_span_w<1>(p, n, omega_f, omega_g); break;
  }
}

}  // namespace vpar::lbmhd::detail
