#include "gtc/gtc_simd.hpp"

#include <numbers>

#include "gtc/deposition.hpp"
#include "simd/dispatch.hpp"
#include "simd/simd.hpp"

#if VPAR_SIMD_CLONE_AVX512
#include <immintrin.h>  // declares the AVX-512 gather builtin
#endif

namespace vpar::gtc::detail {

namespace {

using simd::load;
using simd::splat;
using simd::store;

/// Lane l of `out` from compute_stencil of marker i: the fallback lanes'
/// path (and the whole strip at width 1).
void stencil_lane(const ParticleSet& p, const TorusGrid& grid, std::size_t i,
                  std::size_t l, StencilStrip& out) {
  DepositStencil s;
  compute_stencil(grid, p.x[i], p.y[i], p.zeta[i], p.rho[i], s);
  out.plane[l] = s.plane[0];
  for (int b = 0; b < 2; ++b) out.wplane[b][l] = s.wplane[b];
  for (int c = 0; c < 16; ++c) {
    out.cell[c][l] = static_cast<std::int32_t>(s.cell[c]);
    out.wcell[c][l] = s.wcell[c];
  }
}

#if VPAR_SIMD_HAVE_VEC

/// int32 lanes beside vec<W>'s doubles: the strip's plane and cell indices.
template <std::size_t W>
struct native_ivec;
template <>
struct native_ivec<2> {
  typedef std::int32_t type __attribute__((vector_size(8)));
};
template <>
struct native_ivec<4> {
  typedef std::int32_t type __attribute__((vector_size(16)));
};
template <>
struct native_ivec<8> {
  typedef std::int32_t type __attribute__((vector_size(32)));
};
template <std::size_t W>
using ivec = typename native_ivec<W>::type;

/// True when any lane of `v` is nonzero: an OR tree over halves, so the
/// common all-in-range strip pays one branch instead of one per lane.
template <std::size_t W>
VPAR_SIMD_INLINE bool any_lane(simd::vec<W> v) {
  if constexpr (W == 2) {
    return v[0] + v[1] != 0.0;
  } else if constexpr (W == 4) {
    return any_lane<2>(__builtin_shufflevector(v, v, 0, 1) +
                       __builtin_shufflevector(v, v, 2, 3));
  } else {
    static_assert(W == 8);
    return any_lane<4>(__builtin_shufflevector(v, v, 0, 1, 2, 3) +
                       __builtin_shufflevector(v, v, 4, 5, 6, 7));
  }
}

template <std::size_t W>
VPAR_SIMD_INLINE ivec<W> load_i(const std::int32_t* p) {
  ivec<W> r;
  __builtin_memcpy(&r, p, sizeof(r));
  return r;
}

template <std::size_t W>
VPAR_SIMD_INLINE void store_i(std::int32_t* p, ivec<W> v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

/// Per-call constants of the strip build, each computed as compute_stencil
/// computes it.
struct StripGeometry {
  explicit StripGeometry(const TorusGrid& grid)
      : zeta_min(grid.zeta_min()), dzeta(grid.dzeta()),
        nx(static_cast<double>(grid.ngx())), ny(static_cast<double>(grid.ngy())),
        last_plane(grid.planes_local() - 1),
        ngx(static_cast<std::int32_t>(grid.ngx())),
        ngy(static_cast<std::int32_t>(grid.ngy())) {}
  double zeta_min, dzeta, nx, ny;
  std::int32_t last_plane, ngx, ngy;
};

/// wrap_periodic's three in-range branches as selects: bitwise its result
/// for v in [-n, 2n). Lanes outside (or NaN) get 1.0 added to `out` and a
/// placeholder result in [0, n) the caller replaces. Each comparison feeds
/// exactly one select, so AVX-512F keeps it in a mask register (one shared
/// by two selects would be built as a lane-mask vector, lane by lane).
template <std::size_t W>
VPAR_SIMD_INLINE simd::vec<W> wrap_w(simd::vec<W> v, double n,
                                     simd::vec<W>& out) {
  using V = simd::vec<W>;
  const V vn = splat<W>(n);
  const V zero = splat<W>(0.0);
  const V one = splat<W>(1.0);
  const V up = v + vn;  // add_period of a v in [-n, 0)
  V r = v >= vn ? v - vn : v;
  r = v < zero ? (up < vn ? up : zero) : r;
  out = out + (v >= splat<W>(-n) ? zero : one) + (v < splat<W>(n + n) ? zero : one);
  r = r >= zero ? r : zero;
  return r < vn ? r : zero;
}

/// One wrapped ring-point coordinate: cell index, its periodic successor,
/// and the bilinear fractions f and 1 - f.
template <std::size_t W>
struct Axis {
  ivec<W> i, i1;
  simd::vec<W> f, g;
};

template <std::size_t W>
VPAR_SIMD_INLINE Axis<W> axis_w(simd::vec<W> v, double n, std::int32_t cells,
                                simd::vec<W>& out) {
  using V = simd::vec<W>;
  const V p = wrap_w<W>(v, n, out);
  Axis<W> a;
  a.i = __builtin_convertvector(p, ivec<W>);  // truncation == size_t cast
  a.f = p - __builtin_convertvector(a.i, V);
  a.g = splat<W>(1.0) - a.f;
  const ivec<W> next = a.i + 1;
  a.i1 = next == cells ? 0 : next;
  return a;
}

/// Strip of markers [i0, i0 + W): see build_stencil_strip.
template <std::size_t W>
VPAR_SIMD_INLINE void strip_w(const ParticleSet& p, const TorusGrid& grid,
                              const StripGeometry& k, std::size_t i0,
                              StencilStrip& strip) {
  using V = simd::vec<W>;
  using I = ivec<W>;
  const V x = load<W>(p.x.data() + i0);
  const V y = load<W>(p.y.data() + i0);
  const V rho = load<W>(p.rho.data() + i0);

  // Toroidal plane: truncation before the clamp equals floor after it.
  const V zrel = (load<W>(p.zeta.data() + i0) - splat<W>(k.zeta_min)) /
                 splat<W>(k.dzeta);
  I pl = __builtin_convertvector(zrel, I);
  pl = pl < 0 ? 0 : pl;
  pl = pl > k.last_plane ? k.last_plane : pl;
  const V wz = zrel - __builtin_convertvector(pl, V);
  store_i<W>(strip.plane, pl);
  store<W>(strip.wplane[0], splat<W>(1.0) - wz);
  store<W>(strip.wplane[1], wz);

  // The ring's four points use six distinct wraps: offsets (rho, 0),
  // (0, rho), (-rho, 0), (0, -rho), each coordinate added as scalar does.
  const V zero = splat<W>(0.0);
  V out = zero;
  const V nrho = -rho;
  const Axis<W> ax[3] = {axis_w<W>(x + rho, k.nx, k.ngx, out),
                         axis_w<W>(x + zero, k.nx, k.ngx, out),
                         axis_w<W>(x + nrho, k.nx, k.ngx, out)};
  const Axis<W> ay[3] = {axis_w<W>(y + zero, k.ny, k.ngy, out),
                         axis_w<W>(y + rho, k.ny, k.ngy, out),
                         axis_w<W>(y + nrho, k.ny, k.ngy, out)};
  constexpr int kX[4] = {0, 1, 2, 1};
  constexpr int kY[4] = {0, 1, 0, 2};
  const V quarter = splat<W>(0.25);
  for (int r = 0; r < 4; ++r) {
    const Axis<W>& a = ax[kX[r]];
    const Axis<W>& b = ay[kY[r]];
    const I row0 = b.i * k.ngx;
    const I row1 = b.i1 * k.ngx;
    const int base = 4 * r;
    store_i<W>(strip.cell[base + 0], row0 + a.i);
    store_i<W>(strip.cell[base + 1], row0 + a.i1);
    store_i<W>(strip.cell[base + 2], row1 + a.i);
    store_i<W>(strip.cell[base + 3], row1 + a.i1);
    // compute_stencil's 0.25 * (1 - fx) * (1 - fy), left to right.
    const V gx = quarter * a.g;
    const V fx = quarter * a.f;
    store<W>(strip.wcell[base + 0], gx * b.g);
    store<W>(strip.wcell[base + 1], fx * b.g);
    store<W>(strip.wcell[base + 2], gx * b.f);
    store<W>(strip.wcell[base + 3], fx * b.f);
  }

  if (!any_lane<W>(out)) return;
  for (std::size_t l = 0; l < W; ++l) {
    if (out[l] != 0.0) stencil_lane(p, grid, i0 + l, l, strip);
  }
}

/// Lane l takes base[idx[l]]; a hardware gather at W = 8 (the AVX-512
/// builtin, expanded inside the avx512f clone this is inlined into).
template <std::size_t W>
VPAR_SIMD_INLINE simd::vec<W> gather_w(const double* base, ivec<W> idx) {
#if VPAR_SIMD_CLONE_AVX512 && !defined(__clang__)
  if constexpr (W == 8) {
    return __builtin_ia32_gathersiv8df(simd::vec<8>{}, base, idx,
                                       static_cast<unsigned char>(0xFF), 8);
  }
#endif
  simd::vec<W> r;
  for (std::size_t l = 0; l < W; ++l) r[l] = base[idx[l]];
  return r;
}

/// wrap_periodic of W coordinates: the selects, and the scalar reference for
/// lanes more than one period out.
template <std::size_t W>
VPAR_SIMD_INLINE simd::vec<W> wrap_all_w(simd::vec<W> v, double n) {
  simd::vec<W> out = splat<W>(0.0);
  simd::vec<W> r = wrap_w<W>(v, n, out);
  if (!any_lane<W>(out)) return r;
  for (std::size_t l = 0; l < W; ++l) {
    if (out[l] != 0.0) r[l] = wrap_periodic(v[l], n);
  }
  return r;
}

/// Push body over markers [i0, i1), (i1 - i0) % W == 0. Each lane
/// accumulates its 32 weighted field terms in exactly the scalar order, so E
/// — and therefore the drift — is bitwise identical to the reference loop.
template <std::size_t W>
VPAR_SIMD_INLINE void push_w(ParticleSet& p, const TorusGrid& grid, double dt,
                             double b0, std::size_t i0, std::size_t i1) {
  using V = simd::vec<W>;
  using I = ivec<W>;
  const StripGeometry k(grid);
  const double* exf = grid.ex_plane(0);
  const double* eyf = grid.ey_plane(0);
  const auto ps = static_cast<std::int32_t>(grid.plane_size());
  const double two_pi = 2.0 * std::numbers::pi;
  StencilStrip st;
  for (std::size_t g = i0; g < i1; g += W) {
    strip_w<W>(p, grid, k, g, st);
    V ex = splat<W>(0.0), ey = splat<W>(0.0);
    I off = load_i<W>(st.plane) * ps;
    for (int b = 0; b < 2; ++b) {
      const V w = load<W>(st.wplane[b]);
      for (int c = 0; c < 16; ++c) {
        const V wc = w * load<W>(st.wcell[c]);
        const I idx = off + load_i<W>(st.cell[c]);
        ex = ex + wc * gather_w<W>(exf, idx);
        ey = ey + wc * gather_w<W>(eyf, idx);
      }
      off = off + ps;
    }

    // ExB drift with B = b0 z-hat, as the scalar push writes it.
    const V vdt = splat<W>(dt), vb0 = splat<W>(b0);
    store<W>(p.x.data() + g,
             wrap_all_w<W>(load<W>(p.x.data() + g) + vdt * ey / vb0, k.nx));
    store<W>(p.y.data() + g,
             wrap_all_w<W>(load<W>(p.y.data() + g) - vdt * ex / vb0, k.ny));
    store<W>(p.zeta.data() + g,
             wrap_all_w<W>(load<W>(p.zeta.data() + g) +
                               vdt * load<W>(p.vpar.data() + g),
                           two_pi));
  }
}

/// Deposit body over markers [i0, i1), (i1 - i0) % W == 0: a strip's
/// stencils in vectors, then deposit()'s scalar scatter marker by marker.
template <std::size_t W>
VPAR_SIMD_INLINE void deposit_w(const ParticleSet& p, const TorusGrid& grid,
                                double* charge, std::size_t i0, std::size_t i1) {
  const StripGeometry k(grid);
  const std::size_t ps = grid.plane_size();
  StencilStrip st;
  for (std::size_t g = i0; g < i1; g += W) {
    strip_w<W>(p, grid, k, g, st);
    for (std::size_t l = 0; l < W; ++l) {
      const double qi = p.q[g + l];
      double* plane = charge + static_cast<std::size_t>(st.plane[l]) * ps;
      for (int b = 0; b < 2; ++b, plane += ps) {
        const double w = qi * st.wplane[b][l];
        for (int c = 0; c < 16; ++c) plane[st.cell[c][l]] += w * st.wcell[c][l];
      }
    }
  }
}

#endif  // VPAR_SIMD_HAVE_VEC

#if VPAR_SIMD_CLONE_AVX
__attribute__((noinline, target("avx"))) void strip_v4(
    const ParticleSet& p, const TorusGrid& grid, std::size_t i0,
    StencilStrip& out) {
  strip_w<4>(p, grid, StripGeometry(grid), i0, out);
}
__attribute__((noinline, target("avx"))) void push_v4(
    ParticleSet& p, const TorusGrid& grid, double dt, double b0,
    std::size_t lo, std::size_t hi) {
  push_w<4>(p, grid, dt, b0, lo, hi);
}
__attribute__((noinline, target("avx"))) void deposit_v4(
    const ParticleSet& p, const TorusGrid& grid, double* charge,
    std::size_t lo, std::size_t hi) {
  deposit_w<4>(p, grid, charge, lo, hi);
}
#endif
#if VPAR_SIMD_CLONE_AVX512
__attribute__((noinline, target("avx512f"))) void strip_v8(
    const ParticleSet& p, const TorusGrid& grid, std::size_t i0,
    StencilStrip& out) {
  strip_w<8>(p, grid, StripGeometry(grid), i0, out);
}
__attribute__((noinline, target("avx512f"))) void push_v8(
    ParticleSet& p, const TorusGrid& grid, double dt, double b0,
    std::size_t lo, std::size_t hi) {
  push_w<8>(p, grid, dt, b0, lo, hi);
}
__attribute__((noinline, target("avx512f"))) void deposit_v8(
    const ParticleSet& p, const TorusGrid& grid, double* charge,
    std::size_t lo, std::size_t hi) {
  deposit_w<8>(p, grid, charge, lo, hi);
}
#endif

/// Width-templated fold body over [i0, i1), (i1 - i0) % W == 0.
template <std::size_t W>
VPAR_SIMD_INLINE void fold_w(double* __restrict charge, double* __restrict w,
                             std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; i += W) {
    store<W>(charge + i, load<W>(charge + i) + load<W>(w + i));
    store<W>(w + i, splat<W>(0.0));
  }
}

template <std::size_t W>
VPAR_SIMD_INLINE void fold_span_w(double* charge, double* w, std::size_t n) {
  const std::size_t nv = n / W * W;
  fold_w<W>(charge, w, 0, nv);
  fold_w<1>(charge, w, nv, n);
}

#if VPAR_SIMD_CLONE_AVX
__attribute__((noinline, target("avx"))) void fold_v4(double* charge,
                                                      double* w,
                                                      std::size_t n) {
  fold_span_w<4>(charge, w, n);
}
#endif
#if VPAR_SIMD_CLONE_AVX512
__attribute__((noinline, target("avx512f"))) void fold_v8(double* charge,
                                                          double* w,
                                                          std::size_t n) {
  fold_span_w<8>(charge, w, n);
}
#endif

}  // namespace

std::size_t build_stencil_strip(const ParticleSet& particles,
                                const TorusGrid& grid, std::size_t i0,
                                StencilStrip& out) {
  const std::size_t w = simd::active_width();
  switch (w) {
#if VPAR_SIMD_CLONE_AVX512
    case 8: strip_v8(particles, grid, i0, out); break;
#endif
#if VPAR_SIMD_CLONE_AVX
    case 4: strip_v4(particles, grid, i0, out); break;
#endif
#if VPAR_SIMD_HAVE_VEC
    case 2: strip_w<2>(particles, grid, StripGeometry(grid), i0, out); break;
#endif
    default: stencil_lane(particles, grid, i0, 0, out); break;
  }
  return w;
}

std::size_t gather_push_strips(ParticleSet& particles, const TorusGrid& grid,
                               double dt, double b0, std::size_t lo,
                               std::size_t hi) {
  const std::size_t w = simd::active_width();
  const std::size_t end = lo + (hi - lo) / w * w;
  switch (w) {
#if VPAR_SIMD_CLONE_AVX512
    case 8: push_v8(particles, grid, dt, b0, lo, end); break;
#endif
#if VPAR_SIMD_CLONE_AVX
    case 4: push_v4(particles, grid, dt, b0, lo, end); break;
#endif
#if VPAR_SIMD_HAVE_VEC
    case 2: push_w<2>(particles, grid, dt, b0, lo, end); break;
#endif
    default: return lo;
  }
  simd::record_span(w, (hi - lo) / w, (hi - lo) % w);
  return end;
}

std::size_t deposit_strips(const ParticleSet& particles, const TorusGrid& grid,
                           double* charge_base, std::size_t lo, std::size_t hi) {
  const std::size_t w = simd::active_width();
  const std::size_t end = lo + (hi - lo) / w * w;
  switch (w) {
#if VPAR_SIMD_CLONE_AVX512
    case 8: deposit_v8(particles, grid, charge_base, lo, end); break;
#endif
#if VPAR_SIMD_CLONE_AVX
    case 4: deposit_v4(particles, grid, charge_base, lo, end); break;
#endif
#if VPAR_SIMD_HAVE_VEC
    case 2: deposit_w<2>(particles, grid, charge_base, lo, end); break;
#endif
    default: return lo;
  }
  simd::record_span(w, (hi - lo) / w, (hi - lo) % w);
  return end;
}

void deposit_fold_simd(double* charge, double* w, std::size_t n) {
  const std::size_t width = simd::active_width();
  switch (width) {
#if VPAR_SIMD_CLONE_AVX512
    case 8: fold_v8(charge, w, n); break;
#endif
#if VPAR_SIMD_CLONE_AVX
    case 4: fold_v4(charge, w, n); break;
#endif
#if VPAR_SIMD_HAVE_VEC
    case 2: fold_span_w<2>(charge, w, n); break;
#endif
    default: fold_span_w<1>(charge, w, n); break;
  }
  simd::record_span(width, n / width, n % width);
}

}  // namespace vpar::gtc::detail
