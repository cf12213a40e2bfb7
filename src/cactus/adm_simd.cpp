#include "cactus/adm_simd.hpp"

#include "cactus/adm.hpp"
#include "simd/dispatch.hpp"
#include "simd/simd.hpp"

namespace vpar::cactus::detail {

namespace {

using simd::load;
using simd::splat;
using simd::store;

constexpr std::size_t kRowChunk = 128;  // matches the scalar rhs_chunk

/// Vector fourth-order pure second derivative, lane i = d2(p + i, s): same
/// expression and association as cactus/deriv.hpp d2.
template <std::size_t W>
VPAR_SIMD_INLINE simd::vec<W> vd2(const double* p, std::ptrdiff_t s,
                                  double inv_12h2) {
  return (-load<W>(p + 2 * s) + splat<W>(16.0) * load<W>(p + s) -
          splat<W>(30.0) * load<W>(p) + splat<W>(16.0) * load<W>(p - s) -
          load<W>(p - 2 * s)) *
         splat<W>(inv_12h2);
}

template <std::size_t W>
VPAR_SIMD_INLINE simd::vec<W> vrow4(const double* p, std::ptrdiff_t off,
                                    std::ptrdiff_t sb) {
  return -load<W>(p + off + 2 * sb) + splat<W>(8.0) * load<W>(p + off + sb) -
         splat<W>(8.0) * load<W>(p + off - sb) + load<W>(p + off - 2 * sb);
}

/// Vector mixed second derivative, lane i = d11(p + i, sa, sb).
template <std::size_t W>
VPAR_SIMD_INLINE simd::vec<W> vd11(const double* p, std::ptrdiff_t sa,
                                   std::ptrdiff_t sb, double inv_144h2) {
  return (-vrow4<W>(p, 2 * sa, sb) + splat<W>(8.0) * vrow4<W>(p, sa, sb) -
          splat<W>(8.0) * vrow4<W>(p, -sa, sb) + vrow4<W>(p, -2 * sa, sb)) *
         splat<W>(inv_144h2);
}

/// Width-templated chunk kernel over points [i0, i1) (both multiples of W
/// apart; i1 <= kRowChunk). Every stage indexes the slice buffers by the
/// absolute point index, so the vector strip and the scalar tail instantiation
/// can split one chunk without handing buffers across.
template <std::size_t W>
VPAR_SIMD_INLINE void rhs_chunk_w(const AdmFieldPointers& f, std::ptrdiff_t s0,
                                  std::ptrdiff_t s1, std::ptrdiff_t s2,
                                  std::size_t base, std::size_t i0,
                                  std::size_t i1, double inv_12h2,
                                  double inv_144h2) {
  using V = simd::vec<W>;
  double dd[6][6][kRowChunk];  // [derivative pair][component][point]
  double ddtr[6][kRowChunk];   // d_i d_j (tr h) per pair

  for (int m = 0; m < 6; ++m) {
    const double* __restrict p = f.h[m] + base;
    double* __restrict q00 = dd[sym(0, 0)][m];
    double* __restrict q11 = dd[sym(1, 1)][m];
    double* __restrict q22 = dd[sym(2, 2)][m];
    for (std::size_t i = i0; i < i1; i += W)
      store<W>(q00 + i, vd2<W>(p + i, s0, inv_12h2));
    for (std::size_t i = i0; i < i1; i += W)
      store<W>(q11 + i, vd2<W>(p + i, s1, inv_12h2));
    for (std::size_t i = i0; i < i1; i += W)
      store<W>(q22 + i, vd2<W>(p + i, s2, inv_12h2));
    double* __restrict q01 = dd[sym(0, 1)][m];
    double* __restrict q02 = dd[sym(0, 2)][m];
    double* __restrict q12 = dd[sym(1, 2)][m];
    for (std::size_t i = i0; i < i1; i += W)
      store<W>(q01 + i, vd11<W>(p + i, s0, s1, inv_144h2));
    for (std::size_t i = i0; i < i1; i += W)
      store<W>(q02 + i, vd11<W>(p + i, s0, s2, inv_144h2));
    for (std::size_t i = i0; i < i1; i += W)
      store<W>(q12 + i, vd11<W>(p + i, s1, s2, inv_144h2));
  }

  for (int pr = 0; pr < 6; ++pr) {
    const double* __restrict a = dd[pr][sym(0, 0)];
    const double* __restrict b = dd[pr][sym(1, 1)];
    const double* __restrict c = dd[pr][sym(2, 2)];
    double* __restrict q = ddtr[pr];
    for (std::size_t i = i0; i < i1; i += W)
      store<W>(q + i, load<W>(a + i) + load<W>(b + i) + load<W>(c + i));
  }

  {
    const double* __restrict k0 = f.k[sym(0, 0)] + base;
    const double* __restrict k1 = f.k[sym(1, 1)] + base;
    const double* __restrict k2 = f.k[sym(2, 2)] + base;
    double* __restrict out = f.rhs_lapse + base;
    for (std::size_t i = i0; i < i1; i += W) {
      V trk = splat<W>(0.0) + load<W>(k0 + i);
      trk = trk + load<W>(k1 + i);
      trk = trk + load<W>(k2 + i);
      store<W>(out + i, splat<W>(-2.0) * trk);
    }
  }

  for (int a = 0; a < 3; ++a) {
    for (int b = a; b < 3; ++b) {
      const int m = sym(a, b);
      const double* __restrict t1x = dd[sym(0, a)][sym(b, 0)];
      const double* __restrict t1y = dd[sym(1, a)][sym(b, 1)];
      const double* __restrict t1z = dd[sym(2, a)][sym(b, 2)];
      const double* __restrict t2x = dd[sym(0, b)][sym(a, 0)];
      const double* __restrict t2y = dd[sym(1, b)][sym(a, 1)];
      const double* __restrict t2z = dd[sym(2, b)][sym(a, 2)];
      const double* __restrict l0 = dd[sym(0, 0)][m];
      const double* __restrict l1 = dd[sym(1, 1)][m];
      const double* __restrict l2 = dd[sym(2, 2)][m];
      const double* __restrict dt = ddtr[m];
      const double* __restrict km = f.k[m] + base;
      double* __restrict out_h = f.rhs_h[m] + base;
      double* __restrict out_k = f.rhs_k[m] + base;
      for (std::size_t i = i0; i < i1; i += W) {
        V term1 = splat<W>(0.0) + load<W>(t1x + i);
        term1 = term1 + load<W>(t1y + i);
        term1 = term1 + load<W>(t1z + i);
        V term2 = splat<W>(0.0) + load<W>(t2x + i);
        term2 = term2 + load<W>(t2y + i);
        term2 = term2 + load<W>(t2z + i);
        const V lap = load<W>(l0 + i) + load<W>(l1 + i) + load<W>(l2 + i);
        const V ricci =
            splat<W>(0.5) * (term1 + term2 - lap - load<W>(dt + i));
        store<W>(out_h + i, splat<W>(-2.0) * load<W>(km + i));
        store<W>(out_k + i, ricci);
      }
    }
  }
}

template <std::size_t W>
VPAR_SIMD_INLINE void rhs_chunk_span_w(const AdmFieldPointers& f,
                                       std::ptrdiff_t s0, std::ptrdiff_t s1,
                                       std::ptrdiff_t s2, std::size_t base,
                                       std::size_t n, double inv_12h2,
                                       double inv_144h2) {
  const std::size_t nv = n / W * W;
  rhs_chunk_w<W>(f, s0, s1, s2, base, 0, nv, inv_12h2, inv_144h2);
  rhs_chunk_w<1>(f, s0, s1, s2, base, nv, n, inv_12h2, inv_144h2);
}

#if VPAR_SIMD_CLONE_AVX
__attribute__((noinline, target("avx"))) void rhs_chunk_v4(
    const AdmFieldPointers& f, std::ptrdiff_t s0, std::ptrdiff_t s1,
    std::ptrdiff_t s2, std::size_t base, std::size_t n, double inv_12h2,
    double inv_144h2) {
  rhs_chunk_span_w<4>(f, s0, s1, s2, base, n, inv_12h2, inv_144h2);
}
#endif
#if VPAR_SIMD_CLONE_AVX512
__attribute__((noinline, target("avx512f"))) void rhs_chunk_v8(
    const AdmFieldPointers& f, std::ptrdiff_t s0, std::ptrdiff_t s1,
    std::ptrdiff_t s2, std::size_t base, std::size_t n, double inv_12h2,
    double inv_144h2) {
  rhs_chunk_span_w<8>(f, s0, s1, s2, base, n, inv_12h2, inv_144h2);
}
#endif

}  // namespace

void rhs_chunk_simd(const AdmFieldPointers& f, std::ptrdiff_t s0,
                    std::ptrdiff_t s1, std::ptrdiff_t s2, std::size_t base,
                    std::size_t n, double inv_12h2, double inv_144h2) {
  const std::size_t w = simd::active_width();
  switch (w) {
#if VPAR_SIMD_CLONE_AVX512
    case 8: rhs_chunk_v8(f, s0, s1, s2, base, n, inv_12h2, inv_144h2); break;
#endif
#if VPAR_SIMD_CLONE_AVX
    case 4: rhs_chunk_v4(f, s0, s1, s2, base, n, inv_12h2, inv_144h2); break;
#endif
#if VPAR_SIMD_HAVE_VEC
    case 2: rhs_chunk_span_w<2>(f, s0, s1, s2, base, n, inv_12h2, inv_144h2); break;
#endif
    default: rhs_chunk_span_w<1>(f, s0, s1, s2, base, n, inv_12h2, inv_144h2); break;
  }
}

}  // namespace vpar::cactus::detail
