#include "fft/fft_simd.hpp"

#include <utility>

#include "simd/dispatch.hpp"
#include "simd/simd.hpp"

namespace vpar::fft::detail {

namespace {

using Complex = std::complex<double>;
using simd::load;
using simd::splat;
using simd::store;

/// Scalar butterflies for j in [j0, j1) of one block: verbatim the reference
/// loop, used as the short-`half` tail inside the vector clones and as the
/// whole stage sweep at width 1.
VPAR_SIMD_INLINE void butterflies_scalar(Complex* a, Complex* b,
                                         const Complex* w, bool invert,
                                         std::size_t j0, std::size_t j1) {
  for (std::size_t j = j0; j < j1; ++j) {
    Complex wj = w[j];
    if (invert) wj = std::conj(wj);
    const Complex u = a[j];
    const Complex t = b[j] * wj;
    a[j] = u + t;
    b[j] = u - t;
  }
}

/// All butterfly stages over one bit-reversed sequence. The vector covers
/// W/2 adjacent butterflies of one block; `complex_mul` and the conj mask
/// keep each pair's rounding identical to the scalar `b[j] * wj` (products
/// commute, x + (-1)*y == x - y, IEEE addition is commutative).
template <std::size_t W>
VPAR_SIMD_INLINE void stages_w(Complex* seq, std::size_t n,
                               const Complex* twiddle, bool invert) {
  if constexpr (W == 1) {
    std::size_t tw_base = 0;
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t half = len / 2;
      for (std::size_t start = 0; start < n; start += len) {
        butterflies_scalar(seq + start, seq + start + half, twiddle + tw_base,
                           invert, 0, half);
      }
      tw_base += half;
    }
  }
#if VPAR_SIMD_HAVE_VEC
  else {
    using V = simd::vec<W>;
    constexpr std::size_t kC = W / 2;  // complexes per vector
    const V cmask = simd::conj_mask<W>();
    std::size_t tw_base = 0;
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t half = len / 2;
      const std::size_t jv = half / kC * kC;
      const double* twd = reinterpret_cast<const double*>(twiddle + tw_base);
      for (std::size_t start = 0; start < n; start += len) {
        double* da = reinterpret_cast<double*>(seq + start);
        double* db = da + 2 * half;
        for (std::size_t j = 0; j < jv; j += kC) {
          V vw = load<W>(twd + 2 * j);
          if (invert) vw = vw * cmask;
          const V va = load<W>(da + 2 * j);
          const V vb = load<W>(db + 2 * j);
          const V t = simd::complex_mul<W>(vb, vw);
          store<W>(da + 2 * j, va + t);
          store<W>(db + 2 * j, va - t);
        }
        butterflies_scalar(seq + start, seq + start + half, twiddle + tw_base,
                           invert, jv, half);
      }
      tw_base += half;
    }
  }
#endif
}

/// data[i] *= scale over the interleaved doubles — element-wise, so bitwise
/// identical to the reference `v *= scale` complex loop.
template <std::size_t W>
VPAR_SIMD_INLINE void scale_w(Complex* seq, std::size_t n, double scale) {
  double* d = reinterpret_cast<double*>(seq);
  const std::size_t nd = 2 * n;
  const std::size_t nv = nd / W * W;
  if constexpr (W > 1) {
    const simd::vec<W> vs = splat<W>(scale);
    for (std::size_t i = 0; i < nv; i += W) {
      store<W>(d + i, load<W>(d + i) * vs);
    }
  }
  for (std::size_t i = nv; i < nd; ++i) d[i] *= scale;
}

template <std::size_t W>
VPAR_SIMD_INLINE void radix2_w(Complex* seq, std::size_t n,
                               const TwiddleTables& tables, bool invert) {
  const std::size_t* bitrev = tables.bitrev.data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bitrev[i];
    if (i < j) std::swap(seq[i], seq[j]);
  }
  stages_w<W>(seq, n, tables.twiddle.data(), invert);
  if (invert) scale_w<W>(seq, n, 1.0 / static_cast<double>(n));
}

#if VPAR_SIMD_CLONE_AVX
__attribute__((noinline, target("avx"))) void radix2_v4(
    Complex* seq, std::size_t n, const TwiddleTables& tables, bool invert) {
  radix2_w<4>(seq, n, tables, invert);
}
#endif
#if VPAR_SIMD_CLONE_AVX512
__attribute__((noinline, target("avx512f"))) void radix2_v8(
    Complex* seq, std::size_t n, const TwiddleTables& tables, bool invert) {
  radix2_w<8>(seq, n, tables, invert);
}
#endif

}  // namespace

void radix2_simd(Complex* seq, std::size_t n, const TwiddleTables& tables,
                 bool invert) {
  const std::size_t w = simd::active_width();
  switch (w) {
#if VPAR_SIMD_CLONE_AVX512
    case 8: radix2_v8(seq, n, tables, invert); break;
#endif
#if VPAR_SIMD_CLONE_AVX
    case 4: radix2_v4(seq, n, tables, invert); break;
#endif
#if VPAR_SIMD_HAVE_VEC
    case 2: radix2_w<2>(seq, n, tables, invert); break;
#endif
    default: radix2_w<1>(seq, n, tables, invert); break;
  }
}

void record_radix2_spans(std::size_t n, std::size_t count) {
  const std::size_t w = simd::active_width();
  // Per stage, every block runs half/(w/2) full vectors plus half%(w/2)
  // scalar butterflies (2 doubles each) — the measured short-vector profile.
  // Only the short early stages leave a partial iteration; the full-width
  // iterations of every stage go out in one record.
  std::size_t full = 0;  // full-width iterations of one transform
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    if (w == 1) {
      full += n / len * half;
      continue;
    }
    const std::size_t kc = w / 2;
    full += n / len * (half / kc);
    if (half % kc != 0) simd::record_spans(w, count * (n / len), 0, 2 * (half % kc));
  }
  simd::record_spans(w, count, full, 0);
}

}  // namespace vpar::fft::detail
