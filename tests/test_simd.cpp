#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "simd/dispatch.hpp"
#include "simd/simd.hpp"

namespace vpar::simd {
namespace {

// Every width is exercised regardless of what the CPU executes: code compiled
// at the baseline ISA still evaluates wide vector-extension types (GCC
// emulates them with narrower registers), so these property checks need no
// cpuid guards — only the build-level VPAR_SIMD_HAVE_VEC gate.

template <std::size_t W>
std::vector<double> lanes_of(vec<W> v) {
  std::vector<double> out(W);
  store<W>(out.data(), v);
  return out;
}

template <std::size_t W>
void CheckLoadStoreRoundTrip() {
  // Unaligned offsets 0..W against a guarded buffer: the load must read
  // exactly W doubles and the store must write exactly W (guards intact).
  for (std::size_t off = 0; off <= W; ++off) {
    std::vector<double> src(off + W + 2, -99.0);
    for (std::size_t i = 0; i < src.size(); ++i) {
      src[i] = 0.25 + 0.5 * static_cast<double>(i);
    }
    const vec<W> v = load<W>(src.data() + off);
    std::vector<double> dst(off + W + 2, 7.5);
    store<W>(dst.data() + off, v);
    for (std::size_t l = 0; l < W; ++l) {
      EXPECT_EQ(dst[off + l], src[off + l]) << "off=" << off << " lane=" << l;
    }
    for (std::size_t i = 0; i < dst.size(); ++i) {
      if (i < off || i >= off + W) {
        EXPECT_EQ(dst[i], 7.5) << "guard clobbered at " << i;
      }
    }
  }
}

template <std::size_t W>
void CheckSplat() {
  for (double x : {3.5, -0.0, 1e-308}) {
    const auto lanes = lanes_of<W>(splat<W>(x));
    for (std::size_t l = 0; l < W; ++l) {
      EXPECT_EQ(lanes[l], x);
      EXPECT_EQ(std::signbit(lanes[l]), std::signbit(x)) << "lane " << l;
    }
  }
}

template <std::size_t W>
void CheckMulAdd() {
  double a[W], b[W], c[W];
  std::mt19937_64 rng(11 + W);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  for (std::size_t l = 0; l < W; ++l) {
    a[l] = dist(rng);
    b[l] = dist(rng);
    c[l] = dist(rng);
  }
  const auto lanes =
      lanes_of<W>(mul_add<W>(load<W>(a), load<W>(b), load<W>(c)));
  for (std::size_t l = 0; l < W; ++l) {
    // The SIMD TUs disable FMA contraction, so each lane is the two-rounding
    // a*b + c — which is also what this (default-flags) TU computes on the
    // baseline ISA.
    EXPECT_EQ(lanes[l], a[l] * b[l] + c[l]);
  }
}

template <std::size_t W>
void CheckReduceAdd() {
  double a[W];
  std::mt19937_64 rng(23 + W);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t l = 0; l < W; ++l) a[l] = dist(rng);
  double expect = a[0];
  for (std::size_t l = 1; l < W; ++l) expect += a[l];
  EXPECT_EQ(reduce_add<W>(load<W>(a)), expect);
}

template <std::size_t W>
void CheckGather() {
  std::vector<double> base(40);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<double>(i) * 1.5;
  }
  std::size_t idx[W];
  for (std::size_t l = 0; l < W; ++l) idx[l] = (l * 7 + 3) % base.size();
  const auto lanes = lanes_of<W>(gather<W>(base.data(), idx));
  for (std::size_t l = 0; l < W; ++l) EXPECT_EQ(lanes[l], base[idx[l]]);
}

/// Strip-mined y[i] += alpha * x[i]: full-width strips plus the W=1 tail of
/// the same template must match the scalar loop bitwise for every length —
/// below-width, exact-width, width*k+1 and prime lengths.
template <std::size_t W>
void CheckStripMinedTail() {
  const double alpha = 1.37;
  for (std::size_t n : {std::size_t{0}, W - 1, W, W + 1, 2 * W + 1,
                        std::size_t{13}, std::size_t{97}}) {
    std::mt19937_64 rng(100 + n);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> x(n), y_ref(n), y_simd(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = dist(rng);
      y_ref[i] = y_simd[i] = dist(rng);
    }
    for (std::size_t i = 0; i < n; ++i) y_ref[i] += alpha * x[i];
    const std::size_t nv = n / W * W;
    const vec<W> va = splat<W>(alpha);
    for (std::size_t i = 0; i < nv; i += W) {
      store<W>(y_simd.data() + i,
               load<W>(y_simd.data() + i) + va * load<W>(x.data() + i));
    }
    for (std::size_t i = nv; i < n; ++i) {
      y_simd[i] = y_simd[i] + alpha * x[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y_simd[i], y_ref[i]) << "n=" << n << " i=" << i;
    }
  }
}

template <std::size_t W>
void CheckPairShuffles() {
  static_assert(W >= 2);
  double a[W];
  for (std::size_t l = 0; l < W; ++l) a[l] = static_cast<double>(l) + 0.5;
  const vec<W> v = load<W>(a);
  const auto sw = lanes_of<W>(swap_pairs<W>(v));
  const auto de = lanes_of<W>(dup_even<W>(v));
  const auto dod = lanes_of<W>(dup_odd<W>(v));
  for (std::size_t p = 0; p < W / 2; ++p) {
    EXPECT_EQ(sw[2 * p], a[2 * p + 1]);
    EXPECT_EQ(sw[2 * p + 1], a[2 * p]);
    EXPECT_EQ(de[2 * p], a[2 * p]);
    EXPECT_EQ(de[2 * p + 1], a[2 * p]);
    EXPECT_EQ(dod[2 * p], a[2 * p + 1]);
    EXPECT_EQ(dod[2 * p + 1], a[2 * p + 1]);
  }
  const auto alt = lanes_of<W>(alt_sign<W>());
  const auto cm = lanes_of<W>(conj_mask<W>());
  const auto sp = lanes_of<W>(splat_pair<W>(2.25, -3.5));
  for (std::size_t p = 0; p < W / 2; ++p) {
    EXPECT_EQ(alt[2 * p], -1.0);
    EXPECT_EQ(alt[2 * p + 1], 1.0);
    EXPECT_EQ(cm[2 * p], 1.0);
    EXPECT_EQ(cm[2 * p + 1], -1.0);
    EXPECT_EQ(sp[2 * p], 2.25);
    EXPECT_EQ(sp[2 * p + 1], -3.5);
  }
}

template <std::size_t W>
void CheckComplexMul() {
  static_assert(W >= 2);
  double a[W], b[W];
  std::mt19937_64 rng(31 + W);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  for (std::size_t l = 0; l < W; ++l) {
    a[l] = dist(rng);
    b[l] = dist(rng);
  }
  const auto r = lanes_of<W>(complex_mul<W>(load<W>(a), load<W>(b)));
  for (std::size_t p = 0; p < W / 2; ++p) {
    const double ar = a[2 * p], ai = a[2 * p + 1];
    const double br = b[2 * p], bi = b[2 * p + 1];
    // The documented rounding order: products first, x + (-1)*y == x - y.
    EXPECT_EQ(r[2 * p], br * ar - bi * ai) << "pair " << p;
    EXPECT_EQ(r[2 * p + 1], br * ai + bi * ar) << "pair " << p;
    // ... which is bitwise the naive std::complex product (finite values).
    const std::complex<double> expect =
        std::complex<double>(ar, ai) * std::complex<double>(br, bi);
    EXPECT_EQ(r[2 * p], expect.real());
    EXPECT_EQ(r[2 * p + 1], expect.imag());
  }
}

template <std::size_t W>
void RunPrimitiveChecks() {
  CheckLoadStoreRoundTrip<W>();
  CheckSplat<W>();
  CheckMulAdd<W>();
  CheckReduceAdd<W>();
  CheckGather<W>();
  CheckStripMinedTail<W>();
  if constexpr (W >= 2) {
    CheckPairShuffles<W>();
    CheckComplexMul<W>();
  }
}

TEST(SimdPrimitives, Width1ScalarFallback) { RunPrimitiveChecks<1>(); }

#if VPAR_SIMD_HAVE_VEC
TEST(SimdPrimitives, Width2) { RunPrimitiveChecks<2>(); }
TEST(SimdPrimitives, Width4) { RunPrimitiveChecks<4>(); }
TEST(SimdPrimitives, Width8) { RunPrimitiveChecks<8>(); }
#endif

TEST(SimdDispatch, WidthCapMatchesBuild) {
  EXPECT_EQ(compiled_width_cap(), std::size_t{VPAR_SIMD_WIDTH_MAX});
  EXPECT_GE(preferred_width(), std::size_t{1});
  EXPECT_LE(preferred_width(), compiled_width_cap());
}

TEST(SimdDispatch, ForceModesOverrideWidth) {
  const DispatchMode prev = dispatch_mode();
  set_dispatch_mode(DispatchMode::ForceScalar);
  EXPECT_EQ(active_width(), std::size_t{1});
  EXPECT_FALSE(use_simd());
  set_dispatch_mode(DispatchMode::ForceSimd);
  EXPECT_EQ(active_width(), preferred_width());
  set_dispatch_mode(DispatchMode::Auto);
  EXPECT_EQ(active_width(), preferred_width());
  set_dispatch_mode(prev);
}

TEST(SimdDispatch, EnvParserAcceptsItsThreeSpellings) {
  EXPECT_EQ(detail::dispatch_mode_from_env(nullptr), DispatchMode::Auto);
  EXPECT_EQ(detail::dispatch_mode_from_env(""), DispatchMode::Auto);
  EXPECT_EQ(detail::dispatch_mode_from_env("auto"), DispatchMode::Auto);
  EXPECT_EQ(detail::dispatch_mode_from_env("scalar"), DispatchMode::ForceScalar);
  EXPECT_EQ(detail::dispatch_mode_from_env("simd"), DispatchMode::ForceSimd);
}

TEST(SimdDispatch, EnvParserRejectsTyposAndNamesTheAcceptedValues) {
  for (const char* bad : {"scaler", "SIMD", "off", "0", " simd", "simd "}) {
    try {
      (void)detail::dispatch_mode_from_env(bad);
      ADD_FAILURE() << "accepted VPAR_SIMD_DISPATCH='" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("auto|scalar|simd"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SimdDispatch, IsaNamesAreStable) {
  EXPECT_STREQ(width_isa_name(1), "scalar");
  EXPECT_STREQ(width_isa_name(8), "avx512f");
  EXPECT_STREQ(width_isa_name(4), "avx");
}

}  // namespace
}  // namespace vpar::simd
