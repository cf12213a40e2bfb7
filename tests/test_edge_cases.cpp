// Edge-case sweep across the substrate libraries: degenerate shapes, zero
// scalars, and boundary parameters that production code paths must survive.

#include <gtest/gtest.h>

#include "blas/blas.hpp"
#include "fft/fft1d.hpp"
#include "fft/fft_multi.hpp"
#include "lbmhd/exchange.hpp"
#include "paratec/basis.hpp"
#include "paratec/layout.hpp"

namespace vpar {
namespace {

TEST(BlasEdge, AlphaZeroScalesOnly) {
  std::vector<double> a(4, 5.0), b(4, 7.0), c = {1.0, 2.0, 3.0, 4.0};
  blas::gemm(blas::Trans::None, blas::Trans::None, 2, 2, 2, 0.0, a.data(), 2,
             b.data(), 2, 2.0, c.data(), 2);
  EXPECT_DOUBLE_EQ(c[0], 2.0);
  EXPECT_DOUBLE_EQ(c[3], 8.0);
}

TEST(BlasEdge, BetaZeroOverwritesGarbage) {
  std::vector<blas::Complex> a(1, {1.0, 0.0}), b(1, {2.0, 0.0});
  std::vector<blas::Complex> c(1, {std::nan(""), std::nan("")});
  blas::gemm(blas::Trans::None, blas::Trans::None, 1, 1, 1, blas::Complex(1.0),
             a.data(), 1, b.data(), 1, blas::Complex(0.0), c.data(), 1);
  EXPECT_DOUBLE_EQ(c[0].real(), 2.0);  // NaN in C must not leak through beta=0
  EXPECT_DOUBLE_EQ(c[0].imag(), 0.0);
}

TEST(BlasEdge, DegenerateShapes) {
  // k = 0: C = beta * C regardless of A/B contents.
  std::vector<double> c = {3.0};
  blas::gemm(blas::Trans::None, blas::Trans::None, 1, 1, 0, 1.0, nullptr, 1,
             nullptr, 1, 2.0, c.data(), 1);
  EXPECT_DOUBLE_EQ(c[0], 6.0);
}

TEST(FftEdge, LengthOneIsIdentity) {
  fft::Fft1d plan(1);
  std::vector<fft::Complex> x = {{3.0, -4.0}};
  plan.forward(x);
  EXPECT_DOUBLE_EQ(x[0].real(), 3.0);
  plan.inverse(x);
  EXPECT_DOUBLE_EQ(x[0].imag(), -4.0);
}

TEST(FftEdge, MultiFftZeroCount) {
  fft::MultiFft1d plan(8);
  std::vector<fft::Complex> empty;
  plan.simultaneous(empty, 0);  // must not crash
  plan.looped(empty, 0);
}

TEST(DecompEdge, RejectsDegenerateBlocks) {
  // Local blocks smaller than the ghost width must be refused, not wrapped.
  EXPECT_THROW(lbmhd::Decomp2D(8, 8, 4, 1, 0), std::runtime_error);   // nxl=2 < 4
  EXPECT_THROW(lbmhd::Decomp2D(12, 8, 5, 1, 0), std::runtime_error);  // indivisible
  EXPECT_THROW(lbmhd::Decomp2D(8, 8, 0, 1, 0), std::runtime_error);
}

TEST(BasisEdge, TinyCutoffStillWellFormed) {
  const paratec::Basis basis(1.0);  // gmax = 1: 7 plane waves
  EXPECT_EQ(basis.size(), 7u);
  const paratec::Layout layout(basis, 3);
  std::size_t total = 0;
  for (int r = 0; r < 3; ++r) total += layout.local_size(r);
  EXPECT_EQ(total, 7u);
  EXPECT_THROW(paratec::Basis(0.0), std::runtime_error);
}

TEST(LayoutEdge, MoreProcsThanColumnsLeavesSomeEmpty) {
  const paratec::Basis basis(1.0);  // 5 columns
  const paratec::Layout layout(basis, 8);
  std::size_t nonempty = 0, total = 0;
  for (int r = 0; r < 8; ++r) {
    total += layout.local_size(r);
    nonempty += layout.local_size(r) > 0 ? 1 : 0;
  }
  EXPECT_EQ(total, basis.size());
  EXPECT_LE(nonempty, 5u);
}

}  // namespace
}  // namespace vpar
