#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "blas/blas.hpp"

namespace vpar::blas {
namespace {

std::vector<double> random_matrix(std::size_t rows, std::size_t cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> m(rows * cols);
  for (auto& v : m) v = dist(rng);
  return m;
}

std::vector<Complex> random_cmatrix(std::size_t rows, std::size_t cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<Complex> m(rows * cols);
  for (auto& v : m) v = Complex(dist(rng), dist(rng));
  return m;
}

template <typename T>
T ref_fetch(Trans t, const std::vector<T>& a, std::size_t ld, std::size_t i,
            std::size_t j) {
  if (t == Trans::None) return a[i * ld + j];
  const T v = a[j * ld + i];
  if constexpr (std::is_same_v<T, Complex>) {
    if (t == Trans::ConjTranspose) return std::conj(v);
  }
  return v;
}

template <typename T>
std::vector<T> naive_gemm(Trans ta, Trans tb, std::size_t m, std::size_t n,
                          std::size_t k, T alpha, const std::vector<T>& a,
                          std::size_t lda, const std::vector<T>& b, std::size_t ldb,
                          T beta, const std::vector<T>& c0, std::size_t ldc) {
  std::vector<T> c = c0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      T s{};
      for (std::size_t p = 0; p < k; ++p) {
        s += ref_fetch(ta, a, lda, i, p) * ref_fetch(tb, b, ldb, p, j);
      }
      c[i * ldc + j] = alpha * s + beta * c0[i * ldc + j];
    }
  }
  return c;
}

struct GemmShape {
  std::size_t m, n, k;
};

class GemmSweep : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmSweep, RealMatchesNaive) {
  const auto [m, n, k] = GetParam();
  auto a = random_matrix(m, k, 1);
  auto b = random_matrix(k, n, 2);
  auto c = random_matrix(m, n, 3);
  auto expect = naive_gemm(Trans::None, Trans::None, m, n, k, 1.5, a, k, b, n, 0.5, c, n);
  gemm(Trans::None, Trans::None, m, n, k, 1.5, a.data(), k, b.data(), n, 0.5,
       c.data(), n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], expect[i], 1e-10);
}

TEST_P(GemmSweep, ComplexMatchesNaive) {
  const auto [m, n, k] = GetParam();
  auto a = random_cmatrix(m, k, 4);
  auto b = random_cmatrix(k, n, 5);
  auto c = random_cmatrix(m, n, 6);
  const Complex alpha(0.7, -0.3), beta(0.2, 0.1);
  auto expect = naive_gemm(Trans::None, Trans::None, m, n, k, alpha, a, k, b, n, beta,
                           c, n);
  gemm(Trans::None, Trans::None, m, n, k, alpha, a.data(), k, b.data(), n, beta,
       c.data(), n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_LT(std::abs(c[i] - expect[i]), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmSweep,
                         ::testing::Values(GemmShape{1, 1, 1}, GemmShape{3, 5, 7},
                                           GemmShape{16, 16, 16},
                                           GemmShape{65, 64, 63},
                                           GemmShape{128, 20, 70},
                                           GemmShape{7, 130, 65}));

TEST(Gemm, TransposedOperands) {
  constexpr std::size_t m = 17, n = 13, k = 9;
  auto at = random_matrix(k, m, 7);  // stored k x m, used as A^T
  auto b = random_matrix(k, n, 8);
  std::vector<double> c(m * n, 0.0);
  auto expect =
      naive_gemm(Trans::Transpose, Trans::None, m, n, k, 1.0, at, m, b, n, 0.0, c, n);
  gemm(Trans::Transpose, Trans::None, m, n, k, 1.0, at.data(), m, b.data(), n, 0.0,
       c.data(), n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], expect[i], 1e-10);
}

TEST(Gemm, ConjTransposeComplex) {
  constexpr std::size_t m = 8, n = 6, k = 10;
  auto ah = random_cmatrix(k, m, 9);
  auto b = random_cmatrix(k, n, 10);
  std::vector<Complex> c(m * n);
  auto expect = naive_gemm(Trans::ConjTranspose, Trans::None, m, n, k, Complex(1.0),
                           ah, m, b, n, Complex(0.0), c, n);
  gemm(Trans::ConjTranspose, Trans::None, m, n, k, Complex(1.0), ah.data(), m,
       b.data(), n, Complex(0.0), c.data(), n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_LT(std::abs(c[i] - expect[i]), 1e-10);
}

TEST(Gemm, IdentityLeavesMatrixUnchanged) {
  constexpr std::size_t n = 33;
  std::vector<double> eye(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) eye[i * n + i] = 1.0;
  auto b = random_matrix(n, n, 11);
  std::vector<double> c(n * n, 0.0);
  gemm(Trans::None, Trans::None, n, n, n, 1.0, eye.data(), n, b.data(), n, 0.0,
       c.data(), n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], b[i], 1e-12);
}

TEST(Level1, AxpyDotNrm2Scal) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y = {4.0, 5.0, 6.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  EXPECT_DOUBLE_EQ(dot(x, x), 14.0);
  EXPECT_DOUBLE_EQ(nrm2(std::span<const double>(x)), std::sqrt(14.0));
  scal(0.5, std::span<double>(x));
  EXPECT_DOUBLE_EQ(x[1], 1.0);
}

TEST(Level1, ComplexDotcConjugatesFirstArgument) {
  std::vector<Complex> x = {Complex(0.0, 1.0)};
  std::vector<Complex> y = {Complex(0.0, 1.0)};
  const Complex d = dotc(x, y);
  EXPECT_DOUBLE_EQ(d.real(), 1.0);
  EXPECT_DOUBLE_EQ(d.imag(), 0.0);
  EXPECT_DOUBLE_EQ(nrm2(std::span<const Complex>(x)), 1.0);
}

TEST(Level1, SizeMismatchThrows) {
  std::vector<double> x(3), y(4);
  EXPECT_THROW(axpy(1.0, x, y), std::runtime_error);
  EXPECT_THROW((void)dot(x, y), std::runtime_error);
}

TEST(Gemm, FlopCounters) {
  EXPECT_DOUBLE_EQ(gemm_flops_real(10, 10, 10), 2000.0);
  EXPECT_DOUBLE_EQ(gemm_flops_complex(10, 10, 10), 8000.0);
}

}  // namespace
}  // namespace vpar::blas
