#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

#include "fft/fft1d.hpp"
#include "fft/fft_multi.hpp"
#include "perf/kernel_profile.hpp"
#include "perf/recorder.hpp"

namespace vpar::fft {
namespace {

std::vector<Complex> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<Complex> v(n);
  for (auto& c : v) c = Complex(dist(rng), dist(rng));
  return v;
}

std::vector<Complex> naive_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex s{};
    for (std::size_t j = 0; j < n; ++j) {
      const double a = -2.0 * std::numbers::pi * static_cast<double>(j * k % n) /
                       static_cast<double>(n);
      s += x[j] * Complex(std::cos(a), std::sin(a));
    }
    out[k] = s;
  }
  return out;
}

double max_diff(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

class Fft1dRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1dRoundTrip, InverseOfForwardIsIdentity) {
  const std::size_t n = GetParam();
  Fft1d plan(n);
  auto x = random_signal(n, static_cast<unsigned>(n));
  auto y = x;
  plan.forward(y);
  plan.inverse(y);
  EXPECT_LT(max_diff(x, y), 1e-10) << "n=" << n;
}

TEST_P(Fft1dRoundTrip, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  if (n > 512) GTEST_SKIP() << "naive DFT too slow";
  Fft1d plan(n);
  auto x = random_signal(n, static_cast<unsigned>(n) + 1);
  auto ref = naive_dft(x);
  plan.forward(x);
  EXPECT_LT(max_diff(x, ref), 1e-9 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(PowersAndOthers, Fft1dRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024,
                                           3, 5, 6, 7, 12, 15, 100, 243));

TEST(Fft1d, DeltaTransformsToConstant) {
  Fft1d plan(64);
  std::vector<Complex> x(64);
  x[0] = 1.0;
  plan.forward(x);
  for (const auto& v : x) EXPECT_NEAR(std::abs(v - Complex(1.0, 0.0)), 0.0, 1e-12);
}

TEST(Fft1d, SinusoidConcentratesInOneBin) {
  constexpr std::size_t n = 128;
  Fft1d plan(n);
  std::vector<Complex> x(n);
  constexpr std::size_t k0 = 5;
  for (std::size_t j = 0; j < n; ++j) {
    const double a = 2.0 * std::numbers::pi * static_cast<double>(k0 * j) / n;
    x[j] = Complex(std::cos(a), std::sin(a));
  }
  plan.forward(x);
  EXPECT_NEAR(std::abs(x[k0]), static_cast<double>(n), 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != k0) {
      EXPECT_LT(std::abs(x[k]), 1e-9);
    }
  }
}

TEST(Fft1d, ParsevalHolds) {
  constexpr std::size_t n = 256;
  Fft1d plan(n);
  auto x = random_signal(n, 7);
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  plan.forward(x);
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-9);
}

TEST(Fft1d, Linearity) {
  constexpr std::size_t n = 128;
  Fft1d plan(n);
  auto a = random_signal(n, 1);
  auto b = random_signal(n, 2);
  std::vector<Complex> sum(n);
  const Complex alpha(2.0, -1.0);
  for (std::size_t i = 0; i < n; ++i) sum[i] = alpha * a[i] + b[i];
  plan.forward(a);
  plan.forward(b);
  plan.forward(sum);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(sum[i] - (alpha * a[i] + b[i])), 0.0, 1e-9);
  }
}

TEST(Fft1d, SizeMismatchThrows) {
  Fft1d plan(8);
  std::vector<Complex> wrong(7);
  EXPECT_THROW(plan.forward(wrong), std::runtime_error);
  EXPECT_THROW(Fft1d(0), std::runtime_error);
}

TEST(Fft1d, FlopCountPositiveAndGrowing) {
  EXPECT_GT(Fft1d(64).flop_count(), 0.0);
  EXPECT_GT(Fft1d(128).flop_count(), Fft1d(64).flop_count());
  EXPECT_GT(Fft1d(100).flop_count(), Fft1d(64).flop_count());  // Bluestein costs more
}

class MultiFftEquivalence
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(MultiFftEquivalence, SimultaneousEqualsLooped) {
  const auto [n, count] = GetParam();
  MultiFft1d plan(n);
  auto a = random_signal(n * count, static_cast<unsigned>(n * count));
  auto b = a;
  plan.looped(a, count);
  plan.simultaneous(b, count);
  EXPECT_LT(max_diff(a, b), 1e-12);

  plan.looped(a, count, /*invert=*/true);
  plan.simultaneous(b, count, /*invert=*/true);
  EXPECT_LT(max_diff(a, b), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiFftEquivalence,
    ::testing::Values(std::pair<std::size_t, std::size_t>{8, 1},
                      std::pair<std::size_t, std::size_t>{8, 17},
                      std::pair<std::size_t, std::size_t>{64, 8},
                      std::pair<std::size_t, std::size_t>{128, 3},
                      std::pair<std::size_t, std::size_t>{16, 256}));

TEST(MultiFft, VectorizationShowsInInstrumentation) {
  // The simultaneous variant's vector length is the batch size; the looped
  // variant's is the (short) transform length — the paper's PARATEC story.
  constexpr std::size_t n = 16, count = 512;
  MultiFft1d plan(n);
  auto data = random_signal(n * count, 3);

  perf::Recorder rec_loop, rec_simd;
  {
    perf::ScopedRecorder s(rec_loop);
    auto d = data;
    plan.looped(d, count);
  }
  {
    perf::ScopedRecorder s(rec_simd);
    auto d = data;
    plan.simultaneous(d, count);
  }
  const auto loop_stats = perf::compute_vector_stats(rec_loop.kernels(), 256);
  const auto simd_stats = perf::compute_vector_stats(rec_simd.kernels(), 256);
  EXPECT_LE(loop_stats.avl, n / 2);
  EXPECT_GE(simd_stats.avl, 256.0 - 1e-9);
}

}  // namespace
}  // namespace vpar::fft
