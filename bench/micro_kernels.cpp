// Google-benchmark microbenchmarks of the actual computational kernels on
// the host machine: real wall-clock numbers complementing the architecture
// models, and regression guards for the kernel implementations.

#include <benchmark/benchmark.h>

#include <random>

#include "blas/blas.hpp"
#include "cactus/adm.hpp"
#include "fft/fft_multi.hpp"
#include "gtc/deposition.hpp"
#include "lbmhd/collision.hpp"
#include "lbmhd/stream.hpp"

namespace {

using namespace vpar;

void fill_lbmhd(lbmhd::FieldSet& fs, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(0.01, 0.1);
  for (int p = 0; p < lbmhd::FieldSet::kPlanes; ++p) {
    double* plane = fs.plane(p);
    for (std::size_t k = 0; k < fs.plane_size(); ++k) {
      plane[k] = (p == 0 ? 0.5 : 0.0) + dist(rng);
    }
  }
}

void BM_LbmhdCollisionFlat(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  lbmhd::FieldSet fs(n, n);
  fill_lbmhd(fs, 1);
  for (auto _ : state) {
    lbmhd::collide_flat(fs, lbmhd::CollisionParams{1.0, 1.0});
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n * n));
}
BENCHMARK(BM_LbmhdCollisionFlat)->Arg(64)->Arg(256);

void BM_LbmhdCollisionBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  lbmhd::FieldSet fs(n, n);
  fill_lbmhd(fs, 1);
  for (auto _ : state) {
    lbmhd::collide_blocked(fs, lbmhd::CollisionParams{1.0, 1.0}, 64);
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n * n));
}
BENCHMARK(BM_LbmhdCollisionBlocked)->Arg(64)->Arg(256);

void BM_LbmhdStream(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  lbmhd::FieldSet a(n, n), b(n, n);
  fill_lbmhd(a, 2);
  for (auto _ : state) {
    lbmhd::stream(a, b);
    benchmark::DoNotOptimize(b.plane(0));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n * n));
}
BENCHMARK(BM_LbmhdStream)->Arg(64)->Arg(256);

void BM_CactusRhs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cactus::GridFunctions a(cactus::kNumFields, n, n, n), r(cactus::kNumFields, n, n, n);
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> dist(-0.01, 0.01);
  for (auto& v : a.raw()) v = dist(rng);
  for (auto _ : state) {
    cactus::compute_rhs(a, r, 0.5, 0, n, 0, n, 0, n, cactus::RhsVariant::Vector);
    benchmark::DoNotOptimize(r.raw().data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n * n * n));
}
BENCHMARK(BM_CactusRhs)->Arg(16)->Arg(32);

void BM_GtcDeposit(benchmark::State& state) {
  const auto variant = static_cast<gtc::DepositVariant>(state.range(0));
  const std::size_t n = 10000;
  gtc::TorusGrid grid(32, 32, 4, 1, 0);
  gtc::ParticleSet p;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> ux(0.0, 32.0), uz(0.0, grid.zeta_max());
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back(ux(rng), ux(rng), uz(rng), 0.0, 1.5, 1.0);
  }
  for (auto _ : state) {
    grid.zero_charge();
    gtc::deposit(p, grid, variant, 64);
    benchmark::DoNotOptimize(grid.charge().data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n));
}
BENCHMARK(BM_GtcDeposit)
    ->Arg(static_cast<int>(gtc::DepositVariant::Scatter))
    ->Arg(static_cast<int>(gtc::DepositVariant::WorkVector))
    ->Arg(static_cast<int>(gtc::DepositVariant::Sorted));

void BM_MultiFftLooped(benchmark::State& state) {
  const std::size_t n = 64, count = 256;
  fft::MultiFft1d plan(n);
  std::vector<fft::Complex> data(n * count, fft::Complex(1.0, -0.5));
  for (auto _ : state) {
    plan.looped(data, count);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations() * count));
}
BENCHMARK(BM_MultiFftLooped);

void BM_MultiFftSimultaneous(benchmark::State& state) {
  const std::size_t n = 64, count = 256;
  fft::MultiFft1d plan(n);
  std::vector<fft::Complex> data(n * count, fft::Complex(1.0, -0.5));
  for (auto _ : state) {
    plan.simultaneous(data, count);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations() * count));
}
BENCHMARK(BM_MultiFftSimultaneous);

void BM_ZGemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<blas::Complex> a(n * n, blas::Complex(0.5, 0.1));
  std::vector<blas::Complex> b(n * n, blas::Complex(-0.2, 0.7));
  std::vector<blas::Complex> c(n * n);
  for (auto _ : state) {
    blas::gemm(blas::Trans::None, blas::Trans::None, n, n, n, blas::Complex(1.0),
               a.data(), n, b.data(), n, blas::Complex(0.0), c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["gflops"] = benchmark::Counter(
      blas::gemm_flops_complex(n, n, n) * static_cast<double>(state.iterations()) /
          1.0e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ZGemm)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
