#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "blas/blas.hpp"
#include "cactus/adm.hpp"
#include "cactus/grid.hpp"
#include "fft/fft1d.hpp"
#include "fft/fft_multi.hpp"
#include "gtc/deposition.hpp"
#include "gtc/gtc_simd.hpp"
#include "gtc/push.hpp"
#include "lbmhd/collision.hpp"
#include "lbmhd/field_set.hpp"
#include "qcd/dslash.hpp"
#include "simd/dispatch.hpp"
#include "simrt/runtime.hpp"
#include "trace/metrics.hpp"

// Scalar-vs-SIMD equivalence for the five ported kernels. Every SIMD path
// mirrors its scalar reference's operation order exactly (constants
// broadcast, per-element expressions unreassociated, scalar-order per-lane
// accumulations, -ffp-contract=off on the SIMD translation units), so the
// comparisons below are *bitwise* — EXPECT_EQ on doubles — not tolerance
// based. Sizes cover the paper-shaped cases plus adversarial lengths around
// the widest vector (below width, exact width, width*k+1, primes), which
// drive the remainder loops through every kernel. On scalar-only builds
// ForceSimd degenerates to the scalar path and the tests pass trivially.

namespace vpar {
namespace {

using simd::DispatchMode;

class DispatchGuard {
 public:
  explicit DispatchGuard(DispatchMode m) : prev_(simd::dispatch_mode()) {
    simd::set_dispatch_mode(m);
  }
  ~DispatchGuard() { simd::set_dispatch_mode(prev_); }

 private:
  DispatchMode prev_;
};

TEST(SimdEquivalence, LbmhdCollision) {
  for (auto [nx, ny] : {std::pair<std::size_t, std::size_t>{7, 3},
                        {8, 4},
                        {9, 5},
                        {17, 3},
                        {64, 8},
                        {127, 2}}) {
    lbmhd::FieldSet ref(nx, ny), vec(nx, ny);
    std::mt19937_64 rng(nx * 100 + ny);
    std::uniform_real_distribution<double> df(0.05, 0.15);
    std::uniform_real_distribution<double> dg(-0.01, 0.01);
    const std::size_t fsize = 9 * ref.plane_size();
    for (std::size_t i = 0; i < ref.raw().size(); ++i) {
      const double v = i < fsize ? df(rng) : dg(rng);
      ref.raw()[i] = v;
      vec.raw()[i] = v;
    }
    const lbmhd::CollisionParams params{1.1, 0.9};
    {
      DispatchGuard g(DispatchMode::ForceScalar);
      lbmhd::collide_flat(ref, params);
    }
    {
      DispatchGuard g(DispatchMode::ForceSimd);
      lbmhd::collide_flat(vec, params);
    }
    for (std::size_t i = 0; i < ref.raw().size(); ++i) {
      ASSERT_EQ(vec.raw()[i], ref.raw()[i]) << "nx=" << nx << " i=" << i;
    }
  }
}

TEST(SimdEquivalence, CactusAdmRhs) {
  // 130 interior points crosses the kernel's 128-point row chunk, so the
  // chunk seam and its vector/tail split are both exercised.
  for (auto [nx, ny, nz] : {std::array<std::size_t, 3>{7, 4, 4},
                            {8, 4, 4},
                            {9, 4, 4},
                            {17, 6, 6},
                            {130, 4, 4}}) {
    cactus::GridFunctions state(cactus::kNumFields, nx, ny, nz);
    std::mt19937_64 rng(nx);
    std::uniform_real_distribution<double> dist(-0.01, 0.01);
    for (auto& v : state.raw()) v = dist(rng);
    cactus::GridFunctions ref(cactus::kNumFields, nx, ny, nz);
    cactus::GridFunctions vec(cactus::kNumFields, nx, ny, nz);
    {
      DispatchGuard g(DispatchMode::ForceScalar);
      cactus::compute_rhs(state, ref, 0.25, 0, static_cast<std::ptrdiff_t>(nx),
                          0, static_cast<std::ptrdiff_t>(ny), 0,
                          static_cast<std::ptrdiff_t>(nz),
                          cactus::RhsVariant::Vector);
    }
    {
      DispatchGuard g(DispatchMode::ForceSimd);
      cactus::compute_rhs(state, vec, 0.25, 0, static_cast<std::ptrdiff_t>(nx),
                          0, static_cast<std::ptrdiff_t>(ny), 0,
                          static_cast<std::ptrdiff_t>(nz),
                          cactus::RhsVariant::Vector);
    }
    for (std::size_t i = 0; i < ref.raw().size(); ++i) {
      ASSERT_EQ(vec.raw()[i], ref.raw()[i]) << "nx=" << nx << " i=" << i;
    }
  }
}

gtc::ParticleSet random_particles(const gtc::TorusGrid& grid, std::size_t n,
                                  unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> ux(0.0, static_cast<double>(grid.ngx()));
  std::uniform_real_distribution<double> uy(0.0, static_cast<double>(grid.ngy()));
  std::uniform_real_distribution<double> uz(grid.zeta_min(), grid.zeta_max());
  std::uniform_real_distribution<double> ur(0.0, 2.0);
  std::uniform_real_distribution<double> uq(-1.0, 1.0);
  gtc::ParticleSet p;
  for (std::size_t i = 0; i < n; ++i) {
    p.push_back(ux(rng), uy(rng), uz(rng), 0.1, ur(rng), uq(rng));
  }
  return p;
}

/// Markers that take the strip kernels' scalar fallbacks, one kind per
/// marker in turn (i % 5): a gyroradius above the grid width (ring points
/// beyond [-n, 2n)), zeta at zeta_min(), zeta one ulp below zeta_max() (the
/// ghost plane weighs almost 1), and x three periods out (the drift's wrap
/// takes fmod too); kind 4 keeps the marker as drawn.
void add_edge_markers(gtc::ParticleSet& p, const gtc::TorusGrid& grid) {
  const double nx = static_cast<double>(grid.ngx());
  for (std::size_t i = 0; i < p.size(); ++i) {
    switch (i % 5) {
      case 0: p.rho[i] = 2.5 * nx; break;
      case 1: p.zeta[i] = grid.zeta_min(); break;
      case 2: p.zeta[i] = std::nextafter(grid.zeta_max(), 0.0); break;
      case 3: p.x[i] += 3.0 * nx; break;
      default: break;
    }
  }
}

void fill_grid_fields(gtc::TorusGrid& grid, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-0.5, 0.5);
  for (int p = 0; p < grid.planes_local(); ++p) {
    for (std::size_t i = 0; i < grid.plane_size(); ++i) {
      grid.ex_plane(p)[i] = dist(rng);
      grid.ey_plane(p)[i] = dist(rng);
    }
  }
}

TEST(SimdEquivalence, GtcGatherPush) {
  simrt::run(1, [](simrt::Communicator& comm) {
    gtc::TorusGrid grid(16, 12, 4, comm.size(), comm.rank());
    fill_grid_fields(grid, 42);
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> dist(-0.5, 0.5);
    const int ghost = grid.planes_local();
    for (std::size_t i = 0; i < grid.plane_size(); ++i) grid.ex_plane(ghost)[i] = dist(rng);
    for (std::size_t i = 0; i < grid.plane_size(); ++i) grid.ey_plane(ghost)[i] = dist(rng);
    for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                          std::size_t{9}, std::size_t{257}}) {
      gtc::ParticleSet ref = random_particles(grid, n, 1000 + n);
      add_edge_markers(ref, grid);
      gtc::ParticleSet vec = ref;
      {
        DispatchGuard g(DispatchMode::ForceScalar);
        gtc::gather_push(ref, grid, 0.01, 1.0);
      }
      {
        DispatchGuard g(DispatchMode::ForceSimd);
        gtc::gather_push(vec, grid, 0.01, 1.0);
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(vec.x[i], ref.x[i]) << "n=" << n << " i=" << i;
        ASSERT_EQ(vec.y[i], ref.y[i]) << "n=" << n << " i=" << i;
        ASSERT_EQ(vec.zeta[i], ref.zeta[i]) << "n=" << n << " i=" << i;
      }
    }
  });
}

TEST(SimdEquivalence, GtcDepositFolds) {
  simrt::run(1, [](simrt::Communicator& comm) {
    for (auto variant :
         {gtc::DepositVariant::WorkVector, gtc::DepositVariant::Hybrid}) {
      for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                            std::size_t{9}, std::size_t{257}}) {
        gtc::TorusGrid ref(17, 7, 4, comm.size(), comm.rank());
        gtc::TorusGrid vec(17, 7, 4, comm.size(), comm.rank());
        gtc::ParticleSet p = random_particles(ref, n, 2000 + n);
        add_edge_markers(p, ref);
        {
          DispatchGuard g(DispatchMode::ForceScalar);
          gtc::deposit(p, ref, variant, 32);
        }
        {
          DispatchGuard g(DispatchMode::ForceSimd);
          gtc::deposit(p, vec, variant, 32);
        }
        for (std::size_t i = 0; i < ref.charge().size(); ++i) {
          ASSERT_EQ(vec.charge()[i], ref.charge()[i]) << "n=" << n << " i=" << i;
        }
      }
    }
  });
}

TEST(SimdEquivalence, GtcStencilStripLanesMatchComputeStencil) {
  DispatchGuard g(DispatchMode::ForceSimd);
  const std::size_t w = simd::active_width();
  const gtc::TorusGrid grid(16, 12, 4, 1, 0);
  gtc::ParticleSet p = random_particles(grid, 64, 3000);
  add_edge_markers(p, grid);
  for (std::size_t i0 = 0; i0 + w <= p.size(); i0 += w) {
    gtc::detail::StencilStrip strip;
    ASSERT_EQ(gtc::detail::build_stencil_strip(p, grid, i0, strip), w);
    for (std::size_t l = 0; l < w; ++l) {
      const std::size_t i = i0 + l;
      gtc::DepositStencil want{}, lane{};
      gtc::compute_stencil(grid, p.x[i], p.y[i], p.zeta[i], p.rho[i], want);
      lane.plane[0] = strip.plane[l];
      lane.plane[1] = strip.plane[l] + 1;
      for (int b = 0; b < 2; ++b) lane.wplane[b] = strip.wplane[b][l];
      for (int c = 0; c < 16; ++c) {
        lane.cell[c] = static_cast<std::size_t>(strip.cell[c][l]);
        lane.wcell[c] = strip.wcell[c][l];
      }
      ASSERT_EQ(std::memcmp(&lane, &want, sizeof(lane)), 0) << "marker " << i;
    }
  }
}

TEST(SimdEquivalence, Fft1dRoundTrips) {
  using Complex = std::complex<double>;
  // Powers of two hit radix-2 directly (including half < vector stages);
  // 7 and 17 route through Bluestein, whose inner power-of-two transforms
  // are the SIMD path while the chirp algebra stays scalar — still bitwise.
  for (std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{8},
                        std::size_t{64}, std::size_t{1024}, std::size_t{7},
                        std::size_t{17}}) {
    std::mt19937_64 rng(n);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<Complex> ref(n), vec(n);
    for (std::size_t i = 0; i < n; ++i) {
      ref[i] = vec[i] = Complex(dist(rng), dist(rng));
    }
    const fft::Fft1d plan(n);
    {
      DispatchGuard g(DispatchMode::ForceScalar);
      plan.forward(ref);
      plan.inverse(ref);
    }
    {
      DispatchGuard g(DispatchMode::ForceSimd);
      plan.forward(vec);
      plan.inverse(vec);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(vec[i].real(), ref[i].real()) << "n=" << n << " i=" << i;
      ASSERT_EQ(vec[i].imag(), ref[i].imag()) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdEquivalence, FftMultiSimultaneous) {
  using Complex = std::complex<double>;
  const std::size_t n = 64, count = 5;
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<Complex> ref(n * count), vec(n * count);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = vec[i] = Complex(dist(rng), dist(rng));
  }
  const fft::MultiFft1d plan(n);
  {
    DispatchGuard g(DispatchMode::ForceScalar);
    plan.simultaneous(ref, count, false);
    plan.simultaneous(ref, count, true);
  }
  {
    DispatchGuard g(DispatchMode::ForceSimd);
    plan.simultaneous(vec, count, false);
    plan.simultaneous(vec, count, true);
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(vec[i].real(), ref[i].real()) << "i=" << i;
    ASSERT_EQ(vec[i].imag(), ref[i].imag()) << "i=" << i;
  }
}

template <typename T>
void CheckGemmEquivalence(blas::Trans ta, blas::Trans tb, std::size_t m,
                          std::size_t n, std::size_t k, T alpha, T beta) {
  std::mt19937_64 rng(m * 31 + n * 7 + k);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  auto rand_elem = [&]() -> T {
    if constexpr (std::is_same_v<T, std::complex<double>>) {
      return T(dist(rng), dist(rng));
    } else {
      return dist(rng);
    }
  };
  const std::size_t lda = ta == blas::Trans::None ? k : m;
  const std::size_t ldb = tb == blas::Trans::None ? n : k;
  std::vector<T> a(m * k), b(k * n), c_ref(m * n), c_vec(m * n);
  for (auto& v : a) v = rand_elem();
  for (auto& v : b) v = rand_elem();
  for (std::size_t i = 0; i < c_ref.size(); ++i) c_ref[i] = c_vec[i] = rand_elem();
  {
    DispatchGuard g(DispatchMode::ForceScalar);
    blas::gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
               c_ref.data(), n);
  }
  {
    DispatchGuard g(DispatchMode::ForceSimd);
    blas::gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
               c_vec.data(), n);
  }
  for (std::size_t i = 0; i < c_ref.size(); ++i) {
    if constexpr (std::is_same_v<T, std::complex<double>>) {
      ASSERT_EQ(c_vec[i].real(), c_ref[i].real()) << "i=" << i;
      ASSERT_EQ(c_vec[i].imag(), c_ref[i].imag()) << "i=" << i;
    } else {
      ASSERT_EQ(c_vec[i], c_ref[i]) << "i=" << i;
    }
  }
}

TEST(SimdEquivalence, GemmReal) {
  for (auto [m, n, k] : {std::array<std::size_t, 3>{1, 1, 1},
                         {3, 5, 7},
                         {8, 8, 8},
                         {17, 9, 5},
                         {65, 66, 67}}) {
    for (auto ta : {blas::Trans::None, blas::Trans::Transpose}) {
      for (auto tb : {blas::Trans::None, blas::Trans::Transpose}) {
        CheckGemmEquivalence<double>(ta, tb, m, n, k, 1.3, 0.7);
      }
    }
    CheckGemmEquivalence<double>(blas::Trans::None, blas::Trans::None, m, n, k,
                                 1.0, 0.0);
  }
}

TEST(SimdEquivalence, GemmComplex) {
  using Complex = std::complex<double>;
  for (auto [m, n, k] : {std::array<std::size_t, 3>{3, 5, 7},
                         {8, 8, 8},
                         {17, 9, 5},
                         {33, 34, 35}}) {
    for (auto tb : {blas::Trans::None, blas::Trans::Transpose,
                    blas::Trans::ConjTranspose}) {
      CheckGemmEquivalence<Complex>(blas::Trans::None, tb, m, n, k,
                                    Complex(1.3, -0.2), Complex(0.7, 0.1));
    }
  }
}

/// The four simd.* readings a kernel call moves.
struct SimdCounts {
  std::uint64_t vector_iters = 0;
  std::uint64_t remainder_iters = 0;
  std::uint64_t lanes_count = 0;
  std::uint64_t lanes_sum = 0;
};

SimdCounts read_simd_counts() {
  auto& metrics = trace::Metrics::instance();
  const auto& lanes = metrics.histogram("simd.lanes_active");
  return {metrics.counter("simd.vector_iters").value(),
          metrics.counter("simd.remainder_iters").value(), lanes.count(), lanes.sum()};
}

/// What `spans` spans of `n` points add at width `w`: n / w full-width
/// iterations each, plus one partial iteration of n % w lanes.
SimdCounts spans_of(std::size_t w, std::size_t spans, std::size_t n) {
  SimdCounts c;
  c.vector_iters = spans * (n / w);
  c.remainder_iters = spans * (n % w);
  c.lanes_count = c.vector_iters + (n % w != 0 ? spans : 0);
  c.lanes_sum = w * c.vector_iters + c.remainder_iters;
  return c;
}

SimdCounts operator+(SimdCounts a, const SimdCounts& b) {
  a.vector_iters += b.vector_iters;
  a.remainder_iters += b.remainder_iters;
  a.lanes_count += b.lanes_count;
  a.lanes_sum += b.lanes_sum;
  return a;
}

SimdCounts operator-(SimdCounts a, const SimdCounts& b) {
  a.vector_iters -= b.vector_iters;
  a.remainder_iters -= b.remainder_iters;
  a.lanes_count -= b.lanes_count;
  a.lanes_sum -= b.lanes_sum;
  return a;
}

SimdCounts operator*(SimdCounts a, std::uint64_t k) {
  a.vector_iters *= k;
  a.remainder_iters *= k;
  a.lanes_count *= k;
  a.lanes_sum *= k;
  return a;
}

/// Run `call` and expect it to move the simd.* metrics by exactly `want`.
template <typename Call>
void expect_simd_counts(const char* what, const SimdCounts& want, Call&& call) {
  const SimdCounts before = read_simd_counts();
  call();
  const SimdCounts after = read_simd_counts();
  EXPECT_EQ(after.vector_iters - before.vector_iters, want.vector_iters) << what;
  EXPECT_EQ(after.remainder_iters - before.remainder_iters, want.remainder_iters) << what;
  EXPECT_EQ(after.lanes_count - before.lanes_count, want.lanes_count) << what;
  EXPECT_EQ(after.lanes_sum - before.lanes_sum, want.lanes_sum) << what;
}

TEST(SimdEquivalence, MetricsRecordVectorSpans) {
  // Only meaningful when the host actually runs a vector path.
  if (simd::preferred_width() < 2) GTEST_SKIP() << "scalar-only host/build";
  DispatchGuard g(DispatchMode::ForceSimd);
  const std::size_t w = simd::active_width();
  // Every row below is 2 full-width iterations plus a 3-lane tail (for
  // w = 2: 3 full plus 1 lane), so both kinds of iteration are counted.
  const std::size_t row = 2 * w + 3;

  // LBMHD collision: one span per row.
  {
    const std::size_t ny = 3;
    lbmhd::FieldSet fs(row, ny);
    for (std::size_t i = 0; i < fs.raw().size(); ++i) {
      fs.raw()[i] = i < 9 * fs.plane_size() ? 0.1 : 0.001;
    }
    expect_simd_counts("collide_flat", spans_of(w, ny, row),
                       [&] { lbmhd::collide_flat(fs, lbmhd::CollisionParams{}); });
  }

  // Dslash: one span per (y, z, t) row of nxh sites.
  {
    qcd::HalfGeom geom;
    geom.n = part::Extent<4>{{row, 2, 3, 2}};
    geom.layout = part::TileLayout<4>::make(geom.n, part::Extent<4>{{1, 1, 1, 1}});
    std::vector<std::vector<double>> in(qcd::kPlanes,
                                        std::vector<double>(geom.layout.total(), 0.5));
    std::vector<std::vector<double>> out(qcd::kPlanes,
                                         std::vector<double>(geom.layout.total(), 0.0));
    std::array<const double*, qcd::kPlanes> src{};
    std::array<double*, qcd::kPlanes> dst{};
    for (std::size_t p = 0; p < qcd::kPlanes; ++p) {
      src[p] = in[p].data();
      dst[p] = out[p].data();
    }
    expect_simd_counts("apply_dslash", spans_of(w, 2 * 3 * 2, row),
                       [&] { qcd::apply_dslash(dst, src, geom, 0); });
  }

  // Cactus ADM RHS: each (j, k) row is cut into 128-point chunks, one span
  // per chunk; 128 + row points make one full chunk and one short chunk.
  {
    const std::size_t nx = 128 + row, ny = 3, nz = 2;
    cactus::GridFunctions state(cactus::kNumFields, nx, ny, nz);
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> dist(-0.01, 0.01);
    for (auto& v : state.raw()) v = dist(rng);
    cactus::GridFunctions rhs(cactus::kNumFields, nx, ny, nz);
    expect_simd_counts(
        "compute_rhs", spans_of(w, ny * nz, 128) + spans_of(w, ny * nz, row), [&] {
          cactus::compute_rhs(state, rhs, 0.25, 0, static_cast<std::ptrdiff_t>(nx), 0,
                              static_cast<std::ptrdiff_t>(ny), 0,
                              static_cast<std::ptrdiff_t>(nz), cactus::RhsVariant::Vector);
        });
  }

  // FFT: a simultaneous batch records its spans once per call, and the
  // totals are exactly those of its transforms one at a time.
  {
    constexpr std::size_t n = 64, count = 64;
    const fft::Fft1d single(n);
    const fft::MultiFft1d multi(n);
    std::vector<std::complex<double>> one(n, {0.5, -0.25});
    std::vector<std::complex<double>> batch(n * count, {0.5, -0.25});
    const SimdCounts before = read_simd_counts();
    single.forward(one);
    const SimdCounts one_transform = read_simd_counts() - before;
    EXPECT_GT(one_transform.vector_iters, 0u);
    expect_simd_counts("simultaneous", one_transform * count,
                       [&] { multi.simultaneous(batch, count); });
  }
}

}  // namespace
}  // namespace vpar
