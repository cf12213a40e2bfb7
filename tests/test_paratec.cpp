#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <random>

#include "paratec/basis.hpp"
#include "paratec/hamiltonian.hpp"
#include "paratec/layout.hpp"
#include "paratec/linalg.hpp"
#include "paratec/solver.hpp"
#include "paratec/transform.hpp"
#include "paratec/workload.hpp"
#include "simrt/runtime.hpp"

namespace vpar::paratec {
namespace {

TEST(Basis, SphereMembershipAndOrdering) {
  const Basis basis(9.0);  // gmax = 3
  EXPECT_GT(basis.size(), 0u);
  // Every member inside the cutoff, kinetic = g2/2.
  std::size_t count = 0;
  for (const auto& col : basis.columns()) {
    EXPECT_FALSE(col.gz.empty());
    EXPECT_TRUE(std::is_sorted(col.gz.begin(), col.gz.end()));
    for (std::size_t m = 0; m < col.gz.size(); ++m) {
      const double g2 = static_cast<double>(col.gx * col.gx + col.gy * col.gy +
                                            col.gz[m] * col.gz[m]);
      EXPECT_LE(g2, 9.0);
      EXPECT_DOUBLE_EQ(basis.kinetic()[col.offset + m], 0.5 * g2);
      ++count;
    }
  }
  EXPECT_EQ(count, basis.size());
  // Grid must contain the doubled sphere and be a power of two.
  EXPECT_GE(basis.grid_n(), 14u);
  EXPECT_EQ(basis.grid_n() & (basis.grid_n() - 1), 0u);
}

TEST(Basis, CountApproximatesSphereVolume) {
  const Basis basis(36.0);  // gmax = 6
  const double expected = 4.0 / 3.0 * std::numbers::pi * 6.0 * 6.0 * 6.0;
  EXPECT_NEAR(static_cast<double>(basis.size()), expected, expected * 0.15);
}

TEST(Layout, PartitionsAllColumnsOnce) {
  const Basis basis(16.0);
  const Layout layout(basis, 5);
  std::vector<int> seen(basis.columns().size(), 0);
  std::size_t total = 0;
  for (int r = 0; r < 5; ++r) {
    for (std::size_t c : layout.columns_of(r)) {
      ++seen[c];
      EXPECT_EQ(layout.owner_of(c), r);
    }
    total += layout.local_size(r);
  }
  for (int s : seen) EXPECT_EQ(s, 1);
  EXPECT_EQ(total, basis.size());
}

TEST(Layout, GreedyBalanceBound) {
  // The descending-length greedy guarantees max - min <= longest column.
  const Basis basis(25.0);
  std::size_t longest = 0;
  for (const auto& col : basis.columns()) longest = std::max(longest, col.gz.size());
  for (int procs : {2, 3, 7, 16}) {
    const Layout layout(basis, procs);
    EXPECT_LE(layout.max_local_size() - layout.min_local_size(), longest)
        << procs << " procs";
  }
}

TEST(Linalg, CholeskyFactorsHermitianPd) {
  // A = L0 L0^H for a random lower L0 with positive diagonal.
  constexpr std::size_t n = 6;
  std::mt19937 rng(4);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<Complex> l0(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) l0[i * n + j] = Complex(dist(rng), dist(rng));
    l0[i * n + i] = 2.0 + std::abs(dist(rng));
  }
  std::vector<Complex> a(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      Complex s{};
      for (std::size_t k = 0; k < n; ++k) s += l0[i * n + k] * std::conj(l0[j * n + k]);
      a[i * n + j] = s;
    }
  }
  auto l = a;
  cholesky(l, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_LT(std::abs(l[i * n + j] - l0[i * n + j]), 1e-10);
    }
  }
}

TEST(Linalg, CholeskyRejectsIndefinite) {
  std::vector<Complex> a = {Complex(1.0), Complex(2.0), Complex(2.0), Complex(1.0)};
  EXPECT_THROW(cholesky(a, 2), std::runtime_error);
}

TEST(Linalg, HermitianEigenRecoversSpectrum) {
  // A = V diag(w) V^H for a known unitary-ish construction.
  constexpr std::size_t n = 5;
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<Complex> a(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i * n + i] = Complex(dist(rng) * 3.0, 0.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      a[i * n + j] = Complex(dist(rng), dist(rng));
      a[j * n + i] = std::conj(a[i * n + j]);
    }
  }
  const auto eig = hermitian_eigen(a, n);
  EXPECT_TRUE(std::is_sorted(eig.values.begin(), eig.values.end()));
  // Each returned pair satisfies A v = w v.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      Complex av{};
      for (std::size_t j = 0; j < n; ++j) {
        av += a[i * n + j] * eig.vectors[k * n + j];
      }
      EXPECT_LT(std::abs(av - eig.values[k] * eig.vectors[k * n + i]), 1e-9)
          << "pair " << k;
    }
    // Trace check via Rayleigh quotient.
    Complex q{};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        q += std::conj(eig.vectors[k * n + i]) * a[i * n + j] * eig.vectors[k * n + j];
      }
    }
    EXPECT_NEAR(q.real(), eig.values[k], 1e-9);
  }
}

class TransformProcs : public ::testing::TestWithParam<int> {};

TEST_P(TransformProcs, RoundTripIsIdentity) {
  const int P = GetParam();
  simrt::run(P, [](simrt::Communicator& comm) {
    const Basis basis(9.0);
    const Layout layout(basis, comm.size());
    WavefunctionTransform tf(comm, basis, layout);

    std::vector<Complex> coeffs(tf.local_coeffs());
    std::mt19937 rng(17 + static_cast<unsigned>(comm.rank()));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (auto& c : coeffs) c = Complex(dist(rng), dist(rng));

    auto grid = tf.to_real(coeffs);
    auto back = tf.to_fourier(grid);
    ASSERT_EQ(back.size(), coeffs.size());
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
      EXPECT_LT(std::abs(back[i] - coeffs[i]), 1e-11);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Concurrency, TransformProcs, ::testing::Values(1, 2, 4, 8));

TEST(Transform, ParallelMatchesSerialRealSpace) {
  // Single global plane wave: coefficients are decomposition-independent,
  // and so must the real-space field be.
  const Basis basis(9.0);
  const std::size_t n = basis.grid_n();

  auto run_with = [&](int P) {
    std::vector<Complex> global(n * n * n);
    simrt::run(P, [&](simrt::Communicator& comm) {
      const Layout layout(basis, comm.size());
      WavefunctionTransform tf(comm, basis, layout);
      std::vector<Complex> coeffs(tf.local_coeffs(), Complex{});
      // Put 1.0 on the global coefficient with (gx,gy,gz) = (1,-2,0).
      for (std::size_t c : layout.columns_of(comm.rank())) {
        const auto& col = basis.columns()[c];
        if (col.gx == 1 && col.gy == -2) {
          for (std::size_t m = 0; m < col.gz.size(); ++m) {
            if (col.gz[m] == 0) {
              coeffs[layout.local_offset(c) + m] = 1.0;
            }
          }
        }
      }
      auto slab = tf.to_real(coeffs);
      // Collect into the global array on rank 0.
      std::vector<Complex> all(comm.rank() == 0 ? n * n * n : 0);
      comm.gather<Complex>(slab, all, 0);
      if (comm.rank() == 0) global = std::move(all);
    });
    return global;
  };

  const auto serial = run_with(1);
  const auto par = run_with(4);
  ASSERT_EQ(par.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_LT(std::abs(par[i] - serial[i]), 1e-12);
  }
  // And it is the expected plane wave (up to the 1/n^3 inverse scaling).
  const double scale = std::abs(serial[0]);
  EXPECT_GT(scale, 0.0);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(std::abs(serial[i]), scale, 1e-10);  // |plane wave| constant
  }
}

TEST(Transform, RealSpaceBitwiseAcrossRankCounts) {
  // Every coefficient is a function of its global index, so the field does
  // not depend on P. The transposes only move data and each 1D FFT sees the
  // same line at any P, so the gathered slabs agree bit for bit.
  const Basis basis(9.0);
  const std::size_t n = basis.grid_n();
  auto run_with = [&](int P) {
    std::vector<Complex> global;
    simrt::run(P, [&](simrt::Communicator& comm) {
      const Layout layout(basis, comm.size());
      WavefunctionTransform tf(comm, basis, layout);
      std::vector<Complex> coeffs(tf.local_coeffs());
      for (std::size_t c : layout.columns_of(comm.rank())) {
        const auto& col = basis.columns()[c];
        for (std::size_t m = 0; m < col.gz.size(); ++m) {
          const auto g = static_cast<double>(col.offset + m);
          coeffs[layout.local_offset(c) + m] = Complex(std::sin(g), std::cos(0.7 * g));
        }
      }
      const auto slab = tf.to_real(coeffs);
      std::vector<Complex> all(comm.rank() == 0 ? n * n * n : 0);
      comm.gather<Complex>(slab, all, 0);
      if (comm.rank() == 0) global = std::move(all);
    });
    return global;
  };

  const auto serial = run_with(1);
  ASSERT_EQ(serial.size(), n * n * n);
  for (int P : {2, 4, 8}) {
    const auto par = run_with(P);
    ASSERT_EQ(par.size(), serial.size());
    EXPECT_EQ(std::memcmp(par.data(), serial.data(), serial.size() * sizeof(Complex)), 0)
        << "P=" << P;
  }
}

TEST(Transform, RecordsOneAllToAllPerTranspose) {
  // to_real sends every other rank planes_local values of each owned column;
  // to_fourier returns to every other rank planes_local values of each of
  // that rank's columns. Each transpose is one AllToAll operation.
  constexpr int P = 4;
  const Basis basis(9.0);
  const Layout layout(basis, P);
  const auto result = simrt::run(P, [&](simrt::Communicator& comm) {
    WavefunctionTransform tf(comm, basis, layout);
    const std::vector<Complex> coeffs(tf.local_coeffs(), Complex(1.0, 0.0));
    (void)tf.to_fourier(tf.to_real(coeffs));
  });
  const std::size_t planes = basis.grid_n() / P;
  const std::size_t columns = basis.columns().size();
  ASSERT_EQ(result.size(), P);
  for (int r = 0; r < P; ++r) {
    const auto& comm = result.per_rank[static_cast<std::size_t>(r)].comm();
    const std::size_t mine = layout.columns_of(r).size();
    const std::size_t sent = (P - 1) * mine + (columns - mine);
    EXPECT_EQ(comm.messages(perf::CommKind::AllToAll), 2.0) << "rank " << r;
    EXPECT_EQ(comm.bytes(perf::CommKind::AllToAll),
              static_cast<double>(sent * planes * sizeof(Complex)))
        << "rank " << r;
  }
}

TEST(Hamiltonian, KineticOnlyIsDiagonal) {
  simrt::run(2, [](simrt::Communicator& comm) {
    const Basis basis(9.0);
    const Layout layout(basis, comm.size());
    Hamiltonian h(comm, basis, layout, {}, /*v_depth=*/0.0);

    std::vector<Complex> psi(h.local_coeffs(), Complex{});
    std::vector<Complex> hpsi(psi.size());
    if (!psi.empty()) psi[0] = 1.0;
    h.apply(psi, hpsi);
    // With V = 0, H psi = (g^2/2) psi elementwise.
    const auto& cols = layout.columns_of(comm.rank());
    if (!cols.empty()) {
      const auto& col = basis.columns()[cols[0]];
      const double expect = basis.kinetic()[col.offset];
      EXPECT_NEAR(hpsi[0].real(), expect, 1e-10);
      EXPECT_NEAR(hpsi[0].imag(), 0.0, 1e-10);
    }
    for (std::size_t i = 1; i < hpsi.size(); ++i) {
      EXPECT_LT(std::abs(hpsi[i]), 1e-10);
    }
  });
}

TEST(Hamiltonian, IsHermitian) {
  simrt::run(2, [](simrt::Communicator& comm) {
    const Basis basis(4.0);
    const Layout layout(basis, comm.size());
    Hamiltonian h(comm, basis, layout, silicon_supercell(1), 0.8, 0.2);
    Solver solver(h, 2, 7);
    solver.init_random();

    auto a = solver.band(0);
    auto b = solver.band(1);
    std::vector<Complex> ha(a.size()), hb(b.size());
    h.apply(a, ha);
    h.apply(b, hb);
    const Complex lhs = solver.inner(a, std::span<const Complex>(hb));
    const Complex rhs = solver.inner(std::span<const Complex>(ha), b);
    EXPECT_LT(std::abs(lhs - rhs), 1e-10);
  });
}

TEST(Solver, FreeElectronEigenvaluesAnalytic) {
  simrt::run(2, [](simrt::Communicator& comm) {
    const Basis basis(4.0);
    const Layout layout(basis, comm.size());
    Hamiltonian h(comm, basis, layout, {}, 0.0);  // V = 0
    constexpr int nb = 4;
    Solver solver(h, nb, 3);
    solver.init_random();
    for (int it = 0; it < 30; ++it) solver.iterate();

    // Analytic spectrum: lowest nb values of g^2/2 = {0, 0.5, 0.5, 0.5}.
    auto kin = basis.kinetic();
    std::sort(kin.begin(), kin.end());
    for (int b = 0; b < nb; ++b) {
      EXPECT_NEAR(solver.eigenvalues()[static_cast<std::size_t>(b)],
                  kin[static_cast<std::size_t>(b)], 1e-8)
          << "band " << b;
    }
  });
}

TEST(Solver, EnergyDecreasesMonotonically) {
  simrt::run(2, [](simrt::Communicator& comm) {
    const Basis basis(4.0);
    const Layout layout(basis, comm.size());
    Hamiltonian h(comm, basis, layout, silicon_supercell(1), 1.0, 0.2);
    Solver solver(h, 4, 5);
    solver.init_random();
    double prev = solver.iterate();
    for (int it = 0; it < 8; ++it) {
      const double e = solver.iterate();
      EXPECT_LE(e, prev + 1e-9);
      prev = e;
    }
  });
}

TEST(Solver, ParallelMatchesSerialEigenvalues) {
  auto eigen_with = [](int P) {
    std::vector<double> vals;
    simrt::run(P, [&](simrt::Communicator& comm) {
      const Basis basis(4.0);
      const Layout layout(basis, comm.size());
      Hamiltonian h(comm, basis, layout, silicon_supercell(1), 0.7, 0.2);
      Solver solver(h, 3, 9);
      solver.init_random();
      for (int it = 0; it < 10; ++it) solver.iterate();
      if (comm.rank() == 0) vals = solver.eigenvalues();
    });
    return vals;
  };
  const auto serial = eigen_with(1);
  const auto par = eigen_with(4);
  ASSERT_EQ(par.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(par[i], serial[i], 1e-7) << "band " << i;
  }
}

TEST(Solver, PotentialLowersEnergyBelowFreeElectron) {
  simrt::run(1, [](simrt::Communicator& comm) {
    const Basis basis(4.0);
    const Layout layout(basis, comm.size());
    Hamiltonian free_h(comm, basis, layout, {}, 0.0);
    Hamiltonian attr_h(comm, basis, layout, silicon_supercell(1), 1.5, 0.25);
    Solver fs(free_h, 3, 2), as(attr_h, 3, 2);
    fs.init_random();
    as.init_random();
    double ef = 0.0, ea = 0.0;
    for (int it = 0; it < 15; ++it) {
      ef = fs.iterate();
      ea = as.iterate();
    }
    EXPECT_LT(ea, ef);  // attractive wells bind
  });
}

TEST(Workload, ProblemSizeScalesWithAtoms) {
  const auto s432 = problem_size(432);
  const auto s686 = problem_size(686);
  EXPECT_NEAR(s432.npw, 285.0 * 432, 1.0);
  EXPECT_NEAR(s432.nbands, 864.0, 1e-12);
  EXPECT_GT(s686.grid_n, s432.grid_n);
  EXPECT_GT(s686.ncols, s432.ncols);
}

TEST(Workload, ProfileHasPaperAnatomy) {
  Table4Config cfg;
  const auto app = make_profile(cfg);
  const double blas3 = app.kernels.region_flops("blas3");
  const double fft = app.kernels.region_flops("fft_multi");
  const double total = app.kernels.total_flops();
  // BLAS3 and FFT each a substantial share; together the majority.
  EXPECT_GT(blas3 / total, 0.15);
  EXPECT_GT(fft / total, 0.15);
  EXPECT_GT((blas3 + fft) / total, 0.5);
  EXPECT_GT(app.comm.bytes(perf::CommKind::AllToAll), 0.0);
}

TEST(Workload, MultipleFftsLengthenVectors) {
  Table4Config looped;
  looped.multiple_ffts = false;
  Table4Config multi;
  const auto a = make_profile(looped);
  const auto b = make_profile(multi);
  // Identical flops, different loop structure.
  EXPECT_NEAR(a.kernels.region_flops("fft_multi"),
              b.kernels.region_flops("fft_multi"), 1.0);
  const auto sa = perf::compute_vector_stats(a.kernels, 256);
  const auto sb = perf::compute_vector_stats(b.kernels, 256);
  EXPECT_GT(sb.avl, sa.avl);
}

}  // namespace
}  // namespace vpar::paratec
