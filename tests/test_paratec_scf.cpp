// Tests of the self-consistent-field layer: density construction, the
// distributed Hartree solver, LDA exchange, and SCF convergence.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <random>

#include "paratec/scf.hpp"
#include "simrt/runtime.hpp"

namespace vpar::paratec {
namespace {

TEST(Density, IntegratesToElectronCount) {
  for (int procs : {1, 2}) {
    simrt::run(procs, [](simrt::Communicator& comm) {
      const Basis basis(4.0);
      const Layout layout(basis, comm.size());
      Hamiltonian h(comm, basis, layout, silicon_supercell(1), 0.5, 0.2);
      Solver solver(h, 3, 7);
      solver.init_random();
      solver.iterate();  // orthonormal bands

      const std::vector<double> occ = {2.0, 2.0, 1.0};
      const auto density = compute_density(solver, occ);
      double local = 0.0;
      for (double v : density) local += v;
      const double n3 = std::pow(static_cast<double>(basis.grid_n()), 3.0);
      const double total = comm.allreduce(local, simrt::ReduceOp::Sum) / n3;
      EXPECT_NEAR(total, 5.0, 1e-9);
      for (double v : density) EXPECT_GE(v, 0.0);
    });
  }
}

TEST(Density, ParallelMatchesSerial) {
  auto density_with = [](int procs) {
    std::vector<double> full;
    simrt::run(procs, [&](simrt::Communicator& comm) {
      const Basis basis(4.0);
      const Layout layout(basis, comm.size());
      Hamiltonian h(comm, basis, layout, silicon_supercell(1), 0.5, 0.2);
      Solver solver(h, 2, 3);
      solver.init_random();
      const auto density =
          compute_density(solver, std::vector<double>{2.0, 2.0});
      const std::size_t n = basis.grid_n();
      std::vector<double> all(comm.rank() == 0 ? n * n * n : 0);
      comm.gather<double>(density, all, 0);
      if (comm.rank() == 0) full = std::move(all);
    });
    return full;
  };
  const auto serial = density_with(1);
  const auto par = density_with(2);
  ASSERT_EQ(par.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(par[i], serial[i], 1e-10);
  }
}

TEST(Hartree, RecoversAnalyticEigenmode) {
  // n(r) = cos(2 pi m x / N): V_H = 4 pi n / k^2 with k = 2 pi m / N... in
  // the code's units k = 2 pi m (unit cell length 1, N grid cells).
  for (int procs : {1, 2, 4}) {
    simrt::run(procs, [procs](simrt::Communicator& comm) {
      constexpr std::size_t n = 16;
      const std::size_t zl = n / static_cast<std::size_t>(comm.size());
      const std::size_t z0 = zl * static_cast<std::size_t>(comm.rank());
      std::vector<double> density(zl * n * n);
      constexpr int m = 3;
      const double k = 2.0 * std::numbers::pi * m;
      for (std::size_t z = 0; z < zl; ++z) {
        for (std::size_t y = 0; y < n; ++y) {
          for (std::size_t x = 0; x < n; ++x) {
            const double fx = static_cast<double>(x) / n;
            density[(z * n + y) * n + x] = std::cos(2.0 * std::numbers::pi * m * fx);
          }
        }
      }
      (void)z0;
      const auto vh = solve_hartree(comm, density, n);
      const double expect_amp = 4.0 * std::numbers::pi / (k * k);
      for (std::size_t i = 0; i < vh.size(); ++i) {
        const std::size_t x = i % n;
        const double fx = static_cast<double>(x) / n;
        EXPECT_NEAR(vh[i],
                    expect_amp * std::cos(2.0 * std::numbers::pi * m * fx), 1e-10)
            << "procs=" << procs;
      }
    });
  }
}

TEST(Hartree, BitwiseAcrossRankCounts) {
  // The slab transposes only move data and each 1D FFT sees the same line
  // at any P, so V_H of one global density is bitwise independent of P.
  constexpr std::size_t n = 16;
  std::vector<double> global(n * n * n);
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> dist(0.0, 2.0);
  for (auto& v : global) v = dist(rng);

  auto solve_with = [&](int procs) {
    std::vector<double> full;
    simrt::run(procs, [&](simrt::Communicator& comm) {
      const std::size_t slab = n / static_cast<std::size_t>(comm.size()) * n * n;
      const auto first =
          global.begin() + static_cast<std::ptrdiff_t>(slab * static_cast<std::size_t>(comm.rank()));
      const auto vh =
          solve_hartree(comm, std::vector<double>(first, first + static_cast<std::ptrdiff_t>(slab)), n);
      std::vector<double> all(comm.rank() == 0 ? global.size() : 0);
      comm.gather<double>(vh, all, 0);
      if (comm.rank() == 0) full = std::move(all);
    });
    return full;
  };

  const auto serial = solve_with(1);
  ASSERT_EQ(serial.size(), global.size());
  for (int procs : {2, 4, 8}) {
    const auto par = solve_with(procs);
    ASSERT_EQ(par.size(), serial.size());
    EXPECT_EQ(std::memcmp(par.data(), serial.data(), serial.size() * sizeof(double)), 0)
        << "procs=" << procs;
  }
}

TEST(Hartree, UniformDensityGivesZeroPotential) {
  simrt::run(2, [](simrt::Communicator& comm) {
    constexpr std::size_t n = 8;
    std::vector<double> density(n / 2 * n * n, 3.7);
    const auto vh = solve_hartree(comm, density, n);
    for (double v : vh) EXPECT_NEAR(v, 0.0, 1e-12);
  });
}

TEST(Lda, ExchangeIsNegativeAndMonotonic) {
  const auto vx = lda_exchange_potential({0.0, 0.5, 1.0, 2.0, -0.3});
  EXPECT_DOUBLE_EQ(vx[0], 0.0);
  EXPECT_LT(vx[1], 0.0);
  EXPECT_LT(vx[2], vx[1]);  // denser = more negative
  EXPECT_LT(vx[3], vx[2]);
  EXPECT_DOUBLE_EQ(vx[4], 0.0);  // clamped
  EXPECT_NEAR(vx[2], -std::cbrt(3.0 / std::numbers::pi), 1e-12);
}

TEST(Scf, ResidualDecreasesAndElectronsConserved) {
  simrt::run(2, [](simrt::Communicator& comm) {
    const Basis basis(4.0);
    const Layout layout(basis, comm.size());
    Hamiltonian h(comm, basis, layout, silicon_supercell(1), 1.0, 0.22);
    Scf::Options opt;
    opt.nbands = 4;
    opt.occupation = 2.0;
    opt.mixing = 0.1;
    opt.cg_sweeps_per_scf = 3;
    Scf scf(h, opt);

    scf.iterate();  // seeds the density
    EXPECT_NEAR(scf.electron_count(), 8.0, 1e-9);
    const double first = scf.iterate();
    double last = first;
    for (int cycle = 0; cycle < 30; ++cycle) last = scf.iterate();
    // Linear mixing converges steadily at this size: an order of magnitude
    // in 30 cycles (density max-norm is O(40), so this is ~1% relative).
    EXPECT_LT(last, 0.1 * first);
    EXPECT_NEAR(scf.electron_count(), 8.0, 1e-9);
  });
}

TEST(Scf, SelfConsistentEigenvaluesAreStable) {
  simrt::run(1, [](simrt::Communicator& comm) {
    const Basis basis(4.0);
    const Layout layout(basis, comm.size());
    Hamiltonian h(comm, basis, layout, silicon_supercell(1), 1.0, 0.22);
    Scf::Options opt;
    opt.nbands = 3;
    opt.mixing = 0.1;
    opt.cg_sweeps_per_scf = 3;
    Scf scf(h, opt);
    for (int cycle = 0; cycle < 20; ++cycle) scf.iterate();
    const auto e1 = scf.eigenvalues();
    scf.iterate();
    const auto e2 = scf.eigenvalues();
    for (std::size_t b = 0; b < e1.size(); ++b) {
      EXPECT_NEAR(e2[b], e1[b], 5e-3) << "band " << b;
    }
  });
}

TEST(Scf, HartreeRepulsionRaisesLevelsAboveBareIonic) {
  // With exchange disabled, adding pure electron-electron repulsion must
  // push the occupied levels up relative to the bare-ion problem. (Exchange
  // contributes a near-uniform negative shift at these toy densities, so it
  // is turned off for a clean sign test.)
  simrt::run(1, [](simrt::Communicator& comm) {
    const Basis basis(4.0);
    const Layout layout(basis, comm.size());

    Hamiltonian bare(comm, basis, layout, silicon_supercell(1), 1.2, 0.22);
    Solver bare_solver(bare, 2, 5);
    bare_solver.init_random();
    for (int i = 0; i < 10; ++i) bare_solver.iterate();

    Hamiltonian h(comm, basis, layout, silicon_supercell(1), 1.2, 0.22);
    Scf::Options opt;
    opt.nbands = 2;
    opt.seed = 5;
    opt.mixing = 0.1;
    opt.exchange_scale = 0.0;
    opt.cg_sweeps_per_scf = 2;
    Scf scf(h, opt);
    for (int cycle = 0; cycle < 20; ++cycle) scf.iterate();

    EXPECT_GT(scf.eigenvalues()[0], bare_solver.eigenvalues()[0]);
  });
}

}  // namespace
}  // namespace vpar::paratec
