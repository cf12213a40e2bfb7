// Quantitative physics validation of the LBMHD solver: transport
// coefficients and wave dynamics against analytic lattice-Boltzmann theory.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "lbmhd/simulation.hpp"
#include "simrt/runtime.hpp"

namespace vpar::lbmhd {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Kinetic energy after evolving a pure shear wave u_y = eps sin(2 pi x / L).
double shear_wave_ke(double tau, int steps, std::size_t n) {
  double ke = 0.0;
  simrt::run(2, [&](simrt::Communicator& comm) {
    Options opt;
    opt.nx = opt.ny = n;
    opt.px = 2;
    opt.py = 1;
    opt.tau_f = tau;
    auto sim = Simulation(comm, opt);
    sim.initialize([](double x, double) {
      MacroState m;
      m.rho = 1.0;
      m.uy = 1.0e-3 * std::sin(kTwoPi * x);
      return m;
    });
    sim.run(steps);
    // diagnostics() is collective: both ranks call it, rank 0 alone writes
    // the captured result (two writers would race).
    const double rank_ke = sim.diagnostics().kinetic_energy;
    if (comm.rank() == 0) ke = rank_ke;
  });
  return ke;
}

TEST(LbmhdPhysics, ShearWaveDecaysAtAnalyticViscosity) {
  // LB theory: nu = cs^2 (tau - 1/2); KE of a shear wave of wavenumber
  // k = 2 pi / N decays as exp(-2 nu k^2 t).
  constexpr std::size_t n = 64;
  constexpr double tau = 0.8;
  constexpr int steps = 400;
  const double nu = Lattice::kCs2 * (tau - 0.5);
  const double k = kTwoPi / static_cast<double>(n);

  const double ke0 = shear_wave_ke(tau, 0, n);
  const double ke1 = shear_wave_ke(tau, steps, n);
  const double measured_rate = -std::log(ke1 / ke0) / (2.0 * steps);
  const double analytic_rate = nu * k * k;
  EXPECT_NEAR(measured_rate, analytic_rate, 0.05 * analytic_rate);
}

TEST(LbmhdPhysics, ViscosityScalesWithTau) {
  // Larger tau = more viscous = faster shear decay.
  constexpr std::size_t n = 32;
  constexpr int steps = 200;
  const double ke_low = shear_wave_ke(0.6, steps, n);
  const double ke_high = shear_wave_ke(1.2, steps, n);
  EXPECT_GT(ke_low, ke_high);
}

TEST(LbmhdPhysics, MagneticShearDecaysAtAnalyticResistivity) {
  // The induction equation gives eta = cs^2 (tau_g - 1/2); a magnetic shear
  // layer b_y = eps sin(k x) decays as exp(-eta k^2 t) in amplitude, so
  // magnetic energy decays at rate 2 eta k^2.
  constexpr std::size_t n = 64;
  constexpr double tau_g = 0.9;
  constexpr int steps = 400;

  auto me_at = [&](int s) {
    double me = 0.0;
    simrt::run(1, [&](simrt::Communicator& comm) {
      Options opt;
      opt.nx = opt.ny = n;
      opt.tau_g = tau_g;
      auto sim = Simulation(comm, opt);
      sim.initialize([](double x, double) {
        MacroState m;
        m.rho = 1.0;
        m.by = 1.0e-3 * std::sin(kTwoPi * x);
        return m;
      });
      sim.run(s);
      me = sim.diagnostics().magnetic_energy;
    });
    return me;
  };
  const double eta = Lattice::kCs2 * (tau_g - 0.5);
  const double k = kTwoPi / static_cast<double>(n);
  const double rate = -std::log(me_at(steps) / me_at(0)) / (2.0 * steps);
  EXPECT_NEAR(rate, eta * k * k, 0.05 * eta * k * k);
}

TEST(LbmhdPhysics, AlfvenWaveExchangesKineticAndMagneticEnergy) {
  // A transverse velocity perturbation on a uniform guide field B0 x-hat
  // launches Alfven waves: kinetic and magnetic perturbation energy slosh
  // back and forth at frequency omega = k vA with vA = B0 / sqrt(rho).
  constexpr std::size_t n = 64;
  constexpr double b0 = 0.1;
  const double va = b0;  // rho = 1
  const double k = kTwoPi / static_cast<double>(n);
  // Quarter period: kinetic energy should be mostly converted to magnetic
  // perturbation energy.
  const int quarter = static_cast<int>(std::lround(0.25 * kTwoPi / (k * va)));

  simrt::run(1, [&](simrt::Communicator& comm) {
    Options opt;
    opt.nx = opt.ny = n;
    opt.tau_f = opt.tau_g = 0.52;  // low dissipation
    auto sim = Simulation(comm, opt);
    sim.initialize([b0](double x, double) {
      MacroState m;
      m.rho = 1.0;
      m.bx = b0;
      m.uy = 5.0e-4 * std::sin(kTwoPi * x);
      return m;
    });
    const double ke0 = sim.diagnostics().kinetic_energy;
    sim.run(quarter);
    const auto mid = sim.diagnostics();
    // Near the quarter period the kinetic energy has largely transferred.
    EXPECT_LT(mid.kinetic_energy, 0.25 * ke0);
    sim.run(quarter);
    const auto full = sim.diagnostics();
    // Near the half period it has largely returned.
    EXPECT_GT(full.kinetic_energy, 0.5 * ke0);
  });
}

TEST(LbmhdPhysics, UniformFlowIsGalileanSteady) {
  // A uniform flow with uniform field advects nothing: macroscopic state
  // stays constant (to round-off) on the periodic domain.
  simrt::run(1, [](simrt::Communicator& comm) {
    Options opt;
    opt.nx = opt.ny = 16;
    auto sim = Simulation(comm, opt);
    sim.initialize([](double, double) {
      MacroState m;
      m.rho = 1.0;
      m.ux = 0.05;
      m.uy = -0.02;
      m.bx = 0.01;
      m.by = 0.03;
      return m;
    });
    const auto before = sim.diagnostics();
    sim.run(20);
    const auto after = sim.diagnostics();
    EXPECT_NEAR(after.kinetic_energy, before.kinetic_energy, 1e-10);
    EXPECT_NEAR(after.magnetic_energy, before.magnetic_energy, 1e-10);
  });
}

}  // namespace
}  // namespace vpar::lbmhd
