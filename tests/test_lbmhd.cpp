#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <tuple>

#include "lbmhd/collision.hpp"
#include "lbmhd/exchange.hpp"
#include "lbmhd/lattice.hpp"
#include "lbmhd/simulation.hpp"
#include "lbmhd/stream.hpp"
#include "lbmhd/workload.hpp"
#include "simrt/runtime.hpp"

namespace vpar::lbmhd {
namespace {

TEST(Lattice, WeightsNormalized) {
  double sum = 0.0;
  for (double w : Lattice::w) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-15);
}

TEST(Lattice, DirectionsAreUnitOrRest) {
  for (int i = 1; i < Lattice::kDirs; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    EXPECT_NEAR(Lattice::cx[iu] * Lattice::cx[iu] + Lattice::cy[iu] * Lattice::cy[iu],
                1.0, 1e-15);
  }
  EXPECT_DOUBLE_EQ(Lattice::cx[0], 0.0);
  EXPECT_DOUBLE_EQ(Lattice::cy[0], 0.0);
}

TEST(Lattice, SecondMomentIsotropy) {
  // Sum w_i e_ia e_ib = cs^2 delta_ab with cs^2 = 1/4.
  double xx = 0.0, xy = 0.0, yy = 0.0;
  for (std::size_t i = 0; i < Lattice::kDirs; ++i) {
    xx += Lattice::w[i] * Lattice::cx[i] * Lattice::cx[i];
    xy += Lattice::w[i] * Lattice::cx[i] * Lattice::cy[i];
    yy += Lattice::w[i] * Lattice::cy[i] * Lattice::cy[i];
  }
  EXPECT_NEAR(xx, Lattice::kCs2, 1e-15);
  EXPECT_NEAR(yy, Lattice::kCs2, 1e-15);
  EXPECT_NEAR(xy, 0.0, 1e-15);
}

TEST(Lattice, EquilibriumMomentsReproduceInputs) {
  // Arbitrary macroscopic state: the equilibria must carry exactly rho, m, B
  // and the full stress/induction fluxes.
  const double rho = 1.3, ux = 0.04, uy = -0.03, bx = 0.05, by = 0.02;
  const double mx = rho * ux, my = rho * uy;
  const double b2h = 0.5 * (bx * bx + by * by);
  const double txx = rho * ux * ux + b2h - bx * bx;
  const double tyy = rho * uy * uy + b2h - by * by;
  const double txy = rho * ux * uy - bx * by;
  const double lam = ux * by - bx * uy;

  double r = 0, sx = 0, sy = 0, pxx = 0, pxy = 0, pyy = 0;
  double bxs = 0, bys = 0, fxy = 0, fyx = 0;
  for (int i = 0; i < Lattice::kDirs; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    const double fi = Lattice::f_eq(i, rho, mx, my, txx, txy, tyy);
    r += fi;
    sx += fi * Lattice::cx[iu];
    sy += fi * Lattice::cy[iu];
    pxx += fi * Lattice::cx[iu] * Lattice::cx[iu];
    pxy += fi * Lattice::cx[iu] * Lattice::cy[iu];
    pyy += fi * Lattice::cy[iu] * Lattice::cy[iu];
    double gx = 0, gy = 0;
    Lattice::g_eq(i, bx, by, lam, gx, gy);
    bxs += gx;
    bys += gy;
    fxy += gx * Lattice::cy[iu];  // first moment of g_x along y -> Lambda_yx
    fyx += gy * Lattice::cx[iu];  // first moment of g_y along x -> Lambda_xy
  }
  EXPECT_NEAR(r, rho, 1e-14);
  EXPECT_NEAR(sx, mx, 1e-14);
  EXPECT_NEAR(sy, my, 1e-14);
  // Second moment must equal T + cs^2 rho I.
  EXPECT_NEAR(pxx, txx + Lattice::kCs2 * rho, 1e-14);
  EXPECT_NEAR(pyy, tyy + Lattice::kCs2 * rho, 1e-14);
  EXPECT_NEAR(pxy, txy, 1e-14);
  EXPECT_NEAR(bxs, bx, 1e-14);
  EXPECT_NEAR(bys, by, 1e-14);
  EXPECT_NEAR(fyx, lam, 1e-14);   // Lambda_xy
  EXPECT_NEAR(fxy, -lam, 1e-14);  // Lambda_yx
}

TEST(Lattice, CubicCoefficientsSumToOne) {
  for (double t : {0.0, 0.25, Lattice::kS, 1.0 - Lattice::kS, 0.9}) {
    const auto c = Lattice::cubic_coeffs(t);
    EXPECT_NEAR(c[0] + c[1] + c[2] + c[3], 1.0, 1e-14) << "t=" << t;
  }
}

TEST(Lattice, CubicInterpolatesCubicsExactly) {
  // Degree-3 Lagrange interpolation must reproduce cubic polynomials.
  auto poly = [](double x) { return 1.0 + 2.0 * x - 0.5 * x * x + 0.25 * x * x * x; };
  const double t = 0.3;
  const auto c = Lattice::cubic_coeffs(t);
  const double interp =
      c[0] * poly(-1.0) + c[1] * poly(0.0) + c[2] * poly(1.0) + c[3] * poly(2.0);
  EXPECT_NEAR(interp, poly(t), 1e-13);
}

void fill_random(FieldSet& fs, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(0.01, 0.1);
  for (int p = 0; p < FieldSet::kPlanes; ++p) {
    double* plane = fs.plane(p);
    for (std::size_t j = 0; j < fs.nyl(); ++j) {
      for (std::size_t i = 0; i < fs.nxl(); ++i) {
        plane[fs.at(static_cast<std::ptrdiff_t>(j), static_cast<std::ptrdiff_t>(i))] =
            (p == 0 ? 0.5 : 0.0) + dist(rng);
      }
    }
  }
}

struct Invariants {
  double mass = 0, mx = 0, my = 0, bx = 0, by = 0;
};

Invariants invariants_of(const FieldSet& fs) {
  Invariants inv;
  for (std::size_t j = 0; j < fs.nyl(); ++j) {
    for (std::size_t i = 0; i < fs.nxl(); ++i) {
      const std::size_t o =
          fs.at(static_cast<std::ptrdiff_t>(j), static_cast<std::ptrdiff_t>(i));
      for (int d = 0; d < Lattice::kDirs; ++d) {
        const auto du = static_cast<std::size_t>(d);
        inv.mass += fs.f(d)[o];
        inv.mx += fs.f(d)[o] * Lattice::cx[du];
        inv.my += fs.f(d)[o] * Lattice::cy[du];
        inv.bx += fs.gx(d)[o];
        inv.by += fs.gy(d)[o];
      }
    }
  }
  return inv;
}

TEST(Collision, ConservesMassMomentumAndField) {
  FieldSet fs(12, 10);
  fill_random(fs, 1);
  const auto before = invariants_of(fs);
  collide_flat(fs, CollisionParams{0.8, 0.9});
  const auto after = invariants_of(fs);
  EXPECT_NEAR(after.mass, before.mass, 1e-11);
  EXPECT_NEAR(after.mx, before.mx, 1e-11);
  EXPECT_NEAR(after.my, before.my, 1e-11);
  EXPECT_NEAR(after.bx, before.bx, 1e-11);
  EXPECT_NEAR(after.by, before.by, 1e-11);
}

TEST(Collision, BlockedMatchesFlatExactly) {
  FieldSet a(20, 8), b(20, 8);
  fill_random(a, 2);
  fill_random(b, 2);
  collide_flat(a, CollisionParams{1.0, 1.0});
  collide_blocked(b, CollisionParams{1.0, 1.0}, 7);
  for (int p = 0; p < FieldSet::kPlanes; ++p) {
    for (std::size_t j = 0; j < a.nyl(); ++j) {
      for (std::size_t i = 0; i < a.nxl(); ++i) {
        const std::size_t o =
            a.at(static_cast<std::ptrdiff_t>(j), static_cast<std::ptrdiff_t>(i));
        EXPECT_DOUBLE_EQ(a.plane(p)[o], b.plane(p)[o]);
      }
    }
  }
}

TEST(Collision, EquilibriumIsFixedPoint) {
  // Populations already at equilibrium must be unchanged by collision.
  FieldSet fs(6, 6);
  const double rho = 1.1, ux = 0.02, uy = -0.01, bx = 0.03, by = 0.04;
  const double mx = rho * ux, my = rho * uy;
  const double b2h = 0.5 * (bx * bx + by * by);
  const double txx = rho * ux * ux + b2h - bx * bx;
  const double tyy = rho * uy * uy + b2h - by * by;
  const double txy = rho * ux * uy - bx * by;
  const double lam = ux * by - bx * uy;
  for (std::size_t j = 0; j < 6; ++j) {
    for (std::size_t i = 0; i < 6; ++i) {
      const std::size_t o =
          fs.at(static_cast<std::ptrdiff_t>(j), static_cast<std::ptrdiff_t>(i));
      for (int d = 0; d < Lattice::kDirs; ++d) {
        fs.f(d)[o] = Lattice::f_eq(d, rho, mx, my, txx, txy, tyy);
        double gx, gy;
        Lattice::g_eq(d, bx, by, lam, gx, gy);
        fs.gx(d)[o] = gx;
        fs.gy(d)[o] = gy;
      }
    }
  }
  FieldSet ref(6, 6);
  for (int p = 0; p < FieldSet::kPlanes; ++p) {
    std::copy_n(fs.plane(p), fs.plane_size(), ref.plane(p));
  }
  collide_flat(fs, CollisionParams{1.0, 1.0});
  for (int p = 0; p < FieldSet::kPlanes; ++p) {
    for (std::size_t k = 0; k < fs.plane_size(); ++k) {
      EXPECT_NEAR(fs.plane(p)[k], ref.plane(p)[k], 1e-13);
    }
  }
}

TEST(Simulation, SerialConservationOverManySteps) {
  simrt::run(1, [](simrt::Communicator& comm) {
    Options opt;
    opt.nx = 32;
    opt.ny = 32;
    auto sim = Simulation(comm, opt);
    sim.initialize(orszag_tang_ic(0.05));
    const auto before = sim.diagnostics();
    sim.run(20);
    const auto after = sim.diagnostics();
    EXPECT_NEAR(after.mass, before.mass, 1e-8 * before.mass);
    EXPECT_NEAR(after.momentum_x, before.momentum_x, 1e-9);
    EXPECT_NEAR(after.momentum_y, before.momentum_y, 1e-9);
    EXPECT_NEAR(after.bx_total, before.bx_total, 1e-9);
    EXPECT_NEAR(after.by_total, before.by_total, 1e-9);
  });
}

TEST(Simulation, EnergyDecays) {
  // Decaying MHD: total (kinetic + magnetic) energy must not grow.
  simrt::run(1, [](simrt::Communicator& comm) {
    Options opt;
    opt.nx = 32;
    opt.ny = 32;
    opt.tau_f = 0.8;
    opt.tau_g = 0.8;
    auto sim = Simulation(comm, opt);
    sim.initialize(orszag_tang_ic(0.05));
    const auto before = sim.diagnostics();
    sim.run(50);
    const auto after = sim.diagnostics();
    EXPECT_LT(after.kinetic_energy + after.magnetic_energy,
              (before.kinetic_energy + before.magnetic_energy) * 1.0001);
    EXPECT_GT(after.kinetic_energy + after.magnetic_energy, 0.0);
  });
}

std::vector<double> run_and_gather(int procs, int px, int py,
                                   Options::Exchange ex, Options::Collision coll,
                                   int steps) {
  std::vector<double> result;
  simrt::run(procs, [&](simrt::Communicator& comm) {
    Options opt;
    opt.nx = 32;
    opt.ny = 16;
    opt.px = px;
    opt.py = py;
    opt.exchange = ex;
    opt.collision = coll;
    opt.block = 5;
    auto sim = Simulation(comm, opt);
    sim.initialize(orszag_tang_ic(0.05));
    sim.run(steps);
    auto d = sim.gather(Simulation::Field::Density);
    if (comm.rank() == 0) result = std::move(d);
  });
  return result;
}

TEST(Simulation, ParallelMatchesSerial) {
  const auto serial = run_and_gather(1, 1, 1, Options::Exchange::Mpi,
                                     Options::Collision::Flat, 8);
  for (auto [procs, px, py] : {std::tuple{2, 2, 1}, {4, 2, 2}, {8, 4, 2}}) {
    const auto par = run_and_gather(procs, px, py, Options::Exchange::Mpi,
                                    Options::Collision::Flat, 8);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_NEAR(par[i], serial[i], 1e-12) << "P=" << procs << " cell " << i;
    }
  }
}

TEST(Simulation, CafMatchesMpi) {
  const auto mpi = run_and_gather(4, 2, 2, Options::Exchange::Mpi,
                                  Options::Collision::Flat, 8);
  const auto caf = run_and_gather(4, 2, 2, Options::Exchange::Caf,
                                  Options::Collision::Flat, 8);
  ASSERT_EQ(mpi.size(), caf.size());
  for (std::size_t i = 0; i < mpi.size(); ++i) EXPECT_NEAR(caf[i], mpi[i], 1e-13);
}

TEST(Simulation, BlockedCollisionMatchesFlat) {
  const auto flat = run_and_gather(4, 2, 2, Options::Exchange::Mpi,
                                   Options::Collision::Flat, 8);
  const auto blocked = run_and_gather(4, 2, 2, Options::Exchange::Mpi,
                                      Options::Collision::Blocked, 8);
  for (std::size_t i = 0; i < flat.size(); ++i) EXPECT_NEAR(blocked[i], flat[i], 1e-13);
}

TEST(Simulation, CurrentDensityIntegratesToZero) {
  simrt::run(1, [](simrt::Communicator& comm) {
    Options opt;
    opt.nx = 64;
    opt.ny = 64;
    auto sim = Simulation(comm, opt);
    sim.initialize(crossed_structures_ic(0.1));
    sim.run(5);
    const auto jz = sim.gather(Simulation::Field::CurrentZ);
    double total = 0.0, maxabs = 0.0;
    for (double v : jz) {
      total += v;
      maxabs = std::max(maxabs, std::abs(v));
    }
    // Periodic curl integrates to zero; crossed structures carry real current.
    EXPECT_NEAR(total, 0.0, 1e-9);
    EXPECT_GT(maxabs, 1e-4);
  });
}

// The decomposition plans its halo once; every exchange reuses the schedule
// and the receive buffer it keeps instead of re-planning.
TEST(Exchange, DecompositionKeepsItsReceiveBufferAcrossExchanges) {
  simrt::run(2, [](simrt::Communicator& comm) {
    const Decomp2D d(16, 8, 2, 1, comm.rank());
    FieldSet fields(d.nxl, d.nyl);
    exchange_mpi(comm, d, fields);
    const double* inbox = d.halo.inbox.data();
    ASSERT_NE(inbox, nullptr);
    exchange_mpi(comm, d, fields);
    EXPECT_EQ(d.halo.inbox.data(), inbox);
  });
}

TEST(Simulation, RejectsBadProcessorGrid) {
  EXPECT_THROW(simrt::run(3,
                          [](simrt::Communicator& comm) {
                            Options opt;
                            opt.px = 2;
                            opt.py = 2;
                            Simulation sim(comm, opt);
                          }),
               std::runtime_error);
}

TEST(Workload, SynthesizedProfileMatchesInstrumentedRun) {
  // The Table 3 generator must agree with the counts an instrumented small
  // run records: same flops, same bytes, same communication volume per rank.
  constexpr std::size_t nx = 32, ny = 32;
  constexpr int steps = 3;
  auto result = simrt::run(4, [&](simrt::Communicator& comm) {
    Options opt;
    opt.nx = nx;
    opt.ny = ny;
    opt.px = 2;
    opt.py = 2;
    auto sim = Simulation(comm, opt);
    sim.initialize(orszag_tang_ic(0.05));
    sim.run(steps);
  });

  Table3Config cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.procs = 4;
  cfg.steps = steps;
  const auto synth = make_profile(cfg);

  const auto& measured = result.per_rank[0];
  EXPECT_NEAR(synth.kernels.region_flops("collision"),
              measured.kernels().region_flops("collision"), 1.0);
  EXPECT_NEAR(synth.kernels.region_flops("stream"),
              measured.kernels().region_flops("stream"), 1.0);
  EXPECT_NEAR(synth.comm.bytes(perf::CommKind::PointToPoint),
              measured.comm().bytes(perf::CommKind::PointToPoint), 1.0);
  EXPECT_NEAR(synth.kernels.total_bytes(), measured.kernels().total_bytes(),
              measured.kernels().total_bytes() * 0.01);
}

TEST(Workload, CafVariantSwapsTrafficClass) {
  Table3Config cfg;
  cfg.nx = 64;
  cfg.ny = 64;
  cfg.procs = 4;
  cfg.steps = 2;
  cfg.caf = true;
  const auto caf = make_profile(cfg);
  EXPECT_DOUBLE_EQ(caf.comm.bytes(perf::CommKind::PointToPoint), 0.0);
  EXPECT_GT(caf.comm.bytes(perf::CommKind::OneSided), 0.0);
  // CAF sends many more, smaller messages.
  cfg.caf = false;
  const auto mpi = make_profile(cfg);
  EXPECT_GT(caf.comm.total_messages(), 10.0 * mpi.comm.messages(perf::CommKind::PointToPoint));
  // And avoids the pack traffic entirely.
  EXPECT_DOUBLE_EQ(caf.kernels.region_flops("comm_pack"), 0.0);
  EXPECT_GT(mpi.kernels.total_bytes(), caf.kernels.total_bytes());
}

TEST(Workload, RejectsNonSquareProcs) {
  Table3Config cfg;
  cfg.procs = 48;
  EXPECT_THROW(make_profile(cfg), std::runtime_error);
}

TEST(Workload, BaselineScalesLinearly) {
  EXPECT_NEAR(baseline_flops(64, 64, 10) * 4.0, baseline_flops(128, 64, 20), 1.0);
}

}  // namespace
}  // namespace vpar::lbmhd
