#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "qcd/lattice.hpp"
#include "qcd/simulation.hpp"
#include "qcd/workload.hpp"
#include "simd/dispatch.hpp"
#include "simrt/parallel.hpp"
#include "simrt/runtime.hpp"
#include "trace/metrics.hpp"

namespace vpar::qcd {
namespace {

class DispatchGuard {
 public:
  explicit DispatchGuard(simd::DispatchMode m) : prev_(simd::dispatch_mode()) {
    simd::set_dispatch_mode(m);
  }
  ~DispatchGuard() { simd::set_dispatch_mode(prev_); }

 private:
  simd::DispatchMode prev_;
};

struct HybridGuard {
  simrt::HybridMode previous = simrt::hybrid_threading();
  explicit HybridGuard(simrt::HybridMode mode) {
    simrt::set_hybrid_threading(mode);
  }
  ~HybridGuard() { simrt::set_hybrid_threading(previous); }
};

Options small_options(bool normalize = true) {
  Options opt;
  opt.nx = 8;
  opt.ny = 4;
  opt.nz = 4;
  opt.nt = 6;
  opt.normalize = normalize;
  return opt;
}

/// Run `steps` on `ranks` ranks and return the rank-0 gathered field.
std::vector<double> run_psi(int ranks, const Options& opt, int steps) {
  std::vector<double> psi;
  simrt::run(ranks, [&](simrt::Communicator& comm) {
    Simulation sim(comm, opt);
    sim.initialize();
    sim.run(steps);
    auto g = sim.gather_psi();
    if (comm.rank() == 0) psi = std::move(g);
  });
  return psi;
}

TEST(Lattice, LinkMatricesAreUnitary) {
  const LinkMatrices& u = links();
  for (std::size_t mu = 0; mu < 4; ++mu) {
    for (std::size_t r = 0; r < kColors; ++r) {
      for (std::size_t c = 0; c < kColors; ++c) {
        // (U U^dagger)[r][c] = sum_d U[r][d] * conj(U[c][d])
        double re = 0.0, im = 0.0;
        for (std::size_t d = 0; d < kColors; ++d) {
          re += u.re[mu][r][d] * u.re[mu][c][d] +
                u.im[mu][r][d] * u.im[mu][c][d];
          im += u.im[mu][r][d] * u.re[mu][c][d] -
                u.re[mu][r][d] * u.im[mu][c][d];
        }
        EXPECT_NEAR(re, r == c ? 1.0 : 0.0, 1e-12) << "mu=" << mu;
        EXPECT_NEAR(im, 0.0, 1e-12) << "mu=" << mu;
      }
    }
  }
}

TEST(Lattice, StaggeredPhasesFollowKogutSusskind) {
  EXPECT_EQ(staggered_eta(0, 5, 3, 2), 1.0);   // eta_x is always +1
  EXPECT_EQ(staggered_eta(1, 5, 3, 2), -1.0);  // (-1)^x
  EXPECT_EQ(staggered_eta(2, 5, 3, 2), 1.0);   // (-1)^(x+y)
  EXPECT_EQ(staggered_eta(3, 5, 3, 2), 1.0);   // (-1)^(x+y+z)
}

TEST(ResolveDims, KeepsPerRankXBlocksEven) {
  for (int ranks = 1; ranks <= 16; ++ranks) {
    const auto dims = Simulation::resolve_dims(small_options(), ranks);
    int prod = 1;
    for (int d : dims) prod *= d;
    EXPECT_EQ(prod, ranks);
    EXPECT_EQ(small_options().nx % (2 * static_cast<std::size_t>(dims[0])), 0u)
        << "ranks=" << ranks;
  }
}

TEST(ResolveDims, HonoursFixedEntries) {
  Options opt = small_options();
  opt.dims = {1, 1, 1, 0};
  const auto dims = Simulation::resolve_dims(opt, 3);
  EXPECT_EQ(dims, (std::array<int, 4>{1, 1, 1, 3}));
}

TEST(ResolveDims, RejectsOddX) {
  Options opt = small_options();
  opt.nx = 7;
  EXPECT_THROW(static_cast<void>(Simulation::resolve_dims(opt, 2)),
               std::runtime_error);
}

TEST(Simulation, NormalizeDrivesNormToOne) {
  simrt::run(2, [&](simrt::Communicator& comm) {
    Simulation sim(comm, small_options());
    sim.initialize();
    sim.run(3);
    const Diagnostics d = sim.diagnostics();
    EXPECT_NEAR(d.norm2, 1.0, 1e-12);
    EXPECT_TRUE(std::isfinite(d.link_energy));
    EXPECT_NE(d.link_energy, 0.0);
  });
}

TEST(Simulation, RunsAreDeterministic) {
  const auto a = run_psi(2, small_options(), 3);
  const auto b = run_psi(2, small_options(), 3);
  EXPECT_EQ(a, b);
}

TEST(Simulation, InitialFieldIsDecompositionIndependent) {
  const auto p1 = run_psi(1, small_options(false), 0);
  const auto p4 = run_psi(4, small_options(false), 0);
  ASSERT_EQ(p1.size(), p4.size());
  EXPECT_EQ(p1, p4);
}

// The raw (un-normalized) Dslash iteration touches ghosts only through
// bitwise copies and updates every site with the same fixed-order expression
// regardless of which rank owns it, so the gathered field must be bitwise
// identical at every concurrency. (normalize=true would break this: the
// global-norm allreduce associates per-rank partials differently per P.)
TEST(Equivalence, CrossConcurrencyBitwise) {
  const auto p1 = run_psi(1, small_options(false), 3);
  for (int ranks : {2, 3, 4, 6, 8}) {
    const auto pn = run_psi(ranks, small_options(false), 3);
    ASSERT_EQ(p1.size(), pn.size()) << "ranks=" << ranks;
    EXPECT_EQ(p1, pn) << "ranks=" << ranks;
  }
}

TEST(Equivalence, SimdMatchesScalarBitwise) {
  std::vector<double> scalar, simd_psi;
  {
    DispatchGuard g(simd::DispatchMode::ForceScalar);
    scalar = run_psi(4, small_options(), 3);
  }
  {
    DispatchGuard g(simd::DispatchMode::ForceSimd);
    simd_psi = run_psi(4, small_options(), 3);
  }
  EXPECT_EQ(scalar, simd_psi);
}

TEST(Equivalence, HybridMatchesSerialBitwise) {
  std::vector<double> serial, hybrid;
  {
    HybridGuard g(simrt::HybridMode::Off);
    serial = run_psi(2, small_options(), 3);
  }
  {
    HybridGuard g(simrt::HybridMode::On);
    hybrid = run_psi(2, small_options(), 3);
  }
  EXPECT_EQ(serial, hybrid);
}

TEST(Checkpoint, RestoreReplaysBitwise) {
  std::vector<double> straight, replayed;
  simrt::run(2, [&](simrt::Communicator& comm) {
    Simulation sim(comm, small_options());
    sim.initialize();
    sim.run(2);
    const auto ckpt = sim.save_state();
    sim.run(2);
    auto a = sim.gather_psi();
    sim.restore_state(ckpt);
    sim.run(2);
    auto b = sim.gather_psi();
    if (comm.rank() == 0) {
      straight = std::move(a);
      replayed = std::move(b);
    }
  });
  ASSERT_FALSE(straight.empty());
  EXPECT_EQ(straight, replayed);
}

TEST(Checkpoint, RestoreRejectsShapeMismatch) {
  simrt::run(1, [&](simrt::Communicator& comm) {
    Simulation sim(comm, small_options());
    sim.initialize();
    Simulation::Checkpoint bad;
    bad.even.resize(1);
    EXPECT_THROW(sim.restore_state(bad), std::runtime_error);
  });
}

TEST(Workload, SynthesizedProfileMatchesInstrumentedRun) {
  constexpr int steps = 3;
  const Options opt = small_options();
  auto result = simrt::run(4, [&](simrt::Communicator& comm) {
    Simulation sim(comm, opt);
    sim.initialize();
    sim.run(steps);
  });

  ScalingConfig cfg;
  cfg.nx = opt.nx;
  cfg.ny = opt.ny;
  cfg.nz = opt.nz;
  cfg.nt = opt.nt;
  cfg.procs = 4;
  cfg.steps = steps;
  const auto synth = make_profile(cfg);

  const auto& measured = result.per_rank[0];
  EXPECT_NEAR(synth.kernels.region_flops("dslash"),
              measured.kernels().region_flops("dslash"), 1.0);
  EXPECT_NEAR(synth.comm.bytes(perf::CommKind::PointToPoint),
              measured.comm().bytes(perf::CommKind::PointToPoint), 1.0);
  EXPECT_NEAR(synth.comm.overlap_windows(),
              measured.comm().overlap_windows(), 0.5);
  EXPECT_NEAR(synth.kernels.total_bytes(), measured.kernels().total_bytes(),
              measured.kernels().total_bytes() * 0.01);
}

TEST(Workload, BaselineCountsEverySiteTwicePerTwoSteps) {
  ScalingConfig cfg;
  cfg.nx = 8;
  cfg.ny = 8;
  cfg.nz = 8;
  cfg.nt = 8;
  cfg.steps = 2;
  EXPECT_DOUBLE_EQ(baseline_flops(cfg), 8.0 * 8.0 * 8.0 * 8.0 * 2.0 * 648.0);
}

TEST(Workload, HaloBytesShrinkPerRankAsConcurrencyGrows) {
  ScalingConfig cfg;
  cfg.nx = 32;
  cfg.ny = 32;
  cfg.nz = 32;
  cfg.nt = 32;
  cfg.procs = 1;
  const auto one = halo_bytes_per_exchange(cfg);
  cfg.procs = 16;
  const auto sixteen = halo_bytes_per_exchange(cfg);
  double t1 = 0.0, t16 = 0.0;
  for (std::size_t a = 0; a < 4; ++a) {
    t1 += one[a];
    t16 += sixteen[a];
  }
  EXPECT_LT(t16, t1);
}

TEST(Workload, QcdHaloStepMovesPinnedCounts) {
  // The benchmark's qcd_halo shape: 16^3 x 32 at P = 4 on a 1x2x1x2 grid,
  // normalize on. A step is two one-phase exchanges of interior-only faces:
  // each rank sends its 4 y and t faces as messages (2 x (2,048 + 1,024)
  // sites x kPlanes doubles per exchange) and copies its x and z faces in
  // place; part.halo_bytes counts all 8 faces of every rank.
  Options opt;
  opt.nx = 16;
  opt.ny = 16;
  opt.nz = 16;
  opt.nt = 32;
  opt.normalize = true;
  ASSERT_EQ(Simulation::resolve_dims(opt, 4), (std::array<int, 4>{1, 2, 1, 2}));
  auto& halo_bytes = trace::Metrics::instance().counter("part.halo_bytes");
  const std::uint64_t before = halo_bytes.value();
  const auto result = simrt::run(4, [&](simrt::Communicator& comm) {
    Simulation sim(comm, opt);
    sim.initialize();
    sim.step();
  });
  EXPECT_EQ(halo_bytes.value() - before, 4'718'592u);
  ASSERT_EQ(result.per_rank.size(), 4u);
  for (const auto& rank : result.per_rank) {
    EXPECT_EQ(rank.comm().bytes(perf::CommKind::PointToPoint), 589'824.0);
    EXPECT_EQ(rank.comm().messages(perf::CommKind::PointToPoint), 8.0);
  }
}

}  // namespace
}  // namespace vpar::qcd
