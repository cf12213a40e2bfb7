// Quickstart: run a small LBMHD simulation on 4 simulated ranks, check the
// conservation laws, and ask the architecture models what the same code
// would sustain per processor on the Earth Simulator versus the Power3 —
// the headline comparison of the paper in ~60 lines.

#include <cstdio>
#include <exception>
#include <iostream>

#include "arch/machine_model.hpp"
#include "arch/platform.hpp"
#include "core/profile_builder.hpp"
#include "core/report.hpp"
#include "lbmhd/simulation.hpp"
#include "lbmhd/workload.hpp"
#include "simrt/runtime.hpp"

int main() try {
  using namespace vpar;

  // 1. A real (small) run: 64^2 grid, 2x2 processor grid, 50 steps.
  auto result = simrt::run(4, [](simrt::Communicator& comm) {
    lbmhd::Options opt;
    opt.nx = opt.ny = 64;
    opt.px = opt.py = 2;
    auto sim = lbmhd::Simulation(comm, opt);
    sim.initialize(lbmhd::orszag_tang_ic(0.05));

    const auto before = sim.diagnostics();
    sim.run(50);
    const auto after = sim.diagnostics();

    if (comm.rank() == 0) {
      std::printf("LBMHD 64^2 on 4 ranks, 50 steps\n");
      std::printf("  mass drift:      %.3e (conserved)\n",
                  after.mass - before.mass);
      std::printf("  momentum drift:  %.3e\n", after.momentum_x - before.momentum_x);
      std::printf("  energy:          %.6f -> %.6f (decaying MHD)\n",
                  before.kinetic_energy + before.magnetic_energy,
                  after.kinetic_energy + after.magnetic_energy);
    }
  });

  // 2. The instrumentation the run produced (hpmcount/ftrace-style report).
  std::printf("\nInstrumented per-rank profile:\n");
  core::print_profile(std::cout, result.per_rank[0].kernels());

  // 3. What would this application sustain per CPU at paper scale?
  lbmhd::Table3Config cfg;
  cfg.nx = cfg.ny = 8192;
  cfg.procs = 64;
  const auto app = lbmhd::make_profile(cfg);
  for (const auto* name : {"Power3", "ES"}) {
    const auto pred = arch::MachineModel(arch::platform_by_name(name)).predict(app);
    std::printf("  %-7s %5.2f Gflops/P  (%4.1f%% of peak)\n", name,
                pred.gflops_per_proc, 100.0 * pred.pct_peak);
  }
  std::printf("\nThat ~30-40x gap is the paper's headline result.\n");
  return 0;
} catch (const std::exception& e) {
  // A rejected input (a malformed VPAR_* variable, say) ends the program
  // with its message and exit status 2, not std::terminate.
  std::fprintf(stderr, "quickstart: %s\n", e.what());
  return 2;
}
