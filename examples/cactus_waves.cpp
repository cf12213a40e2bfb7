// Gravitational-wave evolution with the linearized ADM-BSSN solver: a
// transverse-traceless plane wave crosses a periodic domain and is compared
// against the analytic solution, then a compact pulse is evolved with
// radiation (Sommerfeld) boundaries and leaves the grid — the two phenomena
// behind paper Figures 5 and 6 and the Table 5 benchmark.
//
// Usage: cactus_waves [crossings]

#include <cmath>
#include <cstdio>
#include <exception>
#include <numbers>

#include "cactus/evolve.hpp"
#include "simrt/runtime.hpp"

int main(int argc, char** argv) try {
  using namespace vpar;
  const int crossings = argc > 1 ? std::atoi(argv[1]) : 2;

  std::printf("== Plane gravitational wave vs analytic solution ==\n");
  simrt::run(4, [&](simrt::Communicator& comm) {
    cactus::Options opt;
    opt.nx = opt.ny = 16;
    opt.nz = 64;
    opt.px = opt.py = 1;
    opt.pz = 4;
    opt.h = 1.0;
    opt.cfl = 0.25;
    cactus::Evolution evo(comm, opt);

    const double amp = 1.0e-3;
    const double k = 2.0 * std::numbers::pi / (static_cast<double>(opt.nz) * opt.h);
    evo.initialize(cactus::plane_wave_id(amp, k));
    const auto exact = cactus::plane_wave_exact_hxx(amp, k);

    const int steps_per_crossing =
        static_cast<int>(std::lround(static_cast<double>(opt.nz) / opt.cfl));
    for (int c = 0; c <= crossings; ++c) {
      if (c > 0) evo.run(steps_per_crossing);
      const double err = evo.error_l2(cactus::HXX, exact);
      const double cnorm = evo.constraint_l2();
      if (comm.rank() == 0) {
        std::printf("  t = %6.1f  |h_xx - exact| = %.3e  constraints = %.3e\n",
                    evo.time(), err, cnorm);
      }
    }
  });

  std::printf("\n== Compact pulse leaving through radiation boundaries ==\n");
  simrt::run(8, [](simrt::Communicator& comm) {
    cactus::Options opt;
    opt.nx = opt.ny = opt.nz = 24;
    opt.px = opt.py = opt.pz = 2;
    opt.h = 0.5;
    opt.periodic = false;
    opt.bc_variant = cactus::BoundaryVariant::Vectorized;
    cactus::Evolution evo(comm, opt);
    evo.initialize(cactus::gaussian_pulse_id(0.01, 1.5));
    for (int burst = 0; burst <= 6; ++burst) {
      if (burst > 0) evo.run(20);
      const double k_norm = evo.field_l2(cactus::KXX);
      if (comm.rank() == 0) {
        std::printf("  t = %5.1f  |K_xx| = %.3e%s\n", evo.time(), k_norm,
                    burst >= 4 ? "  (radiated away)" : "");
      }
    }
  });
  return 0;
} catch (const std::exception& e) {
  // A rejected input (a malformed VPAR_* variable, say) ends the program
  // with its message and exit status 2, not std::terminate.
  std::fprintf(stderr, "cactus_waves: %s\n", e.what());
  return 2;
}
