// A self-consistent gyrokinetic PIC run in the spirit of paper Figure 7:
// markers drive an electrostatic potential through the 4-point gyro-averaged
// deposition, the potential pushes them back through the ExB drift, and the
// toroidal shift migrates them between domains. Dumps one potential
// cross-section as a PGM and prints the field-energy history, comparing the
// classic scatter deposition with the work-vector algorithm along the way.
//
// Usage: gtc_turbulence [steps] [output]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "gtc/simulation.hpp"
#include "simrt/runtime.hpp"

namespace {

void write_pgm(const std::string& path, const std::vector<double>& field,
               std::size_t nx, std::size_t ny) {
  double lo = 1e300, hi = -1e300;
  for (double v : field) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = hi > lo ? hi - lo : 1.0;
  std::ofstream out(path, std::ios::binary);
  out << "P5\n" << nx << " " << ny << "\n255\n";
  for (double v : field) {
    out.put(static_cast<char>(std::lround((v - lo) / span * 255.0)));
  }
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace vpar;
  const int steps = argc > 1 ? std::atoi(argv[1]) : 40;
  const std::string output = argc > 2 ? argv[2] : "gtc_phi.pgm";

  for (auto variant : {gtc::DepositVariant::Scatter, gtc::DepositVariant::WorkVector}) {
    simrt::run(4, [&](simrt::Communicator& comm) {
      gtc::Options opt;
      opt.ngx = opt.ngy = 48;
      opt.nplanes = 8;
      opt.particles_per_cell = 8;
      opt.dt = 0.05;
      opt.deposit = variant;
      opt.vlen = 64;
      gtc::Simulation sim(comm, opt);
      sim.load_particles();

      if (comm.rank() == 0) {
        std::printf("\n-- %s deposition --\n",
                    variant == gtc::DepositVariant::Scatter ? "scatter"
                                                            : "work-vector");
      }
      for (int s = 0; s <= steps; s += steps / 4) {
        if (s > 0) sim.run(steps / 4);
        const double fe = sim.field_energy();
        const auto n = sim.global_particle_count();
        if (comm.rank() == 0) {
          std::printf("  step %3d: field energy %.6e, %zu markers (conserved)\n",
                      s, fe, n);
        }
      }
      const auto phi = sim.gather_phi_plane(0);
      if (comm.rank() == 0 && variant == gtc::DepositVariant::WorkVector) {
        write_pgm(output, phi, opt.ngx, opt.ngy);
        std::printf("  potential cross-section -> %s (cf. paper Figure 7)\n",
                    output.c_str());
      }
    });
  }
  std::printf("\nBoth deposition variants drive identical physics; only their "
              "vectorizability differs (paper Figure 8, section 6.1).\n");
  return 0;
} catch (const std::exception& e) {
  // A rejected input (a malformed VPAR_* variable, say) ends the program
  // with its message and exit status 2, not std::terminate.
  std::fprintf(stderr, "gtc_turbulence: %s\n", e.what());
  return 2;
}
