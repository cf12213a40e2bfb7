#pragma once

#include <cstdint>
#include <vector>

#include "gtc/deposition.hpp"
#include "gtc/particles.hpp"
#include "gtc/poisson.hpp"
#include "gtc/push.hpp"
#include "gtc/shift.hpp"
#include "gtc/torus_grid.hpp"
#include "simrt/communicator.hpp"

namespace vpar::gtc {

/// Configuration of one gyrokinetic PIC run.
struct Options {
  std::size_t ngx = 32, ngy = 32;  ///< cross-section grid
  int nplanes = 8;                 ///< toroidal planes (1D decomposition)
  int particles_per_cell = 10;     ///< markers per grid cell (paper: 10/100)
  double dt = 0.05;
  double b0 = 1.0;
  double vpar_max = 1.0;  ///< uniform parallel-velocity spread
  double rho_max = 2.0;   ///< gyroradius spread
  DepositVariant deposit = DepositVariant::Scatter;
  ShiftVariant shift = ShiftVariant::TwoPass;
  std::size_t vlen = 256;  ///< work-vector lanes
  int threads = 1;         ///< >1: hybrid loop-level threading (overrides
                           ///< `deposit` with the threaded scatter)
  std::uint64_t seed = 42;
};

/// Self-consistent gyrokinetic particle-in-cell simulation on the simplified
/// torus: 4-point gyro-averaged charge deposition, per-plane spectral
/// Poisson solve, ExB gather-push, and iterative toroidal shift — the
/// computational skeleton and communication pattern of GTC.
class Simulation {
 public:
  Simulation(simrt::Communicator& comm, const Options& options);

  /// Load markers uniformly over the local domain (quiet start: equal and
  /// opposite charges so the plasma is quasi-neutral in the mean).
  void load_particles();

  void step();
  void run(int steps);

  // --- diagnostics (collective) --------------------------------------------
  [[nodiscard]] std::size_t global_particle_count();
  [[nodiscard]] double global_particle_charge();
  [[nodiscard]] double global_grid_charge();  ///< after the last deposition
  [[nodiscard]] double field_energy();        ///< sum phi*rho over the grid

  /// All local markers within this rank's zeta range?
  [[nodiscard]] bool particles_home() const;

  /// Per-rank checkpoint of the complete evolving state: the local marker
  /// population. The grid (charge, potential, fields) is recomputed from the
  /// markers at the start of every step, so restoring this into a simulation
  /// built with the same options replays the run bitwise-identically.
  struct Checkpoint {
    ParticleSet particles;
  };
  [[nodiscard]] Checkpoint save_state() const;
  void restore_state(const Checkpoint& checkpoint);

  /// Gather one owned plane's potential to rank 0 (row-major ngy x ngx).
  [[nodiscard]] std::vector<double> gather_phi_plane(int global_plane);

  [[nodiscard]] TorusGrid& grid() { return grid_; }
  [[nodiscard]] ParticleSet& particles() { return particles_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Individual phases, exposed for tests and benches.
  void deposit_phase();
  void solve_phase();
  void push_phase();
  void shift_phase();

 private:
  void flush_ghost_plane();
  void fetch_ghost_efield();

  simrt::Communicator* comm_;
  Options options_;
  TorusGrid grid_;
  ParticleSet particles_;
};

}  // namespace vpar::gtc
