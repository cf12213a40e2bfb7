#pragma once

#include <array>

#include "arch/machine_model.hpp"

namespace vpar::qcd {

/// One QCD scaling-study cell: global full lattice, concurrency, timesteps.
struct ScalingConfig {
  std::size_t nx = 32, ny = 32, nz = 32, nt = 64;
  int procs = 16;
  int steps = 100;
  int threads_per_rank = 1;  ///< hybrid helpers per rank
};

/// Per-axis halo bytes one rank moves per exchange (both directions, all
/// kPlanes planes), evaluated on the even/odd half lattice: the
/// interior-only faces of the Simulation's corner-free plan. Counts the
/// faces a rank copies to itself on axes the rank grid does not split too;
/// make_profile costs only the split axes as messages.
[[nodiscard]] std::array<double, 4> halo_bytes_per_exchange(
    const ScalingConfig& config);

/// Baseline algorithmic flops of a run: two dslash sweeps (even and odd
/// targets) cover every full-lattice site once per step.
[[nodiscard]] double baseline_flops(const ScalingConfig& config);

/// Synthesize the per-rank AppProfile for a paper-scale QCD run. Loop
/// records carry the same per-site constants and shapes as the instrumented
/// dslash kernel; communication volumes follow the planned halo schedule at
/// the target scale (tests pin the synthesized counts against profiles
/// measured from real small runs).
[[nodiscard]] arch::AppProfile make_profile(const ScalingConfig& config);

}  // namespace vpar::qcd
