// gtc_pic: gyrokinetic PIC on a 64x64 cross-section with 8 planes and 10
// markers per cell (327,680 markers, about 16 MiB, well beyond L2), Hybrid
// deposit, P = 1 rank. Set-up warms the pool to 4 workers so 3 helpers join
// every parallel_for; the Executor grows lazily, so without this the helper
// count would depend on what the process ran before. This workload is bound
// by gather/scatter kernels and loop-level threading; it never calls
// part::exchange_halo and sends almost no messages, so halo and messaging
// changes must read "no change" here.

#include <cmath>

#include "gtc/simulation.hpp"
#include "ledger.hpp"
#include "simrt/runtime.hpp"

namespace ledger {

namespace {

using vpar::gtc::Simulation;

constexpr int kRanks = 1;
constexpr int kPoolWorkers = 4;

struct Shape {
  std::size_t ngx, ngy;
  int planes, per_cell;
  int steps, warmup, traced, ref_steps;
  double ref_field_energy;  ///< pinned: seed 42, ref_steps steps
};

constexpr Shape kFull{64, 64, 8, 10, 16, 2, 2, 4, 86374.0172623197};
constexpr Shape kSmoke{16, 16, 4, 4, 4, 1, 2, 2, 518.66997383461683};
constexpr std::uint64_t kReferenceSeed = 42;
constexpr double kTolerance = 1e-9;  // relative, on pinned values

vpar::gtc::Options options_for(const Shape& s, std::uint64_t seed) {
  vpar::gtc::Options o;
  o.ngx = s.ngx;
  o.ngy = s.ngy;
  o.nplanes = s.planes;
  o.particles_per_cell = s.per_cell;
  o.deposit = vpar::gtc::DepositVariant::Hybrid;
  o.seed = seed;
  return o;
}

std::size_t marker_count(const Shape& s) {
  return s.ngx * s.ngy * static_cast<std::size_t>(s.planes * s.per_cell);
}

}  // namespace

void run_gtc_pic(const Config& config, Report& report) {
  using namespace vpar;
  record_host(report, kRanks);
  const Shape& shape = config.smoke ? kSmoke : kFull;
  const std::size_t markers = marker_count(shape);

  simrt::run(kPoolWorkers, [](simrt::Communicator&) {});
  report.host["pool_workers"] = std::to_string(simrt::Executor::shared().workers());

  RankSync sync(kRanks);
  EpisodeLog log;
  double first_energy = std::nan("");
  simrt::run(kRanks, [&](simrt::Communicator& comm) {
    Simulation sim(comm, options_for(shape, config.seed));
    Episode ep;
    ep.steps = shape.steps;
    ep.warmup = shape.warmup;
    ep.traced = shape.traced;
    ep.reset = [&] { sim.load_particles(); };
    ep.step = [&] { sim.step(); };
    ep.check = [&](std::string& why) {
      const std::size_t count = sim.global_particle_count();
      const double charge = sim.global_particle_charge();
      const double grid_charge = sim.global_grid_charge();
      const double energy = sim.field_energy();
      // Every episode reloads the same seeded markers: field energy must
      // repeat bitwise; the quiet start makes the total charge exactly 0
      // and deposition conserves it on the grid.
      if (std::isnan(first_energy)) first_energy = energy;
      const bool ok = count == markers && charge == 0.0 &&
                      std::fabs(grid_charge) <= 1e-6 && std::isfinite(energy) &&
                      energy == first_energy;
      if (!ok) why = "gtc episode: marker count, charge or field energy drifted";
      return ok;
    };
    run_episodes(comm.rank(), sync, config, report, ep, log);
  });
  if (config.setup_only) return;

  // Reference check: a fixed seed against pinned values.
  const double scale = config.break_reference ? 1.001 : 1.0;
  simrt::run(kRanks, [&](simrt::Communicator& comm) {
    Simulation sim(comm, options_for(shape, kReferenceSeed));
    sim.load_particles();
    sim.run(shape.ref_steps);
    const std::size_t count = sim.global_particle_count();
    const double charge = sim.global_particle_charge();
    const double energy = sim.field_energy();
    report.attempted += static_cast<std::uint64_t>(shape.ref_steps);
    report.detail["reference_field_energy"] = energy;
    report.check(count == markers && charge == 0.0 &&
                     close(energy, shape.ref_field_energy * scale, kTolerance),
                 static_cast<std::uint64_t>(shape.ref_steps),
                 "gtc reference: count, charge or field energy differ from pinned");
  });

  report.set("peak_rss_mib", peak_rss_mib(), "MiB");
  emit_solver_end_to_end(report, log);
  if (config.trace) emit_solver_layers(report, log);
}

}  // namespace ledger
