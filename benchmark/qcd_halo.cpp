// qcd_halo: staggered Dslash power iteration on a 16^3 x 32 lattice at
// P = 4 ranks (auto-factored 1x2x1x2, normalize on, in-process transport,
// hybrid mode Auto). The pool holds exactly P workers, so no helpers join:
// this workload isolates halo exchange and message matching, which take
// the largest communication share in the repository. About 1.5 MiB per
// rank stays inside a 2 MiB L2.

#include <cmath>
#include <cstring>

#include "ledger.hpp"
#include "part/halo.hpp"
#include "qcd/lattice.hpp"
#include "qcd/simulation.hpp"
#include "qcd/workload.hpp"
#include "simrt/runtime.hpp"

namespace ledger {

namespace {

using vpar::qcd::Simulation;

constexpr int kRanks = 4;

struct Shape {
  std::size_t nx, ny, nz, nt;
  int steps;    ///< timed steps per episode
  int warmup;
  int traced;   ///< traced episodes
  int ref_steps;
  double ref_link_energy;  ///< pinned: initialize() + ref_steps steps at P=4
};

// Pinned references: Diagnostics::link_energy after `ref_steps` steps from
// the app's own site-coded initialize(), at P = 4. norm2 is pinned to 1
// (normalize is on).
constexpr Shape kFull{16, 16, 16, 32, 64, 128, 4, 16, 0.0093044180961663978};
constexpr Shape kSmoke{8, 8, 8, 8, 16, 2, 2, 8, -0.00097090200918541203};
constexpr double kTolerance = 1e-9;  // relative, on pinned values

vpar::qcd::Options options_for(const Shape& s) {
  vpar::qcd::Options o;
  o.nx = s.nx;
  o.ny = s.ny;
  o.nz = s.nz;
  o.nt = s.nt;
  o.normalize = true;
  return o;
}

/// Seeded start vector: every interior site of both parities gets a value
/// in [-1, 1) in exact steps of 2^-15, a function of the seed and the global
/// site only (so it does not depend on the decomposition). Ghosts stay 0;
/// the first exchange fills them.
Simulation::Checkpoint seeded_input(const Simulation& sim, std::uint64_t seed) {
  Simulation::Checkpoint cp = sim.save_state();
  const auto& g = sim.geom();
  const std::size_t total = g.layout.total();
  for (int parity = 0; parity < 2; ++parity) {
    std::vector<double>& field = parity == 0 ? cp.even : cp.odd;
    std::fill(field.begin(), field.end(), 0.0);
    for (std::size_t p = 0; p < vpar::qcd::kPlanes; ++p) {
      for (std::ptrdiff_t t = 0; t < static_cast<std::ptrdiff_t>(g.n[3]); ++t) {
        for (std::ptrdiff_t z = 0; z < static_cast<std::ptrdiff_t>(g.n[2]); ++z) {
          for (std::ptrdiff_t y = 0; y < static_cast<std::ptrdiff_t>(g.n[1]); ++y) {
            for (std::ptrdiff_t x = 0; x < static_cast<std::ptrdiff_t>(g.n[0]); ++x) {
              std::uint64_t h = mix(seed);
              for (std::int64_t v : {std::int64_t{parity}, g.origin[0] / 2 + x,
                                     g.origin[1] + y, g.origin[2] + z,
                                     g.origin[3] + t, static_cast<std::int64_t>(p)}) {
                h = mix(h ^ static_cast<std::uint64_t>(v));
              }
              field[p * total + g.layout.offset({{x, y, z, t}})] =
                  static_cast<double>(static_cast<std::int64_t>(h >> 48) - 32768) /
                  32768.0;
            }
          }
        }
      }
    }
  }
  return cp;
}

/// Bytes per step that go to the rank itself: periodic axes the rank grid
/// does not split make a rank its own neighbour. Summed over ranks, two
/// exchanges (odd, even) per step.
double self_peer_bytes(const Simulation& sim) {
  const auto& partition = sim.partition();
  double elements = 0.0;
  for (int r = 0; r < partition.size(); ++r) {
    const auto schedule = vpar::part::plan_halo(
        partition, r, vpar::part::HaloSpec<4>{vpar::part::Extent<4>{{1, 1, 1, 1}}, 0});
    for (const auto& phase : schedule.phases) {
      for (const auto& send : phase.sends) {
        if (send.peer == r) elements += static_cast<double>(send.box.volume());
      }
    }
  }
  return 2.0 * elements * vpar::qcd::kPlanes * sizeof(double);
}

}  // namespace

void run_qcd_halo(const Config& config, Report& report) {
  using namespace vpar;
  record_host(report, kRanks);
  const Shape& shape = config.smoke ? kSmoke : kFull;
  const qcd::Options options = options_for(shape);
  {
    const auto dims = Simulation::resolve_dims(options, kRanks);
    report.host["rank_grid"] = std::to_string(dims[0]) + "x" + std::to_string(dims[1]) +
                               "x" + std::to_string(dims[2]) + "x" +
                               std::to_string(dims[3]);
  }

  RankSync sync(kRanks);
  EpisodeLog log;
  double first_link = std::nan("");
  double self_peer = 0.0;
  simrt::run(kRanks, [&](simrt::Communicator& comm) {
    Simulation sim(comm, options);
    const Simulation::Checkpoint input = seeded_input(sim, config.seed);
    if (comm.rank() == 0) self_peer = self_peer_bytes(sim);
    Episode ep;
    ep.steps = shape.steps;
    ep.warmup = shape.warmup;
    ep.traced = shape.traced;
    ep.reset = [&] { sim.restore_state(input); };
    ep.step = [&] { sim.step(); };
    ep.check = [&](std::string& why) {
      const qcd::Diagnostics d = sim.diagnostics();
      if (comm.rank() != 0) return true;
      // Every episode restarts from the same input: the result must repeat
      // bitwise, and normalize keeps |psi|^2 at 1.
      if (std::isnan(first_link)) first_link = d.link_energy;
      const bool ok = close(d.norm2, 1.0, 1e-12) && std::isfinite(d.link_energy) &&
                      d.link_energy == first_link;
      if (!ok) why = "qcd episode: norm2 or link_energy drifted";
      return ok;
    };
    run_episodes(comm.rank(), sync, config, report, ep, log);
  });
  if (config.setup_only) return;

  // Reference check: the app's own initial vector against pinned values.
  const double scale = config.break_reference ? 1.001 : 1.0;
  simrt::run(kRanks, [&](simrt::Communicator& comm) {
    Simulation sim(comm, options);
    sim.initialize();
    sim.run(shape.ref_steps);
    const qcd::Diagnostics d = sim.diagnostics();
    if (comm.rank() != 0) return;
    report.attempted += static_cast<std::uint64_t>(shape.ref_steps);
    report.detail["reference_norm2"] = d.norm2;
    report.detail["reference_link_energy"] = d.link_energy;
    report.check(close(d.norm2, 1.0 * scale, kTolerance) &&
                     close(d.link_energy, shape.ref_link_energy * scale, kTolerance),
                 static_cast<std::uint64_t>(shape.ref_steps),
                 "qcd reference: Diagnostics differ from the pinned values");
  });

  report.set("peak_rss_mib", peak_rss_mib(), "MiB");
  emit_solver_end_to_end(report, log);
  if (!config.trace) return;

  emit_solver_layers(report, log);
  qcd::ScalingConfig sc;
  sc.nx = options.nx;
  sc.ny = options.ny;
  sc.nz = options.nz;
  sc.nt = options.nt;
  sc.procs = kRanks;
  sc.steps = 1;
  const double sites = static_cast<double>(options.nx * options.ny * options.nz * options.nt);
  const double dslash_ms = report.metrics["qcd.dslash_ms"].value;
  report.set("qcd.dslash_gflops",
             dslash_ms > 0.0 ? qcd::baseline_flops(sc) / (dslash_ms * 1e-3) * 1e-9 : 0.0,
             "GFLOP/s");
  report.set("qcd.dslash_bytes", sites * qcd::dslash_bytes_per_site(), "B_computed");
  report.set("part.self_peer_bytes", self_peer, "B");
}

}  // namespace ledger
