// QCD strong-scaling probe on the build host: real instrumented runs of
// the staggered Dslash application (not the machine model), P ranks as
// pooled threads over the in-process transport; above the host's core count
// the ranks share cores. Each P gets one untimed warm-up run, then kRuns
// timed runs. For each concurrency it reports the median wall time, the
// site-update rate and the measured communication fraction (sum of
// qcd.exchange span time over sum of stepping-loop time across ranks, a
// CPU-time ratio that is independent of how many cores the host lends the
// pool), each with its min-max over the timed runs, and the per-rank halo
// traffic of one exchange from the planned schedule.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/table.hpp"
#include "qcd/simulation.hpp"
#include "qcd/workload.hpp"
#include "simrt/runtime.hpp"
#include "trace/trace.hpp"

namespace {

constexpr int kRuns = 5;

struct Sample {
  double wall_seconds = 0.0;
  double comm_fraction = 0.0;
};

/// "median (min-max)" of `values`, each formatted by `fmt`.
template <typename Fmt>
std::string median_range(std::vector<double> values, Fmt fmt) {
  std::sort(values.begin(), values.end());
  return fmt(values[values.size() / 2]) + " (" + fmt(values.front()) + "-" +
         fmt(values.back()) + ")";
}

Sample run_once(int procs, const vpar::qcd::Options& options, int steps) {
  using namespace vpar;
  trace::set_mode(trace::Mode::Full);
  trace::clear_all();

  const auto t0 = std::chrono::steady_clock::now();
  simrt::run(procs, [&](simrt::Communicator& comm) {
    qcd::Simulation sim(comm, options);
    sim.initialize();
    trace::TraceSpan span("qcd.rank");
    sim.run(steps);
  });
  const auto t1 = std::chrono::steady_clock::now();

  double exchange_ns = 0.0;
  double rank_ns = 0.0;
  for (const auto& thread : trace::drain_all()) {
    for (const auto& event : thread.events) {
      if (event.kind != trace::EventKind::Span) continue;
      const std::string_view name = event.name;
      if (name == "qcd.exchange") exchange_ns += double(event.dur_ns);
      if (name == "qcd.rank") rank_ns += double(event.dur_ns);
    }
  }
  trace::clear_all();
  trace::set_mode(trace::Mode::Off);

  Sample out;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.comm_fraction = rank_ns > 0.0 ? exchange_ns / rank_ns : 0.0;
  return out;
}

}  // namespace

int main() {
  using namespace vpar;

  qcd::Options options;
  options.nx = 16;
  options.ny = 16;
  options.nz = 16;
  options.nt = 32;
  options.normalize = true;
  const int steps = 24;

  std::cout << "\n== QCD strong scaling, 16^3 x 32 lattice, " << steps
            << " steps (measured on this host, in-process transport; median "
            << "(min-max) of " << kRuns << " runs after a warm-up) ==\n\n";

  core::Table t({"P", "rank grid", "wall (s)", "Msites/s", "comm frac",
                 "halo KiB/rank/exch"});
  const double site_updates =
      double(options.nx * options.ny * options.nz * options.nt) * steps;
  for (int p : {1, 2, 3, 4, 6, 8, 12, 16}) {
    const auto dims = qcd::Simulation::resolve_dims(options, p);
    (void)run_once(p, options, steps);  // warm-up: pool growth, first-touch pages
    std::vector<double> walls, rates, fractions;
    for (int r = 0; r < kRuns; ++r) {
      const auto sample = run_once(p, options, steps);
      walls.push_back(sample.wall_seconds);
      rates.push_back(site_updates / sample.wall_seconds / 1e6);
      fractions.push_back(sample.comm_fraction);
    }

    qcd::ScalingConfig config;
    config.nx = options.nx;
    config.ny = options.ny;
    config.nz = options.nz;
    config.nt = options.nt;
    config.procs = p;
    config.steps = steps;
    const auto halo = qcd::halo_bytes_per_exchange(config);
    double halo_bytes = 0.0;
    for (double b : halo) halo_bytes += b;

    char grid[32];
    std::snprintf(grid, sizeof(grid), "%dx%dx%dx%d", dims[0], dims[1], dims[2],
                  dims[3]);
    t.add_row({std::to_string(p), grid,
               median_range(walls, [](double v) { return core::fmt_fixed(v, 3); }),
               median_range(rates, [](double v) { return core::fmt_fixed(v, 1); }),
               median_range(fractions, core::fmt_pct),
               core::fmt_fixed(halo_bytes / 1024.0, 1)});
  }
  t.print(std::cout);
  std::cout << "\n(comm frac = qcd.exchange trace-span time / stepping-loop "
               "time, summed over ranks;\n halo column = planned per-rank "
               "send bytes of one halo exchange, all four axes.)\n";
  return 0;
}
