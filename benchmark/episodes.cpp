// The episode runner shared by the two solver workloads (qcd_halo, gtc_pic).

#include <cmath>
#include <numeric>

#include "ledger.hpp"

namespace ledger {

void run_episodes(int rank, RankSync& sync, const Config& config,
                  Report& report, const Episode& ep, EpisodeLog& log) {
  using vpar::trace::now_ns;
  ep.reset();
  for (int s = 0; s < ep.warmup; ++s) ep.step();
  sync.rank0(rank, [&] { report.setup_s = since_start_s(config); });
  if (config.setup_only) return;

  auto check = [&] {
    std::string why;
    const bool ok = ep.check(why);
    if (rank == 0) report.check(ok, static_cast<std::uint64_t>(ep.steps), why);
  };

  const double untimed = config.trace ? 0.5 * config.seconds : config.seconds;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(untimed * 1e9);
  for (;;) {
    sync.rank0(rank, [&] { log.stop = now_ns() >= deadline && !log.step_ms.empty(); });
    if (log.stop) break;
    ep.reset();
    double episode_ms = 0.0;
    for (int s = 0; s < ep.steps; ++s) {
      const std::uint64_t t0 = now_ns();
      ep.step();
      const double ms = ms_between(t0, now_ns());
      if (rank == 0) {
        log.step_ms.push_back(ms);
        episode_ms += ms;
      }
    }
    if (rank == 0) {
      log.episode_rate.push_back(1e3 * ep.steps / episode_ms);
      report.attempted += static_cast<std::uint64_t>(ep.steps);
    }
    check();
  }
  if (!config.trace) return;

  sync.rank0(rank, [] {
    vpar::trace::clear_all();
    vpar::trace::set_mode(vpar::trace::Mode::Full);
  });
  vpar::trace::MetricsSnapshot before;
  for (int e = 0; e < ep.traced; ++e) {
    ep.reset();
    sync.rank0(rank, [&] { before = vpar::trace::Metrics::instance().snapshot(); });
    for (int s = 0; s < ep.steps; ++s) {
      const std::uint64_t t0 = now_ns();
      {
        vpar::trace::TraceSpan span("bench.step");
        ep.step();
      }
      if (rank == 0) log.traced_ms.push_back(ms_between(t0, now_ns()));
    }
    sync.rank0(rank, [&] {
      log.counts.add(vpar::trace::Metrics::instance().snapshot().diff(before));
      log.traced_steps += static_cast<std::uint64_t>(ep.steps);
      report.attempted += static_cast<std::uint64_t>(ep.steps);
    });
    check();
  }
  sync.rank0(rank, [] { vpar::trace::set_mode(vpar::trace::Mode::Off); });
}

void emit_solver_end_to_end(Report& report, const EpisodeLog& log) {
  report.set("throughput_per_s", median(log.episode_rate), "1/s");
  report.set("latency_p50_ms", quantile(log.step_ms, 0.50), "ms");
  report.set("latency_p95_ms", block_quantile(log.step_ms, 0.95), "ms");
  report.detail["latency_p99_ms"] = block_quantile(log.step_ms, 0.99);
  report.detail["timed_steps"] = static_cast<double>(log.step_ms.size());
  report.detail["episodes"] = static_cast<double>(log.episode_rate.size());
}

void emit_solver_layers(Report& report, const EpisodeLog& log) {
  const Fold fold = fold_spans(vpar::trace::drain_all(), "bench.step", default_layer);
  vpar::trace::clear_all();
  emit_fold(report, fold);
  emit_counts(report, log.counts, static_cast<double>(log.traced_steps));

  const double untraced = median(log.step_ms);
  if (untraced > 0.0) report.set("trace.overhead", median(log.traced_ms) / untraced, "ratio");

  // The fold charges every span inside a step to exactly one layer, so the
  // layers plus the unattributed rest add up to the folded step by
  // construction. What can go wrong is the fold itself: lost, unclosed or
  // mis-nested spans. So rank 0 must have every traced step as a unit, and
  // the folded sum must match the step time clocked outside the tracer.
  const double sum = report.detail["layer_sum_ms"];
  const double clocked =
      log.traced_ms.empty()
          ? 0.0
          : std::accumulate(log.traced_ms.begin(), log.traced_ms.end(), 0.0) /
                static_cast<double>(log.traced_ms.size());
  report.detail["traced_clock_ms"] = clocked;
  report.attempted += 1;
  report.check(fold.rank0_units() == log.traced_steps && clocked > 0.0 &&
                   std::fabs(sum - clocked) <= 0.05 * clocked,
               1, "folded layer times do not add up to the clocked step time");
}

}  // namespace ledger
