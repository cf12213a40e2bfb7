#pragma once

// Shared pieces of the repository benchmark (see README.md in this
// directory): run configuration, the per-run report, output checks, the
// span fold that turns drained trace rings into per-layer self times, and
// the three workload runners.

#include <barrier>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace ledger {

/// SplitMix64 finaliser: seeded inputs and job mixes are hashes of the seed.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

/// One benchmark process: which workload, its input seed, how long to
/// measure, and whether this is the traced (per-layer) run.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small problem sizes for the benchmark's own tests.
  bool smoke = false;
  /// Stop at the first timed step and report only the set-up time.
  bool setup_only = false;
  /// Scale every pinned reference value so the reference check must fail
  /// (exercises the failure accounting in tests).
  bool break_reference = false;
  /// Spawn time of this process on the steady clock (CLOCK_MONOTONIC ns),
  /// passed by the launcher so set-up time covers exec and loading; 0 means
  /// "measure from main()".
  std::uint64_t t0_ns = 0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one process measured. `attempted` counts units of work
/// (timed steps or jobs); `failed` counts those whose output check failed,
/// with one line per failed check in `failures`.
struct Report {
  std::string workload;
  double setup_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> host;
  std::map<std::string, double> detail;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record one output check covering `units` units of work.
  void check(bool ok, std::uint64_t units, const std::string& what);
};

void write_json(std::ostream& out, const Report& report);

// --- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Quantile q (< 1) of each block of consecutive samples, median over the
/// blocks: a high percentile that one stall on a shared host cannot move.
/// Blocks are as small as leaves at least 10 samples beyond q in each; below
/// that size the plain quantile of all samples.
[[nodiscard]] double block_quantile(const std::vector<double>& values, double q);

/// Relative agreement |a - b| <= tol * max(|a|, |b|).
[[nodiscard]] bool close(double a, double b, double tol);

// --- clocks -----------------------------------------------------------------

[[nodiscard]] inline double ms_between(std::uint64_t a_ns, std::uint64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-6;
}

/// Seconds since the process was spawned (Config::t0_ns).
[[nodiscard]] double since_start_s(const Config& config);

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();

/// Host facts the C++ side can see: SIMD ISA and width, transport, hybrid
/// policy as resolved for a job of `ranks` ranks, hardware threads, L2 and
/// L3 sizes.
void record_host(Report& report, int ranks);

// --- span fold ----------------------------------------------------------------

/// Layer a span name is charged to. Returns nullptr for a span that is
/// transparent (its time stays with the enclosing layer, e.g. loop.chunk).
using LayerOf = std::function<const char*(std::string_view)>;

/// Per-layer self time of the drained trace rings, restricted to spans that
/// lie inside a "unit" span (one solver step or one job body) on a rank
/// thread. The unit span's own self time is charged to "unattributed".
struct Fold {
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;  ///< inclusive duration
  };
  /// rank -> layer -> self ns inside units
  std::map<int, std::map<std::string, double>> layer_ns;
  /// rank -> summed unit wall ns and unit count
  std::map<int, double> unit_ns;
  std::map<int, std::uint64_t> units;
  /// loop.chunk time on rank threads inside units (the owner's share).
  std::map<int, double> owner_chunk_ns;
  /// loop.help spans on helper threads whose owner was inside a unit.
  double help_ns = 0.0;
  std::uint64_t help_chunks = 0;
  /// Every span name anywhere, inclusive.
  std::map<std::string, Totals> totals;

  /// Mean over ranks of (rank's layer self ns / rank's units), in ms.
  [[nodiscard]] double per_unit_ms(const std::string& layer) const;
  /// Mean over ranks of the unit wall time, in ms.
  [[nodiscard]] double unit_wall_ms() const;
  /// Mean over ranks of per-unit owner chunk time, in ms.
  [[nodiscard]] double owner_chunk_ms() const;
  /// Sum over units of all ranks; the number of units rank 0 ran.
  [[nodiscard]] std::uint64_t rank0_units() const;
};

[[nodiscard]] Fold fold_spans(const std::vector<vpar::trace::ThreadTrace>& threads,
                              std::string_view unit_span, const LayerOf& layer_of);

/// The layer map shared by the workloads: span names the program records
/// -> per-layer metric stems.
[[nodiscard]] const char* default_layer(std::string_view name);

/// Counter and histogram deltas of one traced region.
struct Counts {
  vpar::trace::MetricsSnapshot delta;
  [[nodiscard]] double counter(const std::string& name) const;
  [[nodiscard]] double hist_count(const std::string& name) const;
  [[nodiscard]] double hist_sum(const std::string& name) const;
  void add(const vpar::trace::MetricsSnapshot& d);
};

/// Emit the counter-derived per-layer metrics (part.*, comm.messages/bytes,
/// arena.*, loop.helper_chunks, simd.*) normalised per unit of work.
void emit_counts(Report& report, const Counts& counts, double units);

/// Emit the span-derived per-layer metrics shared by every workload, plus
/// step.wall_ms and step.unattributed_ms, from a fold normalised per unit;
/// their sum goes to detail["layer_sum_ms"].
void emit_fold(Report& report, const Fold& fold);

/// Every per-layer metric name with its unit, in output order. Workloads
/// start from all zeros so a layer a workload never enters reads 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& layer_metrics();

// --- solver episodes ------------------------------------------------------------

/// A solver workload as the shared episode runner sees it. Every hook runs on
/// every rank. An episode restores the seeded input (untimed), runs `steps`
/// timed steps and then the collective output check (untimed). Restarting
/// from the same input keeps the work per step the same however many
/// episodes a run fits, so a faster program is not measured on a later,
/// different physical state.
struct Episode {
  int steps = 1;   ///< timed steps per episode
  int warmup = 1;  ///< untimed steps before the first timed one
  int traced = 1;  ///< episodes in the traced segment (fixed: counts repeat)
  std::function<void()> reset;
  std::function<void()> step;
  /// Collective check after an episode; returns false and sets `why` on a
  /// mismatch (rank 0's verdict is the one recorded).
  std::function<bool(std::string& why)> check;
};

/// State the ranks of one episode run share; rank 0 alone writes it.
struct EpisodeLog {
  std::vector<double> step_ms;       ///< untraced rank-0 step times
  std::vector<double> episode_rate;  ///< untraced steps/s of each episode
  std::vector<double> traced_ms;     ///< traced rank-0 step times
  Counts counts;                     ///< registry deltas over traced steps
  std::uint64_t traced_steps = 0;
  bool stop = false;                 ///< rank 0's verdict: untraced time is up
};

/// Barrier over the ranks of one job that lets rank 0 act while every other
/// rank is parked (and so emits no trace events and moves no counters).
/// A plain thread barrier, not a Communicator one, so it adds no messages.
class RankSync {
 public:
  explicit RankSync(int ranks) : barrier_(ranks) {}
  /// Everyone waits, rank 0 runs `fn`, everyone waits again.
  void rank0(int rank, const std::function<void()>& fn) {
    barrier_.arrive_and_wait();
    if (rank == 0) fn();
    barrier_.arrive_and_wait();
  }

 private:
  std::barrier<> barrier_;
};

/// Drive `episode` on this rank: warm-up, set-up mark, a time-bounded
/// untraced segment (all of --seconds, or half of it in a traced run) and,
/// in a traced run, a fixed number of traced episodes with every step inside
/// a "bench.step" span. `sync` spans all ranks of the job.
void run_episodes(int rank, RankSync& sync, const Config& config,
                  Report& report, const Episode& episode, EpisodeLog& log);

/// Fill the end-to-end metrics of a solver workload from its episode log.
void emit_solver_end_to_end(Report& report, const EpisodeLog& log);

/// Fill the span/counter per-layer metrics and trace.overhead of a solver
/// workload's traced segment; checks that the folded layers add up to the
/// externally clocked rank-0 step time.
void emit_solver_layers(Report& report, const EpisodeLog& log);

// --- workloads ----------------------------------------------------------------

void run_qcd_halo(const Config& config, Report& report);
void run_gtc_pic(const Config& config, Report& report);
void run_service_jobs(const Config& config, Report& report);

/// Resolve a workload name to its runner (nullptr if unknown).
using Runner = void (*)(const Config&, Report&);
[[nodiscard]] Runner find_workload(std::string_view name);

}  // namespace ledger
