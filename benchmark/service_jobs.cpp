// service_jobs: a JobServer with 2 lanes running small, clean, self-verifying
// jobs: a ring exchange plus allreduce at 1 or 2 ranks, or 16x16 LBMHD at 2
// ranks. The seeded mix varies job size, so lanes both reuse and rebuild
// their runtime state. Per-job cost here is admission, executor dispatch
// and tiny-message matching: the same simrt layers the solver workloads use
// with large messages and one long job, so a gain for one use that costs
// the other shows.
//
// Phase A is a closed loop: a fixed number of clients per lane, each waiting
// for its job before submitting the next; it gives throughput. Phase B is an
// open loop: seeded Poisson arrivals at a fixed rate well below phase A's
// capacity; each job is timed from when it was due, so a stall also charges
// the jobs queued behind it, and the generator's own lateness is reported.

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "lbmhd/simulation.hpp"
#include "ledger.hpp"
#include "service/job_server.hpp"

namespace ledger {

namespace {

using vpar::service::JobResult;
using vpar::service::JobServer;
using vpar::service::JobSpec;
using vpar::service::Outcome;

constexpr int kLanes = 2;
constexpr int kRanksPerJob = 2;
constexpr int kClientsPerLane = 2;
/// Phase B arrival rate, jobs/s: under a tenth of phase A's capacity (about
/// 30,000 jobs/s on a 4-core AVX-512 host), so the queue stays short and
/// latency is mostly service time.
constexpr double kArrivalRate = 2000.0;
constexpr int kWarmupJobs = 2000;
constexpr int kTracedJobs = 2000;
constexpr int kSmokeTracedJobs = 100;
constexpr std::size_t kRateBlock = 1000;  ///< jobs per phase A rate sample

/// Bench-side record of one job, written by its rank 0: the body time, the
/// lane that ran it, and whether that lane's Executor rebuilt its runtime
/// state for it (it does when a job's size differs from the previous one's).
struct JobRecord {
  std::atomic<std::uint64_t> body_ns{0};
  std::atomic<int> lane{-1};
  std::atomic<bool> rebuilt{false};
};

/// Rank 0 of every job runs on worker 0 of its lane's private Executor, so
/// per-thread state on that worker follows one lane: its index (assigned on
/// the lane's first job) and the size of the last job it ran.
struct LaneSeen {
  int lane = -1;
  int last_size = 0;
};
thread_local LaneSeen t_lane_seen;

constexpr int kRingRounds = 4;
constexpr int kLbmhdSteps = 2;

/// Ring exchange of one int for kRingRounds rounds plus an allreduce; every
/// received value and the sum are verified, a mismatch fails the job.
/// `bias` shifts the expected sum (nonzero only to prove the check fails).
void ring_body(vpar::simrt::Communicator& comm, int bias) {
  const int P = comm.size();
  const int next = (comm.rank() + 1) % P;
  const int prev = (comm.rank() + P - 1) % P;
  for (int round = 0; round < kRingRounds; ++round) {
    const int sent = comm.rank() * 1000 + round;
    int got = -1;
    comm.send<int>(next, std::span<const int>(&sent, 1), round);
    comm.recv<int>(prev, std::span<int>(&got, 1), round);
    if (got != prev * 1000 + round) throw std::runtime_error("ring value corrupted");
  }
  const int sum = comm.allreduce<int>(comm.rank() + 1, vpar::simrt::ReduceOp::Sum);
  if (sum != P * (P + 1) / 2 + bias) throw std::runtime_error("allreduce sum wrong");
}

/// kLbmhdSteps LBMHD steps on a 16x16 grid split over 2 ranks; mass must be
/// conserved (to `scale` times the initial mass; 1 except to prove the check
/// fails).
void lbmhd_body(vpar::simrt::Communicator& comm, double scale) {
  vpar::lbmhd::Options opts;
  opts.nx = 16;
  opts.ny = 16;
  opts.px = kRanksPerJob;
  opts.py = 1;
  vpar::lbmhd::Simulation sim(comm, opts);
  sim.initialize(vpar::lbmhd::orszag_tang_ic());
  const double before = sim.diagnostics().mass;
  sim.run(kLbmhdSteps);
  const double after = sim.diagnostics().mass;
  if (!close(before * scale, after, 1e-12)) throw std::runtime_error("LBMHD mass not conserved");
}

/// Job `index` of the seeded mix: bench/service_storm's clean-tenant mix
/// (1 job in 10 is LBMHD, the rest are rings split evenly over the ring
/// sizes; rings of 4 rounds of one int; 2 LBMHD steps on 16x16) held to 1 or
/// 2 ranks. So 10% LBMHD at 2 ranks, 45% ring at 1 rank, 45% ring at 2 ranks,
/// and a lane's next job changes size about half the time. `broken` perturbs
/// every job's expected result so its check fails. `lanes_seen` hands out
/// lane indices.
JobSpec make_job(std::uint64_t seed, std::uint64_t index, bool broken,
                 const std::shared_ptr<JobRecord>& record, std::atomic<int>* lanes_seen) {
  const std::uint64_t h = mix(mix(seed) ^ index);
  const int bias = broken ? 1 : 0;
  const double scale = broken ? 1.001 : 1.0;
  JobSpec spec;
  spec.tenant = "bench";
  spec.seed = h;
  spec.retry.max_retries = 0;
  std::function<void(vpar::simrt::Communicator&)> work;
  if (h % 10 == 0) {
    spec.app = "lbmhd2";
    spec.size = kRanksPerJob;
    work = [=](vpar::simrt::Communicator& c) { lbmhd_body(c, scale); };
  } else {
    spec.size = 1 + static_cast<int>((h >> 8) % 2);
    spec.app = spec.size == 1 ? "ring1" : "ring2";
    work = [=](vpar::simrt::Communicator& c) { ring_body(c, bias); };
  }
  spec.body = [work = std::move(work), record, lanes_seen](vpar::simrt::Communicator& comm) {
    if (comm.rank() == 0) {
      LaneSeen& seen = t_lane_seen;
      if (seen.lane < 0) seen.lane = lanes_seen->fetch_add(1);
      record->lane.store(seen.lane);
      record->rebuilt.store(seen.last_size != comm.size());
      seen.last_size = comm.size();
    }
    const std::uint64_t t0 = vpar::trace::now_ns();
    {
      vpar::trace::TraceSpan span("bench.job");
      work(comm);
    }
    if (comm.rank() == 0) record->body_ns.store(vpar::trace::now_ns() - t0);
  };
  return spec;
}

/// Accounting of one phase, shared by its client threads. It holds sums and
/// one timestamp per kRateBlock completions, never a record per job, so the
/// benchmark's own memory does not grow with throughput.
struct Phase {
  std::uint64_t start_ns = 0, end_ns = 0;
  std::uint64_t jobs = 0;
  std::vector<std::uint64_t> block_end_ns;  ///< when every kRateBlock-th job ended
  double queue_ms = 0.0;     ///< sum of JobResult::queue_ms
  double dispatch_ms = 0.0;  ///< sum of run_ms minus the rank-0 body time
  std::array<std::uint64_t, kLanes> lane_jobs{};      ///< jobs each lane ran
  std::array<std::uint64_t, kLanes> lane_rebuilds{};  ///< of those, size changes

  /// Jobs per second over the phase.
  [[nodiscard]] double mean_rate() const {
    return static_cast<double>(jobs) / (static_cast<double>(end_ns - start_ns) * 1e-9);
  }

  /// Completions per second over consecutive blocks of kRateBlock jobs,
  /// median over blocks (steadier than one mean when a neighbour on the host
  /// briefly steals a core).
  [[nodiscard]] double block_rate() const {
    std::vector<double> rates;
    for (std::size_t i = 1; i < block_end_ns.size(); ++i) {
      rates.push_back(static_cast<double>(kRateBlock) /
                      (static_cast<double>(block_end_ns[i] - block_end_ns[i - 1]) * 1e-9));
    }
    return rates.empty() ? mean_rate() : median(rates);
  }

  /// Share of each lane's jobs for which its Executor rebuilt runtime state,
  /// as details named `<prefix>_rebuild_frac_lane<i>`.
  void rebuild_detail(Report& report, const std::string& prefix) const {
    for (int lane = 0; lane < kLanes; ++lane) {
      const auto i = static_cast<std::size_t>(lane);
      report.detail[prefix + "_rebuild_frac_lane" + std::to_string(lane)] =
          lane_jobs[i] > 0 ? static_cast<double>(lane_rebuilds[i]) /
                                 static_cast<double>(lane_jobs[i])
                           : 0.0;
    }
  }
};

class Bench {
 public:
  Bench(const Config& config, Report& report) : config_(config), report_(report) {}

  /// Closed loop: kClientsPerLane clients per lane until `seconds` pass (or
  /// `max_jobs` complete, when nonzero).
  void closed_loop(Phase& phase, double seconds, std::uint64_t max_jobs) {
    phase.start_ns = vpar::trace::now_ns();
    const std::uint64_t deadline = phase.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
    std::atomic<std::uint64_t> issued{0};
    auto client = [&] {
      for (;;) {
        if (max_jobs != 0 ? issued.fetch_add(1) >= max_jobs
                          : vpar::trace::now_ns() >= deadline) {
          return;
        }
        auto record = std::make_shared<JobRecord>();
        JobSpec spec = make_job(config_.seed, next_.fetch_add(1), config_.break_reference, record,
                                &lanes_seen_);
        const JobResult result = submit(std::move(spec)).ticket.wait();
        finish(phase, result, *record);
      }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kLanes * kClientsPerLane; ++c) clients.emplace_back(client);
    for (auto& t : clients) t.join();
    server_.drain();
    phase.end_ns = vpar::trace::now_ns();
  }

  /// Open loop: seeded Poisson arrivals at kArrivalRate for `seconds`.
  /// Appends each job's latency from its due time, and how late the
  /// generator submitted it, in ms. Finished jobs are collected between
  /// arrivals, so only the jobs in flight are held.
  void open_loop(Phase& phase, double seconds, std::vector<double>& latency_ms,
                 std::vector<double>& late_ms) {
    struct Sent {
      std::uint64_t due_ns, sent_ns;
      std::shared_ptr<JobRecord> record;
      vpar::service::JobTicket ticket;
    };
    std::deque<Sent> in_flight;
    auto collect = [&](bool wait) {
      while (!in_flight.empty() && (wait || in_flight.front().ticket.done())) {
        const Sent& s = in_flight.front();
        const JobResult result = s.ticket.wait();
        finish(phase, result, *s.record);
        late_ms.push_back(ms_between(s.due_ns, s.sent_ns));
        latency_ms.push_back(ms_between(s.due_ns, s.sent_ns) + result.latency_ms);
        in_flight.pop_front();
      }
    };
    const auto expected = static_cast<std::size_t>(1.2 * kArrivalRate * seconds);
    latency_ms.reserve(expected);
    late_ms.reserve(expected);
    std::mt19937_64 rng(mix(config_.seed ^ 0xb0b0b0b0ull));
    std::exponential_distribution<double> gap(kArrivalRate);
    phase.start_ns = vpar::trace::now_ns();
    const std::uint64_t end = phase.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
    double due_s = 0.0;
    for (;;) {
      due_s += gap(rng);
      const std::uint64_t due = phase.start_ns + static_cast<std::uint64_t>(due_s * 1e9);
      if (due >= end) break;
      collect(false);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      const std::uint64_t now = vpar::trace::now_ns();
      auto record = std::make_shared<JobRecord>();
      JobSpec spec = make_job(config_.seed, next_.fetch_add(1), config_.break_reference, record,
                                &lanes_seen_);
      in_flight.push_back({due, now, record, submit(std::move(spec)).ticket});
    }
    collect(true);
    server_.drain();
    phase.end_ns = vpar::trace::now_ns();
  }

  [[nodiscard]] std::uint64_t rejects() const { return rejects_; }

 private:
  vpar::service::Admission submit(JobSpec spec) {
    vpar::trace::TraceSpan span("bench.submit");
    return server_.submit(std::move(spec));
  }

  /// Account one finished job: a job that did not complete (failed, or
  /// rejected at admission) counts as failed.
  void finish(Phase& phase, const JobResult& r, const JobRecord& record) {
    const double body_ms = static_cast<double>(record.body_ns.load()) * 1e-6;
    std::lock_guard lock(mutex_);
    if (++phase.jobs % kRateBlock == 0) phase.block_end_ns.push_back(vpar::trace::now_ns());
    phase.queue_ms += r.queue_ms;
    phase.dispatch_ms += r.run_ms - body_ms;
    const int lane = record.lane.load();
    if (lane >= 0 && lane < kLanes) {
      ++phase.lane_jobs[static_cast<std::size_t>(lane)];
      if (record.rebuilt.load()) ++phase.lane_rebuilds[static_cast<std::size_t>(lane)];
    }
    ++report_.attempted;
    if (r.completed()) return;
    ++report_.failed;
    if (r.outcome == Outcome::Rejected) ++rejects_;
    if (report_.failures.size() < 10) {
      report_.failures.push_back("job " + std::to_string(r.id) + " " + r.app + ": " +
                                 vpar::service::to_string(r.outcome) + " " + r.error);
    }
  }

  const Config& config_;
  Report& report_;
  std::atomic<int> lanes_seen_{0};  ///< lane indices handed out; outlives the jobs
  JobServer server_{[] {
    vpar::service::ServerConfig c;
    c.lanes = kLanes;
    // About two seconds of phase B arrivals: a stall of the shared host
    // delays jobs (and shows in the latency) rather than failing them.
    c.queue_capacity = 4096;
    return c;
  }()};
  std::atomic<std::uint64_t> next_{0};
  std::mutex mutex_;  ///< guards report_ and the Phase being filled
  std::uint64_t rejects_ = 0;
};

}  // namespace

void run_service_jobs(const Config& config, Report& report) {
  record_host(report, kRanksPerJob);
  report.host["lanes"] = std::to_string(kLanes);
  Bench bench(config, report);
  {
    Phase warm;
    bench.closed_loop(warm, 0.0, kWarmupJobs);
  }
  report.setup_s = since_start_s(config);
  if (config.setup_only) return;

  if (!config.trace) {
    Phase a, b;
    bench.closed_loop(a, 0.5 * config.seconds, 0);
    std::vector<double> latency, late;
    bench.open_loop(b, 0.5 * config.seconds, latency, late);
    report.set("throughput_per_s", a.block_rate(), "1/s");
    report.set("latency_p50_ms", quantile(latency, 0.50), "ms");
    report.set("latency_p95_ms", block_quantile(latency, 0.95), "ms");
    report.set("peak_rss_mib", peak_rss_mib(), "MiB");
    report.detail["latency_p99_ms"] = block_quantile(latency, 0.99);
    report.detail["phase_a_jobs"] = static_cast<double>(a.jobs);
    report.detail["phase_b_jobs"] = static_cast<double>(b.jobs);
    report.detail["generator_late_p50_ms"] = quantile(late, 0.50);
    report.detail["generator_late_p99_ms"] = quantile(late, 0.99);
    a.rebuild_detail(report, "phase_a");
    b.rebuild_detail(report, "phase_b");
    return;
  }

  // Traced run: an untraced closed loop for the overhead baseline, then a
  // fixed number of traced jobs.
  Phase untraced;
  bench.closed_loop(untraced, 0.5 * config.seconds, 0);
  vpar::trace::clear_all();
  vpar::trace::set_mode(vpar::trace::Mode::Full);
  const auto before = vpar::trace::Metrics::instance().snapshot();
  const std::uint64_t rejects_before = bench.rejects();
  Phase traced;
  bench.closed_loop(traced, 0.0, config.smoke ? kSmokeTracedJobs : kTracedJobs);
  Counts counts;
  counts.add(vpar::trace::Metrics::instance().snapshot().diff(before));
  vpar::trace::set_mode(vpar::trace::Mode::Off);

  const Fold fold = fold_spans(vpar::trace::drain_all(), "bench.job", default_layer);
  vpar::trace::clear_all();
  const double jobs = static_cast<double>(traced.jobs);
  emit_fold(report, fold);
  emit_counts(report, counts, jobs);

  const auto submit = fold.totals.find("bench.submit");
  report.set("service.submit_us",
             submit == fold.totals.end() || submit->second.count == 0
                 ? 0.0
                 : submit->second.total_ns * 1e-3 / static_cast<double>(submit->second.count),
             "us");
  report.set("service.queue_ms", jobs > 0.0 ? traced.queue_ms / jobs : 0.0, "ms");
  report.set("service.rejects", static_cast<double>(bench.rejects() - rejects_before), "count");
  report.set("simrt.dispatch_ms", jobs > 0.0 ? traced.dispatch_ms / jobs : 0.0, "ms");
  report.set("trace.overhead", untraced.mean_rate() / traced.mean_rate(), "ratio");
}

}  // namespace ledger
