// Chaos-storm acceptance bench for the service layer: drive >= 1000 mixed
// jobs (ring exchanges at several sizes, small LBMHD steps, seeded
// fault-plan chaos, poison bodies, hopeless deadlines) through a JobServer
// and assert the robustness invariants the service promises:
//
//   1. Accounting: every submission ends in exactly one of {completed,
//      retried-then-completed, cleanly-failed, rejected-at-admission}, and
//      the four buckets sum to the number of submissions.
//   2. Tenant isolation: every *clean* job (no fault plan, no deadline, no
//      poison) completes on its first attempt with zero injected faults and
//      zero checksum failures in its own accounting — a neighbor's chaos
//      never leaks in.
//
// Violations exit 1. Output is a JSON summary (stdout or [output.json]):
// outcome buckets, retry/breaker counters, and exact p50/p99 latency.
//
// Usage: service_storm [output.json] [--jobs=N] [--lanes=N] [--seed=N]
//                      [--max-load=X]
// --max-load follows scripts/bench.sh: if /proc/loadavg stays above X after
// bounded retries, exit 3 ("host busy" — neutral in CI, not a failure).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lbmhd/simulation.hpp"
#include "service/job_server.hpp"
#include "simrt/communicator.hpp"
#include "simrt/transport.hpp"
#include "trace/metrics.hpp"

namespace {

using namespace std::chrono_literals;
using vpar::service::Admission;
using vpar::service::JobServer;
using vpar::service::JobSpec;
using vpar::service::Outcome;
using vpar::service::RejectReason;
using vpar::service::ServerConfig;

/// Verified ring exchange + allreduce; throws if any value is corrupted.
void ring_body(vpar::simrt::Communicator& comm) {
  const int P = comm.size();
  const int next = (comm.rank() + 1) % P;
  const int prev = (comm.rank() + P - 1) % P;
  for (int round = 0; round < 4; ++round) {
    const int sent = comm.rank() * 1000 + round;
    int got = -1;
    comm.send<int>(next, std::span<const int>(&sent, 1), round);
    comm.recv<int>(prev, std::span<int>(&got, 1), round);
    if (got != prev * 1000 + round) throw std::runtime_error("ring corrupted");
  }
  const int sum = comm.allreduce<int>(1, vpar::simrt::ReduceOp::Sum);
  if (sum != P) throw std::runtime_error("allreduce corrupted");
}

/// A few steps of the real LBMHD application on a tiny grid.
void lbmhd_body(vpar::simrt::Communicator& comm) {
  vpar::lbmhd::Options opts;
  opts.nx = 16;
  opts.ny = 16;
  opts.px = 2;
  opts.py = 2;
  vpar::lbmhd::Simulation sim(comm, opts);
  sim.initialize(vpar::lbmhd::orszag_tang_ic());
  sim.run(2);
}

struct StormCounts {
  std::uint64_t submissions = 0;
  std::uint64_t completed = 0;
  std::uint64_t retried_then_completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_breaker = 0;
  std::uint64_t isolation_violations = 0;
};

/// What the storm expects of one job, checked against its JobResult.
enum class Kind { Clean, TransientFault, HardFault, Poison, Hopeless };

struct TrackedJob {
  Kind kind = Kind::Clean;
  Admission admission;
};

JobSpec make_spec(int i, std::uint64_t seed, Kind& kind_out) {
  JobSpec spec;
  spec.seed = seed + static_cast<std::uint64_t>(i);
  spec.watchdog = 10s;
  spec.retry.max_retries = 2;
  spec.retry.backoff = 1ms;
  spec.retry.max_backoff = 8ms;
  spec.retry.jitter = 1.0;

  // ~5% seeded fault injection (hard kills, bit-flips, drops), plus a thin
  // stream of poison bodies and hopeless deadlines; everything else is a
  // clean tenant's verified workload.
  const int slot = i % 60;
  if (slot == 7 || slot == 37) {  // transient kill: retried-then-completed
    kind_out = Kind::TransientFault;
    spec.tenant = "chaos";
    spec.app = "kill-transient";
    spec.size = 4;
    spec.fault.seed = spec.seed;
    spec.fault.fail_rank = i % 4;
    spec.fault.fail_at_call = 1 + static_cast<std::uint64_t>(i % 3);
    spec.body = ring_body;  // disarm_faults_on_retry (default) heals it
  } else if (slot == 17) {  // hard kill: retries exhausted, cleanly failed
    kind_out = Kind::HardFault;
    spec.tenant = "chaos";
    spec.app = "kill-hard";
    spec.size = 4;
    spec.fault.seed = spec.seed;
    spec.fault.fail_rank = i % 4;
    spec.fault.fail_at_call = 2;
    spec.retry.disarm_faults_on_retry = false;
    spec.body = ring_body;
  } else if (slot == 27) {  // detected corruption: checksums catch bit-flips
    kind_out = Kind::HardFault;
    spec.tenant = "chaos";
    spec.app = "bitflip";
    spec.size = 2;
    spec.checksums = true;
    spec.fault.seed = spec.seed;
    spec.fault.bitflip_prob = 1.0;
    spec.retry.disarm_faults_on_retry = false;
    spec.body = ring_body;
  } else if (slot == 47) {  // poison: application logic error, not the runtime
    kind_out = Kind::Poison;
    spec.tenant = "chaos";
    spec.app = "poison";
    spec.size = 2;
    spec.retry.max_retries = 0;
    spec.body = [](vpar::simrt::Communicator& comm) {
      if (comm.rank() == 0) throw std::logic_error("poison body");
      comm.barrier();
    };
  } else if (slot == 53) {  // hopeless deadline: budget smaller than the job
    kind_out = Kind::Hopeless;
    spec.tenant = "chaos";
    spec.app = "hopeless";
    spec.size = 2;
    spec.deadline = 1ms;
    spec.retry.max_retries = 0;
    spec.body = [](vpar::simrt::Communicator& comm) {
      std::this_thread::sleep_for(20ms);
      comm.barrier();
    };
  } else {  // clean tenant: mixed verified workloads
    kind_out = Kind::Clean;
    spec.tenant = "clean";
    if (slot % 10 == 4) {
      spec.app = "lbmhd";
      spec.size = 4;
      spec.body = lbmhd_body;
    } else {
      spec.app = "ring";
      spec.size = 2 + 2 * (slot % 3);  // 2, 4, 6 ranks
      spec.body = ring_body;
    }
  }
  return spec;
}

int busy_host_guard(double max_load) {
  for (int attempt = 0; attempt <= 3; ++attempt) {
    std::ifstream loadavg("/proc/loadavg");
    double load = 0.0;
    if (!(loadavg >> load) || load <= max_load) return 0;
    if (attempt == 3) {
      std::cerr << "service_storm: load average " << load << " > " << max_load
                << " after bounded retries; refusing to bench a busy host\n";
      return 3;
    }
    std::cerr << "service_storm: load average " << load << " > " << max_load
              << "; waiting 15s (retry " << attempt + 1 << "/3)\n";
    std::this_thread::sleep_for(std::chrono::seconds(15));
  }
  return 0;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 1200;
  int lanes = 3;
  std::uint64_t seed = 20040101;
  double max_load = -1.0;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) {
      jobs = std::stoi(arg.substr(7));
    } else if (arg.rfind("--lanes=", 0) == 0) {
      lanes = std::stoi(arg.substr(8));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(arg.substr(7));
    } else if (arg.rfind("--max-load=", 0) == 0) {
      max_load = std::stod(arg.substr(11));
    } else if (!arg.empty() && arg[0] != '-') {
      out_path = arg;
    } else {
      std::cerr << "service_storm: unknown flag " << arg << "\n";
      return 2;
    }
  }

  if (max_load > 0.0) {
    if (const int rc = busy_host_guard(max_load); rc != 0) return rc;
  }

  const auto metrics_before = vpar::trace::Metrics::instance().snapshot();
  const auto wall_start = std::chrono::steady_clock::now();

  ServerConfig config;
  config.lanes = lanes;
  config.queue_capacity = 32;
  config.max_ranks = 8;
  config.default_watchdog = 10s;
  config.breaker.window = 64;
  config.breaker.min_samples = 16;
  config.breaker.threshold = 0.6;  // the storm's ~10% failure rate must not
                                   // starve the clean tenant
  config.breaker.cooldown = 100ms;
  JobServer server(config);

  StormCounts counts;
  std::vector<TrackedJob> tracked;
  tracked.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    Kind kind = Kind::Clean;
    const JobSpec spec = make_spec(i, seed, kind);
    for (;;) {
      Admission admission = server.submit(spec);
      ++counts.submissions;
      if (admission.accepted) {
        tracked.push_back({kind, std::move(admission)});
        break;
      }
      ++counts.rejected;
      if (admission.reject == RejectReason::QueueFull) {
        ++counts.rejected_queue_full;
      } else if (admission.reject == RejectReason::BreakerOpen) {
        ++counts.rejected_breaker;
      } else {
        std::cerr << "service_storm: unexpected reject: " << admission.reason
                  << "\n";
        return 1;
      }
      // Backpressure: a rejected submission is a terminal outcome for that
      // attempt; pause briefly and resubmit the job as a fresh one.
      std::this_thread::sleep_for(1ms);
    }
  }
  server.drain();

  std::vector<double> latencies;
  latencies.reserve(tracked.size());
  for (const auto& t : tracked) {
    const auto result = t.admission.ticket.wait();
    switch (result.outcome) {
      case Outcome::Completed: ++counts.completed; break;
      case Outcome::RetriedThenCompleted: ++counts.retried_then_completed; break;
      case Outcome::Failed: ++counts.failed; break;
      case Outcome::Rejected: ++counts.rejected; break;  // admitted: impossible
    }
    latencies.push_back(result.latency_ms);
    if (t.kind == Kind::Clean) {
      // The tenant-isolation claim, per job: first-attempt completion with
      // pristine accounting, no matter what chaos ran beside it.
      const bool pristine = result.outcome == Outcome::Completed &&
                            result.attempts == 1 &&
                            result.faults_injected == 0.0 &&
                            result.checksum_failures == 0.0 &&
                            result.error.empty();
      if (!pristine) {
        ++counts.isolation_violations;
        std::cerr << "service_storm: clean job " << result.id << " ("
                  << result.app << ") ended " << to_string(result.outcome)
                  << " attempts=" << result.attempts
                  << " faults=" << result.faults_injected << " error=\""
                  << result.error << "\"\n";
      }
    }
  }
  server.stop();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  const auto metrics_diff =
      vpar::trace::Metrics::instance().snapshot().diff(metrics_before);
  const auto counter = [&](const char* name) {
    const auto it = metrics_diff.counters.find(name);
    return it == metrics_diff.counters.end() ? std::uint64_t{0} : it->second;
  };
  const auto stats = server.stats();

  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);

  // Invariant 1: the four terminal buckets partition the submissions.
  const std::uint64_t accounted = counts.completed +
                                  counts.retried_then_completed +
                                  counts.failed + counts.rejected;
  bool ok = true;
  if (accounted != counts.submissions) {
    std::cerr << "service_storm: ACCOUNTING VIOLATION: " << accounted
              << " terminal outcomes for " << counts.submissions
              << " submissions\n";
    ok = false;
  }
  if (stats.completed != counts.completed ||
      stats.retried_then_completed != counts.retried_then_completed ||
      stats.failed != counts.failed) {
    std::cerr << "service_storm: server stats disagree with ticket outcomes\n";
    ok = false;
  }
  // Invariant 2: zero cross-tenant contamination.
  if (counts.isolation_violations != 0) {
    std::cerr << "service_storm: ISOLATION VIOLATION on "
              << counts.isolation_violations << " clean jobs\n";
    ok = false;
  }
  const auto clean_scope = server.tenant_snapshot("clean");
  const auto scope_counter = [&](const char* name) {
    const auto it = clean_scope.counters.find(name);
    return it == clean_scope.counters.end() ? std::uint64_t{0} : it->second;
  };
  if (scope_counter("faults.injected") != 0 ||
      scope_counter("checksum.failures") != 0 ||
      scope_counter("jobs.failed") != 0) {
    std::cerr << "service_storm: clean tenant scope contaminated\n";
    ok = false;
  }

  std::string json;
  json += "{\n";
  json += std::string("  \"transport\": \"") +
          vpar::simrt::to_string(vpar::simrt::transport_kind_from_env()) +
          "\",\n";
  json += "  \"jobs\": " + std::to_string(jobs) + ",\n";
  json += "  \"lanes\": " + std::to_string(lanes) + ",\n";
  json += "  \"seed\": " + std::to_string(seed) + ",\n";
  json += "  \"submissions\": " + std::to_string(counts.submissions) + ",\n";
  json += "  \"completed\": " + std::to_string(counts.completed) + ",\n";
  json += "  \"retried_then_completed\": " +
          std::to_string(counts.retried_then_completed) + ",\n";
  json += "  \"cleanly_failed\": " + std::to_string(counts.failed) + ",\n";
  json += "  \"rejected\": " + std::to_string(counts.rejected) + ",\n";
  json += "  \"rejected_queue_full\": " +
          std::to_string(counts.rejected_queue_full) + ",\n";
  json += "  \"rejected_breaker\": " +
          std::to_string(counts.rejected_breaker) + ",\n";
  json += "  \"queue_expired\": " + std::to_string(stats.queue_expired) + ",\n";
  json += "  \"retry_attempts\": " + std::to_string(counter("retry.attempts")) +
          ",\n";
  json += "  \"retry_giveups\": " + std::to_string(counter("retry.giveups")) +
          ",\n";
  json += "  \"breaker_opens\": " + std::to_string(stats.breaker_opens) + ",\n";
  json += "  \"isolation_violations\": " +
          std::to_string(counts.isolation_violations) + ",\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", p50);
  json += "  \"p50_ms\": " + std::string(buf) + ",\n";
  std::snprintf(buf, sizeof buf, "%.3f", p99);
  json += "  \"p99_ms\": " + std::string(buf) + ",\n";
  std::snprintf(buf, sizeof buf, "%.4f",
                counts.submissions == 0
                    ? 0.0
                    : static_cast<double>(counts.rejected) /
                          static_cast<double>(counts.submissions));
  json += "  \"reject_rate\": " + std::string(buf) + ",\n";
  std::snprintf(buf, sizeof buf, "%.2f", wall_s);
  json += "  \"wall_s\": " + std::string(buf) + ",\n";
  json += std::string("  \"ok\": ") + (ok ? "true" : "false") + "\n";
  json += "}\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json;
  }
  std::cout << json;
  return ok ? 0 : 1;
}
