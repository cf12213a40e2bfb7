#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/breaker.hpp"
#include "service/job_server.hpp"
#include "simrt/communicator.hpp"
#include "trace/trace.hpp"

namespace vpar::service {
namespace {

using namespace std::chrono_literals;

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

std::uint64_t counter_of(const trace::MetricsSnapshot& snapshot,
                         const char* name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? std::uint64_t{0} : it->second;
}

/// Small well-behaved SPMD body: a ring exchange plus an allreduce whose
/// result every rank can verify — a corrupted or aborted run cannot pass.
void clean_body(simrt::Communicator& comm) {
  const int P = comm.size();
  const int next = (comm.rank() + 1) % P;
  const int prev = (comm.rank() + P - 1) % P;
  const int sent = comm.rank() * 10;
  int got = -1;
  comm.send<int>(next, std::span<const int>(&sent, 1), 1);
  comm.recv<int>(prev, std::span<int>(&got, 1), 1);
  if (got != prev * 10) throw std::runtime_error("ring value corrupted");
  const int sum = comm.allreduce<int>(1, simrt::ReduceOp::Sum);
  if (sum != P) throw std::runtime_error("allreduce corrupted");
  comm.barrier();
}

JobSpec clean_spec(const std::string& tenant = "default") {
  JobSpec spec;
  spec.app = "ring";
  spec.tenant = tenant;
  spec.size = 2;
  spec.watchdog = 5s;
  spec.retry.max_retries = 0;
  spec.body = clean_body;
  return spec;
}

/// Chaos spec: the plan kills `victim` at its second communication call.
JobSpec killed_spec(const std::string& tenant, int victim,
                    std::uint64_t seed = 1) {
  JobSpec spec = clean_spec(tenant);
  spec.app = "killed";
  spec.seed = seed;
  spec.fault.seed = seed;
  spec.fault.fail_rank = victim;
  spec.fault.fail_at_call = 2;
  spec.retry.max_retries = 0;
  spec.retry.disarm_faults_on_retry = false;
  return spec;
}

// --- admission ---------------------------------------------------------------

TEST(Admission, SingleJobCompletesWithItsOwnAccounting) {
  JobServer server;
  const Admission admission = server.submit(clean_spec());
  ASSERT_TRUE(admission.accepted);
  const JobResult result = admission.ticket.wait();
  EXPECT_EQ(result.outcome, Outcome::Completed);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_GT(result.id, 0u);
  EXPECT_GT(result.total_messages, 0.0);
  EXPECT_GT(result.total_bytes, 0.0);
  EXPECT_EQ(result.faults_injected, 0.0);
  EXPECT_GE(result.latency_ms, result.run_ms);
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(Admission, RejectsBadRequestsWithPreCompletedTickets) {
  JobServer server;
  JobSpec no_body = clean_spec();
  no_body.body = nullptr;
  const Admission a1 = server.submit(std::move(no_body));
  EXPECT_FALSE(a1.accepted);
  EXPECT_EQ(a1.reject, RejectReason::BadRequest);
  EXPECT_TRUE(a1.ticket.done());  // no waiting needed
  EXPECT_EQ(a1.ticket.wait().outcome, Outcome::Rejected);
  EXPECT_TRUE(contains(a1.reason, "no body")) << a1.reason;

  JobSpec huge = clean_spec();
  huge.size = 10'000;
  const Admission a2 = server.submit(std::move(huge));
  EXPECT_FALSE(a2.accepted);
  EXPECT_EQ(a2.reject, RejectReason::BadRequest);
  EXPECT_TRUE(contains(a2.reason, "outside")) << a2.reason;

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.rejected_bad_request, 2u);
  EXPECT_EQ(stats.submitted, 0u);
}

TEST(Admission, QueueFullRejectsWithReasonInsteadOfBuffering) {
  ServerConfig config;
  config.lanes = 1;
  config.queue_capacity = 1;
  JobServer server(config);

  std::atomic<bool> release{false};
  JobSpec blocker = clean_spec();
  blocker.app = "blocker";
  blocker.body = [&release](simrt::Communicator& comm) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
    comm.barrier();
  };
  const Admission running = server.submit(std::move(blocker));
  ASSERT_TRUE(running.accepted);
  // Wait until the lane has actually picked the blocker up, so the queue
  // slot below is deterministically free.
  while (server.stats().busy_lanes == 0) std::this_thread::sleep_for(1ms);

  const Admission queued = server.submit(clean_spec());
  ASSERT_TRUE(queued.accepted);
  const Admission overflow = server.submit(clean_spec());
  EXPECT_FALSE(overflow.accepted);
  EXPECT_EQ(overflow.reject, RejectReason::QueueFull);
  EXPECT_TRUE(contains(overflow.reason, "queue full (1/1)")) << overflow.reason;
  EXPECT_EQ(overflow.ticket.wait().outcome, Outcome::Rejected);

  release.store(true);
  server.drain();
  EXPECT_EQ(running.ticket.wait().outcome, Outcome::Completed);
  EXPECT_EQ(queued.ticket.wait().outcome, Outcome::Completed);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(Admission, RejectsAfterStop) {
  JobServer server;
  server.stop();
  const Admission admission = server.submit(clean_spec());
  EXPECT_FALSE(admission.accepted);
  EXPECT_EQ(admission.reject, RejectReason::ShuttingDown);
  EXPECT_EQ(server.stats().rejected_shutdown, 1u);
}

TEST(Lifecycle, StopFailsQueuedJobsInsteadOfRunningThem) {
  ServerConfig config;
  config.lanes = 1;
  JobServer server(config);

  std::atomic<bool> release{false};
  JobSpec blocker = clean_spec();
  blocker.body = [&release](simrt::Communicator& comm) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
    comm.barrier();
  };
  const Admission running = server.submit(std::move(blocker));
  ASSERT_TRUE(running.accepted);
  while (server.stats().busy_lanes == 0) std::this_thread::sleep_for(1ms);
  const Admission queued = server.submit(clean_spec());
  ASSERT_TRUE(queued.accepted);

  std::thread stopper([&] { server.stop(); });
  std::this_thread::sleep_for(50ms);  // let stop() raise the stopping flag
  release.store(true);
  stopper.join();

  EXPECT_EQ(running.ticket.wait().outcome, Outcome::Completed);
  const JobResult result = queued.ticket.wait();
  EXPECT_EQ(result.outcome, Outcome::Failed);
  EXPECT_EQ(result.error_type, "ServerStopped");
  EXPECT_TRUE(contains(result.error, "before the job ran")) << result.error;
}

TEST(Lifecycle, DrainWaitsForEveryTicket) {
  ServerConfig config;
  config.lanes = 2;
  JobServer server(config);
  std::vector<Admission> admissions;
  for (int i = 0; i < 12; ++i) admissions.push_back(server.submit(clean_spec()));
  server.drain();
  for (const auto& a : admissions) {
    ASSERT_TRUE(a.accepted);
    EXPECT_TRUE(a.ticket.done());
    EXPECT_EQ(a.ticket.wait().outcome, Outcome::Completed);
  }
}

// A lane runs rank 0 of its jobs on its own thread: rank 0's trace events land
// on the lane's timeline, the other ranks' on the lane's pool worker.
TEST(Lifecycle, LaneThreadRunsRankZero) {
  const trace::Mode saved = trace::mode();
  trace::set_mode(trace::Mode::Flight);
  trace::clear_all();
  std::string rank0_track, rank1_track;
  {
    ServerConfig config;
    config.lanes = 1;
    JobServer server(config);
    JobSpec spec = clean_spec();
    spec.body = [](simrt::Communicator& comm) {
      trace::emit_instant(comm.rank() == 0 ? "test.rank0" : "test.rank1");
      clean_body(comm);
    };
    EXPECT_TRUE(server.submit(spec).ticket.wait().completed());
    server.stop();  // the lane has exited: its ring is quiesced
    for (const auto& t : trace::drain_all()) {
      for (const auto& e : t.events) {
        if (std::string_view(e.name) == "test.rank0") rank0_track = t.label;
        if (std::string_view(e.name) == "test.rank1") rank1_track = t.label;
      }
    }
  }
  trace::set_mode(saved);
  trace::clear_all();
  EXPECT_EQ(rank0_track, "svc-lane 0");
  EXPECT_EQ(rank1_track, "worker 1");
}

// --- retry and deadline ------------------------------------------------------

TEST(Retry, TransientFailureIsRetriedThenCompleted) {
  JobServer server;
  std::atomic<int> body_runs{0};
  JobSpec spec = clean_spec();
  spec.retry.max_retries = 2;
  spec.retry.backoff = 1ms;
  spec.body = [&body_runs](simrt::Communicator& comm) {
    if (comm.rank() == 0 && body_runs.fetch_add(1) == 0) {
      throw std::runtime_error("transient");
    }
    comm.barrier();
  };
  const JobResult result = server.submit(std::move(spec)).ticket.wait();
  EXPECT_EQ(result.outcome, Outcome::RetriedThenCompleted);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(server.stats().retried_then_completed, 1u);
}

TEST(Retry, ExhaustedRetriesFailCleanlyWithTheRankError) {
  JobServer server;
  JobSpec spec = clean_spec();
  spec.retry.max_retries = 1;
  spec.retry.backoff = 1ms;
  spec.body = [](simrt::Communicator& comm) {
    if (comm.rank() == 0) throw std::runtime_error("permanent defect");
    comm.barrier();
  };
  const JobResult result = server.submit(std::move(spec)).ticket.wait();
  EXPECT_EQ(result.outcome, Outcome::Failed);
  EXPECT_EQ(result.error_type, "RankError");
  EXPECT_EQ(result.failed_rank, 0);
  EXPECT_EQ(result.attempts, 2);  // first try + one retry
  EXPECT_TRUE(contains(result.error, "permanent defect")) << result.error;
  EXPECT_EQ(server.stats().failed, 1u);
}

TEST(Deadline, ExpiresInQueueWithoutEverRunning) {
  ServerConfig config;
  config.lanes = 1;
  JobServer server(config);
  JobSpec slow = clean_spec();
  slow.app = "slow";
  slow.body = [](simrt::Communicator& comm) {
    std::this_thread::sleep_for(150ms);
    comm.barrier();
  };
  const Admission first = server.submit(std::move(slow));
  ASSERT_TRUE(first.accepted);
  JobSpec hurried = clean_spec();
  hurried.deadline = 30ms;  // expires while the slow job holds the lane
  std::atomic<bool> ran{false};
  hurried.body = [&ran](simrt::Communicator& comm) {
    ran.store(true);
    comm.barrier();
  };
  const JobResult result = server.submit(std::move(hurried)).ticket.wait();
  EXPECT_EQ(result.outcome, Outcome::Failed);
  EXPECT_EQ(result.error_type, "DeadlineExceeded");
  EXPECT_TRUE(contains(result.error, "queued")) << result.error;
  EXPECT_FALSE(ran.load());
  server.drain();
  EXPECT_EQ(server.stats().queue_expired, 1u);
  EXPECT_EQ(first.ticket.wait().outcome, Outcome::Completed);
}

TEST(Deadline, AbortsARunningJobCooperatively) {
  JobServer server;
  JobSpec spec = clean_spec();
  spec.deadline = 80ms;
  spec.retry.max_retries = 3;  // must not be spent: deadline is final
  spec.body = [](simrt::Communicator& comm) {
    int v = 0;
    const int peer = comm.rank() == 0 ? 1 : 0;
    comm.recv<int>(peer, std::span<int>(&v, 1), 9);  // never sent
  };
  const auto start = std::chrono::steady_clock::now();
  const JobResult result = server.submit(std::move(spec)).ticket.wait();
  EXPECT_EQ(result.outcome, Outcome::Failed);
  EXPECT_EQ(result.error_type, "DeadlineExceeded");
  EXPECT_EQ(result.attempts, 1);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

// --- circuit breaker ---------------------------------------------------------

ServerConfig breaker_config(std::chrono::milliseconds cooldown) {
  ServerConfig config;
  config.lanes = 1;
  config.breaker.window = 8;
  config.breaker.min_samples = 4;
  config.breaker.threshold = 0.5;
  config.breaker.cooldown = cooldown;
  config.breaker.probes = 1;
  return config;
}

void fail_enough_to_trip(JobServer& server, const std::string& tenant) {
  for (int i = 0; i < 4; ++i) {
    const Admission a = server.submit(killed_spec(tenant, 0));
    ASSERT_TRUE(a.accepted) << "job " << i << ": " << a.reason;
    EXPECT_EQ(a.ticket.wait().outcome, Outcome::Failed);
  }
}

TEST(Breaker, OpensOnFailureRateAndShedsLoad) {
  JobServer server(breaker_config(10s));
  fail_enough_to_trip(server, "storm");
  EXPECT_EQ(server.breaker_state(), CircuitBreaker::State::Open);
  const Admission shed = server.submit(clean_spec());
  EXPECT_FALSE(shed.accepted);
  EXPECT_EQ(shed.reject, RejectReason::BreakerOpen);
  EXPECT_TRUE(contains(shed.reason, "breaker open")) << shed.reason;
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_breaker, 1u);
  EXPECT_EQ(stats.breaker_opens, 1u);
}

TEST(Breaker, HalfOpenProbeReclosesAfterRecovery) {
  JobServer server(breaker_config(50ms));
  fail_enough_to_trip(server, "storm");
  EXPECT_EQ(server.breaker_state(), CircuitBreaker::State::Open);
  std::this_thread::sleep_for(100ms);  // past the cooldown
  const Admission probe = server.submit(clean_spec());
  ASSERT_TRUE(probe.accepted);  // half-open: one probe admitted
  EXPECT_EQ(probe.ticket.wait().outcome, Outcome::Completed);
  EXPECT_EQ(server.breaker_state(), CircuitBreaker::State::Closed);
  const Admission after = server.submit(clean_spec());
  ASSERT_TRUE(after.accepted);
  EXPECT_EQ(after.ticket.wait().outcome, Outcome::Completed);
}

TEST(Breaker, FailedProbeReopens) {
  JobServer server(breaker_config(50ms));
  fail_enough_to_trip(server, "storm");
  std::this_thread::sleep_for(100ms);
  const Admission probe = server.submit(killed_spec("storm", 0));
  ASSERT_TRUE(probe.accepted);
  EXPECT_EQ(probe.ticket.wait().outcome, Outcome::Failed);
  EXPECT_EQ(server.breaker_state(), CircuitBreaker::State::Open);
  EXPECT_EQ(server.stats().breaker_opens, 2u);
}

// --- tenant isolation under chaos -------------------------------------------

// The headline robustness property: tenant "chaos" runs jobs whose fault
// plans kill ranks and corrupt payloads while tenant "clean" runs verified
// ring/allreduce jobs on the same server. Every clean job must complete on
// its first attempt with pristine per-job accounting; every chaos job must
// fail with *its own* error. Nothing leaks across.
TEST(TenantIsolation, ChaosTenantCannotTouchACleanNeighbor) {
  ServerConfig config;
  config.lanes = 2;
  JobServer server(config);
  constexpr int kJobsPerTenant = 12;

  std::vector<Admission> chaos;
  std::vector<Admission> clean;
  for (int i = 0; i < kJobsPerTenant; ++i) {
    if (i % 2 == 0) {
      chaos.push_back(
          server.submit(killed_spec("chaos", i % 2, 100 + static_cast<std::uint64_t>(i))));
      clean.push_back(server.submit(clean_spec("clean")));
    } else {
      JobSpec corrupt = clean_spec("chaos");
      corrupt.app = "bitflip";
      corrupt.checksums = true;
      corrupt.seed = static_cast<std::uint64_t>(i);
      corrupt.fault.seed = static_cast<std::uint64_t>(i);
      corrupt.fault.bitflip_prob = 1.0;
      corrupt.retry.max_retries = 0;
      corrupt.retry.disarm_faults_on_retry = false;
      clean.push_back(server.submit(clean_spec("clean")));
      chaos.push_back(server.submit(std::move(corrupt)));
    }
  }
  server.drain();

  for (const auto& a : clean) {
    ASSERT_TRUE(a.accepted);
    const JobResult r = a.ticket.wait();
    EXPECT_EQ(r.outcome, Outcome::Completed) << r.error;
    EXPECT_EQ(r.attempts, 1);  // never delayed into a retry by a neighbor
    EXPECT_EQ(r.faults_injected, 0.0);
    EXPECT_EQ(r.checksum_failures, 0.0);
    EXPECT_TRUE(r.error.empty()) << r.error;
  }
  for (const auto& a : chaos) {
    ASSERT_TRUE(a.accepted);
    const JobResult r = a.ticket.wait();
    EXPECT_EQ(r.outcome, Outcome::Failed);
    EXPECT_EQ(r.error_type, "RankError") << r.error;
    // The job's own injected failure, never a neighbor's abort echo.
    EXPECT_TRUE(contains(r.error, "injected") || contains(r.error, "checksum"))
        << r.error;
  }

  const auto clean_scope = server.tenant_snapshot("clean");
  EXPECT_EQ(counter_of(clean_scope, "jobs.completed"),
            static_cast<std::uint64_t>(kJobsPerTenant));
  EXPECT_EQ(counter_of(clean_scope, "jobs.failed"), 0u);
  EXPECT_EQ(counter_of(clean_scope, "faults.injected"), 0u);
  EXPECT_EQ(counter_of(clean_scope, "checksum.failures"), 0u);
  const auto chaos_scope = server.tenant_snapshot("chaos");
  EXPECT_EQ(counter_of(chaos_scope, "jobs.failed"),
            static_cast<std::uint64_t>(kJobsPerTenant));
  EXPECT_EQ(counter_of(chaos_scope, "jobs.completed"), 0u);
}

// Satellite regression: one lane (one pooled Executor) alternating failing
// and clean jobs from different tenants. The executor must stay healthy
// across the failures, and each failing job must report its *own* first
// failing rank — not a peer's JobAborted echo.
TEST(TenantIsolation, ExecutorReusedAcrossFailingTenantsStaysHealthy) {
  ServerConfig config;
  config.lanes = 1;
  JobServer server(config);
  for (int round = 0; round < 4; ++round) {
    const int victim = round % 2;
    const JobResult failed =
        server.submit(killed_spec("tenant-a", victim,
                                  static_cast<std::uint64_t>(round) + 1))
            .ticket.wait();
    EXPECT_EQ(failed.outcome, Outcome::Failed);
    EXPECT_EQ(failed.error_type, "RankError") << failed.error;
    EXPECT_EQ(failed.failed_rank, victim) << failed.error;
    EXPECT_TRUE(contains(failed.error, "injected rank failure")) << failed.error;

    const JobResult ok = server.submit(clean_spec("tenant-b")).ticket.wait();
    EXPECT_EQ(ok.outcome, Outcome::Completed) << ok.error;
    EXPECT_EQ(ok.attempts, 1);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.completed, 4u);
}

// Per-job metrics scopes are populated from the job's own RunResult only:
// even with jobs of very different traffic running concurrently, each
// snapshot reflects exactly its own job.
TEST(TenantIsolation, PerJobMetricScopesDoNotBleed) {
  ServerConfig config;
  config.lanes = 2;
  JobServer server(config);

  JobSpec chatty = clean_spec("loud");
  chatty.size = 4;
  chatty.body = [](simrt::Communicator& comm) {
    for (int i = 0; i < 50; ++i) clean_body(comm);
  };
  JobSpec quiet = clean_spec("quiet");
  quiet.size = 2;
  quiet.body = [](simrt::Communicator& comm) { comm.barrier(); };

  const Admission loud = server.submit(std::move(chatty));
  const Admission small = server.submit(std::move(quiet));
  const JobResult loud_result = loud.ticket.wait();
  const JobResult quiet_result = small.ticket.wait();

  // One histogram sample per rank of the owning job, no neighbor samples.
  const auto& loud_hist = loud_result.metrics.histograms.at("rank.messages");
  const auto& quiet_hist = quiet_result.metrics.histograms.at("rank.messages");
  EXPECT_EQ(loud_hist.count(), 4u);
  EXPECT_EQ(quiet_hist.count(), 2u);
  EXPECT_EQ(counter_of(loud_result.metrics, "comm.messages"),
            static_cast<std::uint64_t>(loud_result.total_messages));
  EXPECT_EQ(counter_of(quiet_result.metrics, "comm.messages"),
            static_cast<std::uint64_t>(quiet_result.total_messages));
  EXPECT_GT(loud_result.total_messages, 10.0 * quiet_result.total_messages);
}

// --- breaker unit behaviour --------------------------------------------------

TEST(BreakerUnit, ThresholdNeedsMinSamples) {
  BreakerConfig config;
  config.window = 8;
  config.min_samples = 4;
  config.threshold = 0.5;
  CircuitBreaker breaker(config);
  breaker.record(false);
  breaker.record(false);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);  // too few samples
  breaker.record(false);
  breaker.record(false);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_FALSE(breaker.allow());
}

TEST(BreakerUnit, ForgottenProbeFreesTheSlot) {
  BreakerConfig config;
  config.window = 4;
  config.min_samples = 2;
  config.threshold = 0.5;
  config.cooldown = std::chrono::milliseconds{1};
  config.probes = 1;
  CircuitBreaker breaker(config);
  breaker.record(false);
  breaker.record(false);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::Open);
  std::this_thread::sleep_for(10ms);
  bool probe = false;
  ASSERT_TRUE(breaker.allow(probe));
  ASSERT_TRUE(probe);
  EXPECT_FALSE(breaker.allow());  // slot taken
  breaker.forget(true);           // probe never ran (queue expiry)
  bool probe2 = false;
  EXPECT_TRUE(breaker.allow(probe2));  // slot free again, no wedge
  EXPECT_TRUE(probe2);
  breaker.record(true, true);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
}

}  // namespace
}  // namespace vpar::service
