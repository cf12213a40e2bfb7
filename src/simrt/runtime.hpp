#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "perf/recorder.hpp"
#include "simrt/communicator.hpp"
#include "simrt/fault.hpp"
#include "simrt/parallel.hpp"

namespace vpar::simrt {

/// One in-flight parallel_for: the chunk server (owner + helpers claim
/// grain-sized chunks) and the completion latch. Defined in runtime.cpp;
/// lives on the owning rank's stack for the duration of the loop.
struct LoopTask;

/// Result of one simulated parallel job: instrumentation merged across ranks
/// plus the per-rank profiles (needed for load-imbalance analysis).
struct RunResult {
  perf::Recorder merged;
  std::vector<perf::Recorder> per_rank;

  [[nodiscard]] int size() const { return static_cast<int>(per_rank.size()); }
};

/// Persistent rank-team thread pool executing SPMD jobs.
///
/// The harness calls run() hundreds of times (tests, paper-table benches,
/// workload synthesizers); spawning and joining P OS threads per call costs
/// far more than many of the jobs themselves. The executor keeps one worker
/// per rank parked on a condition variable between jobs and reuses the
/// RuntimeState (mailboxes, rendezvous, recorders) across same-size runs, so
/// a warmed-up run() is a wakeup + a job, not P thread creations plus state
/// construction.
///
/// Concurrency contract: jobs are serialized — a run() call blocks until the
/// pool is free. Worker threads are lazily grown to the largest size seen;
/// workers whose rank is beyond the current job's size sleep through it. An
/// exception escaping any rank is rethrown to the caller after the job
/// drains, and the cached RuntimeState is discarded (in-flight messages of a
/// failed job must not leak into the next one) — the pool itself stays
/// healthy.
class Executor {
 public:
  Executor() = default;
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Run `body` as an SPMD job on `size` ranks, one pooled worker per rank,
  /// with a perf::Recorder installed on every rank.
  RunResult run(int size, const std::function<void(Communicator&)>& body);

  /// As above, with per-job robustness options: a seeded fault-injection
  /// plan, per-message checksums, and the deadlock watchdog. When the
  /// watchdog is armed and every unfinished rank sits in a blocking wait
  /// with no progress for longer than the timeout, the job is cooperatively
  /// aborted and a WatchdogTimeout carrying the per-rank blocked-state
  /// report is rethrown here. A rank failure is rethrown as a RankError
  /// naming the failing rank and its last communication call site; its
  /// peers are woken out of their blocking waits (JobAborted) instead of
  /// deadlocking, and the pool stays healthy for the next job.
  RunResult run(const RunOptions& options,
                const std::function<void(Communicator&)>& body);

  /// Worker threads currently owned by the pool (== the largest job size
  /// seen so far).
  [[nodiscard]] int workers();

  /// Process-wide shared executor that simrt::run() dispatches to.
  static Executor& shared();

 private:
  friend void parallel_for(std::size_t, std::size_t, std::size_t,
                           const std::function<void(std::size_t, std::size_t)>&);
  friend int parallel_width();

  void worker_loop(int rank, std::uint64_t seen);

  /// Caller-thread wait for job completion; when the job's watchdog is
  /// armed, doubles as the deadlock scanner (no extra thread).
  void wait_for_job(std::unique_lock<std::mutex>& lock);

  /// Idle-worker side of the hybrid loop layer: a worker whose rank is
  /// beyond the current job's size parks here and steals parallel_for
  /// chunks from active ranks until the next job (or shutdown).
  void help_loops(int helper, std::uint64_t seen);

  /// Owner side: register `task`, serve chunks alongside any helpers, then
  /// latch until every helper has left the body (watchdog-registered).
  void loop_parallel(RuntimeState& state, int rank, LoopTask& task);

  /// Pool workers idle for a job of `job_size` ranks (under mutex_).
  [[nodiscard]] int idle_helpers(int job_size);

  std::mutex run_mutex_;  // serializes whole run() invocations

  std::mutex mutex_;  // guards everything below
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  int job_size_ = 0;
  const std::function<void(Communicator&)>* job_body_ = nullptr;
  RuntimeState* job_state_ = nullptr;
  int remaining_ = 0;
  std::exception_ptr first_error_;

  std::condition_variable cv_loop_;     // wakes idle helpers for loop chunks
  std::vector<LoopTask*> loop_tasks_;   // in-flight parallel_for tasks

  std::unique_ptr<RuntimeState> state_;  // recycled across same-size jobs
};

/// Run `body` as an SPMD job on `size` ranks with a perf::Recorder installed
/// on every rank. Dispatches to the shared pooled Executor; a nested call from
/// inside a worker runs on a scoped private Executor instead (the pool cannot
/// host a job within a job). Exceptions thrown by any rank are rethrown
/// (first one wins) after all ranks have finished.
///
/// Setting VPAR_WATCHDOG_MS in the environment arms the deadlock watchdog
/// for every job whose options do not arm it explicitly — the chaos-audit
/// switch for whole test-suite runs.
RunResult run(int size, const std::function<void(Communicator&)>& body);

/// Options-carrying variant (fault injection, checksums, watchdog); see
/// Executor::run(const RunOptions&, ...). Nested runs honour the same
/// options.
RunResult run(const RunOptions& options,
              const std::function<void(Communicator&)>& body);

/// Harness-level recovery policy for run_with_retry.
struct RetryPolicy {
  /// Additional attempts after the first failure.
  int max_retries = 2;
  /// Sleep before the first retry; multiplied by backoff_factor after each.
  std::chrono::milliseconds backoff{10};
  double backoff_factor = 2.0;
  /// Ceiling on the exponential growth — without it a long retry chain
  /// sleeps for minutes. 0 disables the cap.
  std::chrono::milliseconds max_backoff{10'000};
  /// Fraction of each pause randomized away, in [0, 1]: the slept pause is
  /// uniform in [(1 - jitter) * b, b] where b is the capped exponential
  /// backoff (jitter = 1 is "full jitter"). De-synchronizes retry herds —
  /// concurrent jobs that failed together must not all retry together.
  double jitter = 0.0;
  /// Seeds the deterministic jitter stream (splitmix64 of seed and attempt),
  /// so a seeded chaos run replays its exact pauses.
  std::uint64_t jitter_seed = 0;
  /// Strip the fault plan from the options on retry — the model for "the
  /// transient fault does not recur on the restarted run".
  bool disarm_faults_on_retry = true;
};

/// The pause run_with_retry sleeps before retry `attempt` (0-based failure
/// index): capped exponential backoff with deterministic seeded jitter.
/// Exposed for tests and for callers that schedule their own retries.
[[nodiscard]] std::chrono::milliseconds retry_backoff(const RetryPolicy& policy,
                                                      int attempt);

struct RetryResult {
  RunResult result;
  /// Total run() attempts made (1 == first try succeeded).
  int attempts = 1;
};

/// Run with bounded retries and capped, jittered exponential backoff: on any
/// failure the job is rerun (after retry_backoff) up to policy.max_retries
/// more times; the last failure is rethrown if all attempts fail. Combined
/// with application-level save_state/restore_state checkpoints, this is the
/// restart half of the checkpoint/restart story — the body decides whether
/// to start clean or restore from its last checkpoint.
///
/// Deadline interaction: a DeadlineExceeded failure is never retried, and no
/// retry is attempted whose backoff pause would sleep past an armed
/// options.deadline — an expired budget cannot be bought back by rerunning.
///
/// Metrics: every run() attempt made here bumps the registry counter
/// `retry.attempts`; a job whose retries are exhausted (or whose deadline
/// cuts the chain short) bumps `retry.giveups` as its failure is rethrown.
RetryResult run_with_retry(RunOptions options,
                           const std::function<void(Communicator&)>& body,
                           const RetryPolicy& policy = {});

/// As above, but every attempt runs on `executor` instead of the shared
/// pool. The service layer's lanes each own a pooled Executor so concurrent
/// jobs retry independently without serializing on Executor::shared().
RetryResult run_with_retry(Executor& executor, RunOptions options,
                           const std::function<void(Communicator&)>& body,
                           const RetryPolicy& policy = {});

}  // namespace vpar::simrt
