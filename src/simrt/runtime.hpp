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
/// far more than many of the jobs themselves, and so does waking a parked
/// thread (a condition-variable round trip is ~15 µs on a shared 4-core
/// VM). The calling thread therefore runs rank 0 itself, like a process
/// that runs its own rank from the start; pooled worker w runs rank w + 1.
/// A 1-rank job wakes no thread, a P-rank job wakes exactly the P - 1
/// workers it needs. The RuntimeState (mailboxes, rendezvous, recorders) is
/// reused across same-size runs.
///
/// Concurrency contract: jobs are serialized — a run() call blocks until the
/// pool is free. The pool grows lazily to the largest size seen minus one.
/// Every worker parks in one place between jobs: the helper wait, which it
/// leaves when a new job needs it as a rank, when a parallel_for it may help
/// has chunks (it is idle for the current job), or on shutdown. A job with a
/// watchdog or deadline armed is watched by the executor's supervisor
/// thread, started by the first such job and parked between them; an
/// unsupervised job starts no thread. An exception escaping any rank is
/// rethrown to the caller after the job drains, and the cached RuntimeState
/// is discarded (in-flight messages of a failed job must not leak into the
/// next one) — the pool itself stays healthy.
class Executor {
 public:
  Executor() = default;
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Run `body` as an SPMD job on `size` ranks — rank 0 on the calling
  /// thread, ranks 1..size-1 on pooled workers — with a perf::Recorder
  /// installed on every rank. The caller's own thread-local context (its
  /// trace rank, recorder and loop-service state) is restored afterwards.
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
  /// seen so far minus one: the caller runs rank 0).
  [[nodiscard]] int workers();

  /// Process-wide shared executor that simrt::run() dispatches to.
  static Executor& shared();

 private:
  friend void parallel_for(std::size_t, std::size_t, std::size_t,
                           const std::function<void(std::size_t, std::size_t)>&);
  friend int parallel_width();

  /// A pooled thread and its parking place; worker w serves rank w + 1.
  struct Worker {
    std::condition_variable wake;  // waits under mutex_
    std::thread thread;
  };

  /// Worker `w`'s only wait: it runs rank w + 1 of every job that large,
  /// serves loop chunks while idle for the current job, and exits on
  /// shutdown.
  void worker_loop(int w, std::uint64_t seen);

  /// Run `rank` of the published job on this thread, with the thread's own
  /// context saved and restored around it, and mark the rank finished.
  void run_rank(RuntimeState& state, int rank,
                const std::function<void(Communicator&)>& body);

  /// The supervisor thread: parks until an armed job is published, then
  /// runs the deadlock watchdog and deadline enforcement for it.
  void supervisor_loop();

  /// Owner side: register `task`, serve chunks alongside any helpers, then
  /// latch until every helper has left the body (watchdog-registered).
  void loop_parallel(RuntimeState& state, int rank, LoopTask& task);

  /// Pool workers idle for a job of `job_size` ranks (under mutex_).
  [[nodiscard]] int idle_helpers(int job_size);

  std::mutex run_mutex_;  // serializes whole run() invocations

  std::mutex mutex_;  // guards everything below
  std::condition_variable cv_done_;  // remaining_ reached 0
  std::vector<std::unique_ptr<Worker>> workers_;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  int job_size_ = 0;
  const std::function<void(Communicator&)>* job_body_ = nullptr;
  RuntimeState* job_state_ = nullptr;
  int remaining_ = 0;  // ranks of the current job still running, rank 0 too
  std::exception_ptr first_error_;

  std::vector<LoopTask*> loop_tasks_;  // in-flight parallel_for tasks

  std::condition_variable cv_supervise_;     // supervisor's parking place
  std::uint64_t supervised_generation_ = 0;  // latest armed job
  std::thread supervisor_;                   // started by the first armed job

  std::unique_ptr<RuntimeState> state_;  // recycled across same-size jobs
};

/// Run `body` as an SPMD job on `size` ranks with a perf::Recorder installed
/// on every rank. Dispatches to the shared pooled Executor; a nested call from
/// inside a rank body (or a helper chunk) runs on a scoped private Executor
/// instead (the pool cannot host a job within a job). Exceptions thrown by
/// any rank are rethrown (first one wins) after all ranks have finished.
///
/// Setting VPAR_WATCHDOG_MS in the environment arms the deadlock watchdog
/// for every job whose options do not arm it explicitly — the chaos-audit
/// switch for whole test-suite runs. A malformed value makes run() throw
/// std::invalid_argument (see detail::watchdog_from_env).
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

namespace detail {
/// Largest VPAR_WATCHDOG_MS accepted: one day. A longer deadlock timeout is
/// a typo, not a watchdog.
inline constexpr std::int64_t kMaxWatchdogMs = 86'400'000;

/// The watchdog a VPAR_WATCHDOG_MS value arms: a whole number of
/// milliseconds in [0, kMaxWatchdogMs], 0 disarming it; null or empty also
/// disarm. Anything else — a non-number, trailing junk such as "5s", a sign,
/// or a value above the cap — throws std::invalid_argument naming the
/// accepted form. The parser behind the default, exposed for tests.
[[nodiscard]] std::chrono::milliseconds watchdog_from_env(const char* value);

/// The HybridMode a VPAR_HYBRID value selects: auto|on|off|1|0; null or
/// empty is Auto. Anything else throws std::invalid_argument naming the
/// accepted values. Read on first use of the hybrid policy, not at static
/// initialization, so the throw reaches a caller.
[[nodiscard]] HybridMode hybrid_mode_from_env(const char* value);
}  // namespace detail

}  // namespace vpar::simrt
