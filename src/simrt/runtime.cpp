#include "simrt/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "simrt/distributed.hpp"
#include "trace/chrome_export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace vpar::simrt {

/// Chunk server + completion latch of one parallel_for. The owner registers
/// it in Executor::loop_tasks_, everyone (owner + idle helpers) claims
/// grain-aligned chunks under `m`, and the owner latches on `cv` until
/// in_flight helpers have drained. Lock order is Executor::mutex_ -> m,
/// never the reverse.
struct LoopTask {
  std::mutex m;
  std::condition_variable cv;         // owner's completion latch
  std::size_t next = 0;               // first unclaimed iteration
  std::size_t end = 0;
  std::size_t grain = 1;
  int owner = -1;                     // issuing rank (trace attribution)
  int in_flight = 0;                  // helpers currently inside the body
  std::exception_ptr error;           // first chunk failure (wins)
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::map<int, perf::Recorder> partials;  // helper pool rank -> records
};

namespace detail {

std::chrono::milliseconds watchdog_from_env(const char* value) {
  if (value == nullptr || *value == '\0') return std::chrono::milliseconds(0);
  const char* end = value + std::strlen(value);
  std::uint64_t ms = 0;
  const auto [ptr, ec] = std::from_chars(value, end, ms);
  if (ec != std::errc() || ptr != end ||
      ms > static_cast<std::uint64_t>(kMaxWatchdogMs)) {
    throw std::invalid_argument(
        "VPAR_WATCHDOG_MS='" + std::string(value) +
        "' is not a watchdog timeout: expected a whole number of milliseconds "
        "in [0, " + std::to_string(kMaxWatchdogMs) + "] (0 disarms)");
  }
  return std::chrono::milliseconds(static_cast<std::int64_t>(ms));
}

HybridMode hybrid_mode_from_env(const char* value) {
  if (value == nullptr || *value == '\0') return HybridMode::Auto;
  const std::string v(value);
  if (v == "auto") return HybridMode::Auto;
  if (v == "on" || v == "1") return HybridMode::On;
  if (v == "off" || v == "0") return HybridMode::Off;
  throw std::invalid_argument(
      "VPAR_HYBRID='" + v + "' is not a hybrid mode: expected auto|on|off|1|0");
}

}  // namespace detail

namespace {

/// True while this thread runs a rank body or a helper chunk (always on pool
/// workers): a nested run() from inside a job must not try to borrow the
/// pool it is running on.
thread_local bool t_in_worker = false;

/// Loop-service context of the rank body executing on this thread: set
/// around the body by RankScope so parallel_for can find the job's control
/// block, the owning rank, and the Executor whose idle workers may help.
/// Null on helpers and outside the runtime — parallel_for degrades to serial
/// there.
thread_local Executor* t_loop_executor = nullptr;
thread_local RuntimeState* t_loop_state = nullptr;
thread_local int t_loop_rank = -1;

/// True while this thread executes a parallel_for body chunk (owner or
/// helper): a nested parallel_for inside a chunk must run serial rather than
/// re-enter the chunk server.
thread_local bool t_in_loop_chunk = false;

/// Process-wide hybrid engagement policy (see simrt/parallel.hpp); the
/// VPAR_HYBRID environment variable seeds it on first use,
/// set_hybrid_threading overrides. Relaxed atomic: policy flips are
/// test/bench-scoped, not synchronization points.
std::atomic<HybridMode>& hybrid_mode() {
  static std::atomic<HybridMode> mode{
      detail::hybrid_mode_from_env(std::getenv("VPAR_HYBRID"))};
  return mode;
}

/// Should a parallel_for issued by a rank of a `job_size`-rank job try to
/// engage idle helpers? (The idle-helper count is checked separately.)
bool hybrid_policy_engages(int job_size) {
  switch (hybrid_mode().load(std::memory_order_relaxed)) {
    case HybridMode::On: return true;
    case HybridMode::Off: return false;
    case HybridMode::Auto:
      // Helpers only pay off when the host has spare cores beyond the
      // active ranks; otherwise they just contend with the team.
      return host_cores() > static_cast<unsigned>(job_size);
  }
  return false;
}

/// The thread-local context of one rank body, installed on entry and the
/// previous one restored on exit: the caller that runs rank 0 (a service
/// lane between jobs, a rank of an enclosing job running a nested one, a
/// helper chunk) gets its own loop-service state and trace rank back.
class RankScope {
 public:
  RankScope(Executor* executor, RuntimeState& state, int rank)
      : in_worker_(t_in_worker),
        executor_(t_loop_executor),
        state_(t_loop_state),
        rank_(t_loop_rank),
        in_chunk_(t_in_loop_chunk),
        trace_rank_(trace::thread_rank()) {
    t_in_worker = true;
    t_loop_executor = executor;
    t_loop_state = &state;
    t_loop_rank = rank;
    t_in_loop_chunk = false;
    trace::set_thread_rank(rank);
  }
  ~RankScope() {
    t_in_worker = in_worker_;
    t_loop_executor = executor_;
    t_loop_state = state_;
    t_loop_rank = rank_;
    t_in_loop_chunk = in_chunk_;
    trace::set_thread_rank(trace_rank_);
  }
  RankScope(const RankScope&) = delete;
  RankScope& operator=(const RankScope&) = delete;

 private:
  bool in_worker_;
  Executor* executor_;
  RuntimeState* state_;
  int rank_;
  bool in_chunk_;
  int trace_rank_;
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64 finalizer (same family the fault injector uses): cheap,
/// well-mixed, deterministic — drives the seeded retry jitter.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Environment-armed default watchdog (VPAR_WATCHDOG_MS): applied to every
/// job whose options do not arm one explicitly. Read once per process; a
/// malformed value throws from every run() until it is fixed.
std::chrono::milliseconds env_watchdog() {
  static const std::chrono::milliseconds value =
      detail::watchdog_from_env(std::getenv("VPAR_WATCHDOG_MS"));
  return value;
}

RunOptions with_defaults(RunOptions options) {
  if (options.watchdog.count() <= 0) options.watchdog = env_watchdog();
  return options;
}

/// Between-scan state of the deadlock detector: the last sampled per-rank
/// seq counters. A deadlock verdict requires the counters to be stable
/// across two scans (one wait chunk apart) so a rank caught between a
/// notify and its wake-up is never misread as stuck.
struct WatchdogMemory {
  std::vector<std::uint64_t> seqs;
  bool primed = false;
};

/// One deadlock scan over the job's blocked-state registry. Returns the
/// full per-rank report if the job is deadlocked (every unfinished rank
/// blocked, no progress across two scans, newest block older than the
/// timeout), else an empty string.
std::string deadlock_report(RuntimeState& state, WatchdogMemory& memory,
                            std::chrono::nanoseconds timeout,
                            std::uint64_t generation) {
  const int P = state.size;
  std::vector<std::uint64_t> seqs(static_cast<std::size_t>(P));
  bool any_blocked = false;
  std::uint64_t newest = 0;
  for (int r = 0; r < P; ++r) {
    const auto& s = state.control.status(r);
    seqs[static_cast<std::size_t>(r)] = s.seq.load(std::memory_order_acquire);
    if (s.finished.load(std::memory_order_acquire)) continue;
    if (s.blocked.load(std::memory_order_acquire) == 0) {
      memory.primed = false;  // someone is running: the job is alive
      return {};
    }
    any_blocked = true;
    newest = std::max(newest, s.since_ns.load(std::memory_order_relaxed));
  }
  if (!any_blocked) return {};  // everyone finished; the job is draining
  if (!memory.primed || memory.seqs != seqs) {
    memory.seqs = std::move(seqs);
    memory.primed = true;
    return {};
  }
  const std::uint64_t now = now_ns();
  if (now - newest < static_cast<std::uint64_t>(timeout.count())) return {};

  auto ms_since = [now](std::uint64_t since) {
    return std::to_string((now - since) / 1'000'000);
  };
  std::string report = "deadlock watchdog: no progress for " +
                       std::to_string(timeout.count() / 1'000'000) +
                       " ms (P=" + std::to_string(P) + ", job generation " +
                       std::to_string(generation) + ")";
  for (int r = 0; r < P; ++r) {
    const auto& s = state.control.status(r);
    report += "\n  rank " + std::to_string(r) + ": ";
    if (s.finished.load(std::memory_order_acquire)) {
      report += "finished";
      continue;
    }
    const auto kind =
        static_cast<BlockKind>(s.blocked.load(std::memory_order_acquire));
    const char* what = s.what.load(std::memory_order_relaxed);
    report += "blocked in ";
    report += (what != nullptr) ? what : "unknown wait";
    if (kind == BlockKind::Recv || kind == BlockKind::RequestWait) {
      report += " (source " + std::to_string(s.source.load(std::memory_order_relaxed)) +
                ", tag " + std::to_string(s.tag.load(std::memory_order_relaxed)) + ")";
    }
    report += " for " + ms_since(s.since_ns.load(std::memory_order_relaxed)) + " ms";
    const char* op = s.last_op.load(std::memory_order_relaxed);
    if (op != nullptr) {
      report += "; comm call #" +
                std::to_string(s.calls.load(std::memory_order_relaxed)) + " (" +
                op + ")";
    }
    const auto stats = state.mailboxes[static_cast<std::size_t>(r)].stats();
    report += "; mailbox: " + std::to_string(stats.queued) + " queued, " +
              std::to_string(stats.pending) + " pending recv";
  }
  return report;
}

/// Chunked wait quantum for the watchdog scanner: responsive for short
/// timeouts without spinning, cheap for long ones.
std::chrono::nanoseconds watchdog_chunk(std::chrono::nanoseconds timeout) {
  return std::chrono::nanoseconds(std::clamp<std::int64_t>(
      timeout.count() / 4, 5'000'000, 200'000'000));
}

/// Supervision of one armed job, on the executor's supervisor thread:
/// chunked waits that double as the deadlock watchdog scanner and the
/// deadline enforcer, until `done`. Both enforcement paths funnel into the
/// same cooperative-abort latch: blocked ranks wake with JobAborted
/// immediately, compute-bound ranks (rank 0 on the caller too) observe the
/// abort at their next communication call. `lock` guards `first_error` and
/// whatever `done` reads, and stays held from the check to the abort, so a
/// verdict is recorded only while the job runs and the run() caller cannot
/// retire the job's state underneath it. (abort() takes the job's own mutex
/// and then mailbox mutexes, which never wait for the executor's.)
void supervise_job(std::unique_lock<std::mutex>& lock,
                   std::condition_variable& cv_done,
                   const std::function<bool()>& done, RuntimeState& state,
                   std::uint64_t generation, std::exception_ptr& first_error) {
  const bool watchdog = state.control.watchdog_armed();
  const bool deadline = state.control.deadline_armed();

  auto abort_with = [&](std::exception_ptr error, const std::string& reason) {
    if (!first_error) first_error = std::move(error);
    state.control.abort(reason);
  };

  const auto timeout = state.control.watchdog();
  const auto base_chunk = watchdog ? watchdog_chunk(timeout)
                                   : std::chrono::nanoseconds(20'000'000);
  WatchdogMemory memory;
  while (!done()) {
    auto chunk = base_chunk;
    if (deadline) {
      // Tighten the wait to the deadline so enforcement is prompt even when
      // the watchdog's quantum is long (floor 1 ms: never spin).
      const auto remaining = std::chrono::duration_cast<std::chrono::nanoseconds>(
          state.control.deadline() - std::chrono::steady_clock::now());
      chunk = std::clamp(remaining, std::chrono::nanoseconds(1'000'000), chunk);
    }
    if (cv_done.wait_for(lock, chunk, done)) break;
    if (deadline) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= state.control.deadline()) {
        const auto over = std::chrono::duration_cast<std::chrono::milliseconds>(
            now - state.control.deadline());
        trace::emit_instant("deadline.exceeded", over.count());
        std::string reason = "job deadline exceeded (P=" +
                             std::to_string(state.size) + ", aborted " +
                             std::to_string(over.count()) +
                             " ms past the deadline)";
        abort_with(std::make_exception_ptr(DeadlineExceeded(reason)), reason);
        break;
      }
    }
    if (!watchdog) continue;
    trace::emit_instant("watchdog.scan");
    std::string report = deadlock_report(state, memory, timeout, generation);
    if (report.empty()) continue;
    trace::emit_instant("watchdog.timeout");
    abort_with(std::make_exception_ptr(WatchdogTimeout(report)), report);
    break;
  }
}

/// Annotate one rank's escaped exception for the run() caller and record it
/// as the job's first error (first failure wins). JobAborted observations
/// are secondary by construction — whoever triggered the abort recorded the
/// primary error first — so they only land if nothing else was recorded.
/// The primary failure cooperatively aborts the job, waking blocked peers.
void record_rank_failure(RuntimeState& state, int rank,
                         const std::exception_ptr& error, std::mutex& mutex,
                         std::exception_ptr& first_error) {
  bool is_abort = false;
  std::string reason;
  std::exception_ptr annotated;
  try {
    std::rethrow_exception(error);
  } catch (const JobAborted&) {
    is_abort = true;
    annotated = error;
  } catch (const std::exception& e) {
    const auto& s = state.control.status(rank);
    const char* op = s.last_op.load(std::memory_order_relaxed);
    reason = "rank " + std::to_string(rank) + " failed";
    if (op != nullptr) {
      reason += " in comm call #" +
                std::to_string(s.calls.load(std::memory_order_relaxed)) + " (" +
                op + ")";
    }
    reason += ": " + std::string(e.what());
    annotated = std::make_exception_ptr(RankError(rank, reason));
  } catch (...) {
    reason = "rank " + std::to_string(rank) +
             " failed with a non-standard exception";
    annotated = std::make_exception_ptr(RankError(rank, reason));
  }

  bool primary = false;
  {
    std::lock_guard lock(mutex);
    if (!first_error) {
      first_error = annotated;
      primary = !is_abort;
    }
  }
  if (primary) state.control.abort(reason);
}

/// Flight-recorder dump for a failed job: extract the failure reason and
/// write the post-mortem trace + metrics snapshot. Callers are quiesced —
/// every rank thread of the job has parked before the rethrow.
void postmortem_for(const std::exception_ptr& error) {
  if (!trace::enabled()) return;
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    trace::write_postmortem(e.what());
  } catch (...) {
    trace::write_postmortem("non-standard exception");
  }
}

}  // namespace

Executor::~Executor() {
  {
    std::lock_guard lock(mutex_);
    shutdown_ = true;
  }
  for (auto& w : workers_) w->wake.notify_one();
  cv_supervise_.notify_one();
  for (auto& w : workers_) w->thread.join();
  if (supervisor_.joinable()) supervisor_.join();
}

int Executor::workers() {
  std::lock_guard lock(mutex_);
  return static_cast<int>(workers_.size());
}

Executor& Executor::shared() {
  // Meyers singleton: destroyed (and its workers joined) during static
  // destruction, so sanitizer runs see a clean teardown. The payloads its
  // cached mailboxes may still hold are returned to the deliberately leaked
  // BufferArena, which is guaranteed to outlive this.
  static Executor executor;
  return executor;
}

void Executor::run_rank(RuntimeState& state, int rank,
                        const std::function<void(Communicator&)>& body) {
  {
    RankScope scope(this, state, rank);
    trace::TraceSpan job_span("job", rank, state.size);
    perf::ScopedRecorder scoped(state.recorders[static_cast<std::size_t>(rank)]);
    Communicator comm(state, rank);
    try {
      body(comm);
    } catch (...) {
      record_rank_failure(state, rank, std::current_exception(), mutex_,
                          first_error_);
    }
  }
  state.control.finish(rank);
}

namespace {

/// Claim and run chunks of `task` until none remain, recording into a
/// scratch recorder the owner later merges (helper side; `helper` is the
/// pool rank it would serve). Returns with in_flight already decremented
/// and the latch notified.
void serve_task(LoopTask& task, int helper) {
  perf::Recorder scratch;
  double chunks = 0.0;
  {
    perf::ScopedRecorder scoped(scratch);
    t_in_loop_chunk = true;
    for (;;) {
      std::size_t lo, hi;
      {
        std::lock_guard g(task.m);
        if (task.error != nullptr || task.next >= task.end) break;
        lo = task.next;
        hi = std::min(task.next + task.grain, task.end);
        task.next = hi;
      }
      try {
        // Helper attribution: arg0 = owning rank, arg1 = chunk length.
        trace::TraceSpan chunk_span("loop.help", task.owner,
                                    static_cast<std::int64_t>(hi - lo));
        (*task.body)(lo, hi);
        chunks += 1.0;
      } catch (...) {
        std::lock_guard g(task.m);
        if (task.error == nullptr) task.error = std::current_exception();
        task.next = task.end;  // short-circuit the remaining chunks
        break;
      }
    }
    t_in_loop_chunk = false;
  }
  scratch.record_helper_chunk(chunks);
  perf::record_helper_chunks(chunks);
  std::lock_guard g(task.m);
  // Merge even the records of a failed loop into the partial map; the owner
  // discards partials wholesale on error, so nothing leaks into profiles.
  task.partials[helper].merge(scratch);
  --task.in_flight;
  task.cv.notify_all();
}

/// A task of `tasks` with unclaimed chunks, joined by the calling helper, or
/// null (under Executor::mutex_).
LoopTask* claim_task(const std::vector<LoopTask*>& tasks) {
  for (LoopTask* t : tasks) {
    std::lock_guard g(t->m);
    if (t->error != nullptr || t->next >= t->end) continue;
    ++t->in_flight;  // join before releasing mutex_: the owner's latch
    return t;        // now waits for us even if all chunks drain first
  }
  return nullptr;
}

}  // namespace

void Executor::worker_loop(int w, std::uint64_t seen) {
  t_in_worker = true;
  const int rank = w + 1;
  trace::set_thread_label("worker", rank);
  std::unique_lock lock(mutex_);
  std::condition_variable& wake = workers_[static_cast<std::size_t>(w)]->wake;
  for (;;) {
    LoopTask* task = nullptr;
    wake.wait(lock, [&] {
      if (shutdown_ || (generation_ != seen && rank < job_size_)) return true;
      // Idle for the current job (a worker that ran one of its ranks does
      // not help its loops): serve chunks of any loop that has some.
      if (rank >= job_size_) task = claim_task(loop_tasks_);
      return task != nullptr;
    });
    if (shutdown_) return;
    if (task != nullptr) {
      lock.unlock();
      serve_task(*task, rank);
      lock.lock();
      continue;
    }
    seen = generation_;
    RuntimeState& state = *job_state_;
    const std::function<void(Communicator&)>& body = *job_body_;
    lock.unlock();
    run_rank(state, rank, body);
    lock.lock();
    if (--remaining_ == 0) cv_done_.notify_all();
  }
}

void Executor::supervisor_loop() {
  trace::set_thread_label("supervisor");
  std::unique_lock lock(mutex_);
  std::uint64_t seen = 0;
  for (;;) {
    cv_supervise_.wait(
        lock, [&] { return shutdown_ || supervised_generation_ != seen; });
    if (shutdown_) return;
    seen = supervised_generation_;
    auto done = [&] { return generation_ != seen || remaining_ == 0; };
    // The armed job may be over before this thread got here; its state is
    // only touched while it is the published, undrained job.
    if (done()) continue;
    supervise_job(lock, cv_done_, done, *job_state_, seen, first_error_);
  }
}

int Executor::idle_helpers(int job_size) {
  std::lock_guard lock(mutex_);
  return std::max(0, static_cast<int>(workers_.size()) + 1 - job_size);
}

void Executor::loop_parallel(RuntimeState& state, int rank, LoopTask& task) {
  std::size_t pool = 0;
  {
    std::lock_guard lock(mutex_);
    loop_tasks_.push_back(&task);
    pool = workers_.size();
  }
  // Wake the workers idle for this job; the pool cannot grow while one of
  // its jobs runs, so the list is stable without the lock.
  for (auto w = static_cast<std::size_t>(state.size) - 1; w < pool; ++w) {
    workers_[w]->wake.notify_one();
  }

  // The owner serves chunks too — it is never idle while helpers work.
  t_in_loop_chunk = true;
  for (;;) {
    std::size_t lo, hi;
    {
      std::lock_guard g(task.m);
      if (task.error != nullptr || task.next >= task.end) break;
      lo = task.next;
      hi = std::min(task.next + task.grain, task.end);
      task.next = hi;
    }
    try {
      trace::TraceSpan chunk_span("loop.chunk", static_cast<std::int64_t>(lo),
                                  static_cast<std::int64_t>(hi));
      (*task.body)(lo, hi);
    } catch (...) {
      std::lock_guard g(task.m);
      if (task.error == nullptr) task.error = std::current_exception();
      task.next = task.end;
      break;
    }
  }
  t_in_loop_chunk = false;

  // Completion latch: every chunk is claimed (permanent once true), so wait
  // for the helpers still inside the body. Never abandoned early — the body
  // and its captures live on this stack frame — but registered with the
  // deadlock watchdog so a stuck helper chunk is diagnosed, not silent.
  {
    std::unique_lock g(task.m);
    if (task.in_flight != 0) {
      BlockGuard guard;
      guard.engage(state.control, rank, BlockKind::LoopWait, "parallel_for",
                   -1, -1);
      task.cv.wait(g, [&] { return task.in_flight == 0; });
    }
  }
  {
    std::lock_guard lock(mutex_);
    std::erase(loop_tasks_, &task);
  }

  if (task.error != nullptr) std::rethrow_exception(task.error);
  if (state.control.aborted()) state.control.throw_aborted();

  // Helper attribution: fold the helpers' scratch records back into the
  // owning rank's recorder, in ascending helper order so profiles are
  // independent of scheduling.
  if (perf::Recorder* rec = perf::current_recorder()) {
    for (const auto& [helper, partial] : task.partials) rec->merge(partial);
  }
}

RunResult Executor::run(int size, const std::function<void(Communicator&)>& body) {
  RunOptions options;
  options.size = size;
  return run(options, body);
}

RunResult Executor::run(const RunOptions& options_in,
                        const std::function<void(Communicator&)>& body) {
  const RunOptions options = with_defaults(options_in);
  // Read VPAR_TRACE and VPAR_TRACE_EVENTS here too, for callers that own an
  // Executor: a malformed value throws to them, before any rank thread could
  // trip over it.
  (void)trace::mode();
  const int size = options.size;
  if (size <= 0) throw std::runtime_error("simrt::run: size must be positive");
  std::lock_guard serial(run_mutex_);

  if (state_ == nullptr || state_->size != size) {
    state_ = std::make_unique<RuntimeState>(size);
  } else {
    state_->reset();
  }
  state_->control.configure(options);
  const bool supervised =
      state_->control.watchdog_armed() || state_->control.deadline_armed();
  // Counted from before the workers can see the job until it returns: the
  // message waits of every job in the process poll only while the sum fits
  // the cores.
  const RunningRanks running(size);

  {
    std::lock_guard lock(mutex_);
    // Grow the pool lazily. New workers capture the *current* generation as
    // already-seen so they park until the job below is published; a worker
    // reads its slot under mutex_, so only after the push below.
    workers_.reserve(static_cast<std::size_t>(size - 1));
    while (static_cast<int>(workers_.size()) < size - 1) {
      const int w = static_cast<int>(workers_.size());
      auto worker = std::make_unique<Worker>();
      worker->thread =
          std::thread([this, w, gen = generation_] { worker_loop(w, gen); });
      workers_.push_back(std::move(worker));  // capacity reserved: no throw
    }
    if (supervised && !supervisor_.joinable()) {
      supervisor_ = std::thread([this] { supervisor_loop(); });
    }
    job_body_ = &body;
    job_state_ = state_.get();
    job_size_ = size;
    remaining_ = size;
    first_error_ = nullptr;
    ++generation_;
    if (supervised) supervised_generation_ = generation_;
  }
  // Wake exactly the workers this job needs, then run rank 0 here.
  for (int w = 0; w + 1 < size; ++w) {
    workers_[static_cast<std::size_t>(w)]->wake.notify_one();
  }
  if (supervised) cv_supervise_.notify_one();
  run_rank(*state_, 0, body);
  {
    std::unique_lock lock(mutex_);
    if (--remaining_ == 0) cv_done_.notify_all();  // for the supervisor
    // Once every rank is done, first_error_ is final: the supervisor records
    // a verdict only while the job runs.
    cv_done_.wait(lock, [this] { return remaining_ == 0; });
  }

  if (first_error_) {
    // A failed job may have left messages, registry entries or a forfeited
    // rendezvous generation behind; drop the cached state so the next run
    // starts from scratch. The pool's workers are already parked again and
    // stay usable.
    const bool postmortem = state_->control.postmortem();
    state_.reset();
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    // Flight-recorder post-mortem: every worker of *this* pool is parked
    // again (the job fully drained above). Callers running several pools
    // concurrently (the service's lanes) disarm this via
    // RunOptions::postmortem — other pools' writers are not quiesced.
    if (postmortem) postmortem_for(error);
    std::rethrow_exception(error);
  }

  RunResult result;
  result.per_rank.assign(state_->recorders.begin(), state_->recorders.end());
  for (const auto& r : result.per_rank) result.merged.merge(r);
  return result;
}

RunResult run(int size, const std::function<void(Communicator&)>& body) {
  RunOptions options;
  options.size = size;
  return run(options, body);
}

void set_hybrid_threading(HybridMode mode) {
  hybrid_mode().store(mode, std::memory_order_relaxed);
}

HybridMode hybrid_threading() {
  return hybrid_mode().load(std::memory_order_relaxed);
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t range = end - begin;

  // Engage helpers only from a rank body, outside any enclosing chunk, when
  // the policy says yes and idle workers exist.
  int idle = 0;
  RuntimeState* state = t_loop_state;
  if (state != nullptr && !t_in_loop_chunk &&
      hybrid_policy_engages(state->size)) {
    idle = t_loop_executor->idle_helpers(state->size);
  }

  if (grain == 0) {
    // Auto grain: ~4 chunks per participant, so late joiners still find
    // work without shrinking chunks into scheduling noise. With no helpers
    // there is exactly one participant and nothing to balance — one full
    // chunk, so the serial path keeps the original loop structure (batched
    // kernels like the simultaneous FFT live or die by the inner trip
    // count; splitting them 4-ways costs ~2x for nothing).
    const std::size_t ways = static_cast<std::size_t>(idle + 1) * 4;
    grain = idle == 0 ? range : std::max<std::size_t>(1, (range + ways - 1) / ways);
  }

  if (idle == 0 || grain >= range) {
    // Serial degrade: identical chunk boundaries, no task registration.
    struct ChunkScope {  // exception-safe restore of the nesting flag
      bool outer = !t_in_loop_chunk;
      ChunkScope() { t_in_loop_chunk = true; }
      ~ChunkScope() { if (outer) t_in_loop_chunk = false; }
    } scope;
    for (std::size_t lo = begin; lo < end; lo += grain) {
      body(lo, std::min(lo + grain, end));
    }
    return;
  }

  LoopTask task;
  task.next = begin;
  task.end = end;
  task.grain = grain;
  task.owner = t_loop_rank;
  task.body = &body;
  t_loop_executor->loop_parallel(*state, t_loop_rank, task);
}

int parallel_width() {
  RuntimeState* state = t_loop_state;
  if (state == nullptr || t_in_loop_chunk ||
      !hybrid_policy_engages(state->size)) {
    return 1;
  }
  return 1 + t_loop_executor->idle_helpers(state->size);
}

RunResult run(const RunOptions& options,
              const std::function<void(Communicator&)>& body) {
  if (options.size <= 0) {
    throw std::runtime_error("simrt::run: size must be positive");
  }
  // Read VPAR_TRACE and VPAR_TRACE_EVENTS before either path: a malformed
  // value then throws here, not from a socket rank's job span or a transport
  // thread.
  (void)trace::mode();
  // Multi-process dispatch: when this process was launched as one rank of a
  // VPAR_TRANSPORT=socket job and the requested size matches the team,
  // the job runs distributed — this process executes its rank, peers run
  // theirs. Other sizes (nested helpers, local utility runs) stay in-process.
  if (!t_in_worker && !in_distributed_body() && distributed_env_active() &&
      options.size == distributed_world()) {
    return run_distributed(with_defaults(options), body);
  }
  if (t_in_worker) {
    // A rank body or helper chunk cannot borrow the pool it runs on: a
    // nested job gets a private pool of exactly its own ranks, which has no
    // idle helpers, so nested parallel_for calls stay serial.
    Executor nested;
    return nested.run(options, body);
  }
  return Executor::shared().run(options, body);
}

std::chrono::milliseconds retry_backoff(const RetryPolicy& policy, int attempt) {
  double ms = static_cast<double>(policy.backoff.count());
  const double cap = policy.max_backoff.count() > 0
                         ? static_cast<double>(policy.max_backoff.count())
                         : std::numeric_limits<double>::infinity();
  for (int i = 0; i < attempt && ms < cap; ++i) ms *= policy.backoff_factor;
  ms = std::min(ms, cap);
  const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  if (jitter > 0.0) {
    // Deterministic per-(seed, attempt) draw, same generator family as the
    // fault injector: seeded chaos runs replay their exact pauses.
    const std::uint64_t h =
        mix64(mix64(policy.jitter_seed) ^ (static_cast<std::uint64_t>(attempt) + 1));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    ms *= 1.0 - jitter * u;
  }
  return std::chrono::milliseconds(static_cast<std::int64_t>(ms));
}

namespace {

/// Retry-observability meters on the process registry (find-or-create once).
struct RetryMeters {
  trace::Counter& attempts = trace::Metrics::instance().counter("retry.attempts");
  trace::Counter& giveups = trace::Metrics::instance().counter("retry.giveups");
};

RetryMeters& retry_meters() {
  static RetryMeters m;
  return m;
}

/// Shared retry loop: `runner` is one run() attempt against whichever
/// executor the caller picked.
RetryResult retry_loop(const std::function<RunResult(const RunOptions&)>& runner,
                       RunOptions options, const RetryPolicy& policy) {
  RetryMeters& meters = retry_meters();
  for (int attempt = 0;; ++attempt) {
    try {
      meters.attempts.add();
      return RetryResult{runner(options), attempt + 1};
    } catch (const DeadlineExceeded&) {
      // The deadline is absolute: rerunning an expired job cannot succeed.
      meters.giveups.add();
      throw;
    } catch (...) {
      if (attempt >= policy.max_retries) {
        meters.giveups.add();
        throw;
      }
      const auto pause = retry_backoff(policy, attempt);
      if (options.deadline_armed() &&
          std::chrono::steady_clock::now() + pause >= options.deadline) {
        // The backoff pause alone would sleep past the deadline: give up now
        // instead of burning the remaining budget asleep.
        meters.giveups.add();
        throw;
      }
      trace::emit_instant("retry.attempt", attempt + 1);
      if (pause.count() > 0) std::this_thread::sleep_for(pause);
      if (policy.disarm_faults_on_retry) options.fault = FaultPlan{};
    }
  }
}

}  // namespace

RetryResult run_with_retry(RunOptions options,
                           const std::function<void(Communicator&)>& body,
                           const RetryPolicy& policy) {
  return retry_loop([&](const RunOptions& o) { return run(o, body); },
                    std::move(options), policy);
}

RetryResult run_with_retry(Executor& executor, RunOptions options,
                           const std::function<void(Communicator&)>& body,
                           const RetryPolicy& policy) {
  return retry_loop([&](const RunOptions& o) { return executor.run(o, body); },
                    std::move(options), policy);
}

}  // namespace vpar::simrt
