#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace vpar::simrt {

// --- error taxonomy ---------------------------------------------------------

/// Thrown out of blocking runtime calls on ranks whose job was cooperatively
/// aborted (a peer failed, or the watchdog declared the job deadlocked).
/// Carries the abort reason recorded by whoever triggered the abort.
class JobAborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// JobAborted raised by the deadlock watchdog; what() is the full per-rank
/// blocked-state report.
class WatchdogTimeout : public JobAborted {
 public:
  using JobAborted::JobAborted;
};

/// JobAborted raised when a job is still running at its RunOptions::deadline.
/// The executor's supervisor thread (the same one that backs the deadlock
/// watchdog) trips the cooperative-abort latch: blocked ranks are woken
/// immediately, compute-bound ranks observe the abort at their next
/// communication call — cancellation is cooperative, exactly like every
/// other abort in the runtime. The service layer maps this onto per-job
/// deadlines.
class DeadlineExceeded : public JobAborted {
 public:
  using JobAborted::JobAborted;
};

/// JobAborted raised when a multi-process transport's peer-failure detector
/// declares one or more rank processes dead (missed heartbeats or a closed
/// connection). what() carries the per-rank liveness report; lost_ranks()
/// the dead ranks. The harness-level answer is elastic restart: relaunch
/// the job and restore every rank from its last checkpoint (see
/// docs/transport.md).
class PeerLost : public JobAborted {
 public:
  PeerLost(std::vector<int> ranks, const std::string& message)
      : JobAborted(message), ranks_(std::move(ranks)) {}
  [[nodiscard]] const std::vector<int>& lost_ranks() const { return ranks_; }

 private:
  std::vector<int> ranks_;
};

/// Thrown by the fault injector when the plan kills this rank.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown on the receiving rank when a checksummed payload fails
/// verification (an injected — or real — in-transit corruption).
class ChecksumError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Wrapper the runtime rethrows to the run() caller: the original failure
/// annotated with the failing rank and its last communication call site.
class RankError : public std::runtime_error {
 public:
  RankError(int rank, const std::string& message)
      : std::runtime_error(message), rank_(rank) {}
  [[nodiscard]] int failed_rank() const { return rank_; }

 private:
  int rank_;
};

// --- fault plan -------------------------------------------------------------

/// Seeded, deterministic chaos configuration for one job. Every decision is
/// a pure hash of (seed, rank, per-rank operation index), so a chaos run
/// injects exactly the same faults on every replay of the same program —
/// independent of thread scheduling. (The OS interleaving itself still
/// varies; what is reproducible is *which* calls are delayed, reordered,
/// corrupted or killed.)
struct FaultPlan {
  std::uint64_t seed = 0;

  /// Per-send chance of an injected transit delay, uniform in
  /// [1, delay_max_us] microseconds (sender-side stall before delivery).
  double delay_prob = 0.0;
  std::uint32_t delay_max_us = 0;

  /// Per-send chance the message is enqueued ahead of up to 4 already-queued
  /// messages from *other* (source, tag) streams. Per-(sender, tag) FIFO —
  /// the ordering applications may rely on — is always preserved.
  double reorder_prob = 0.0;

  /// Ranks stalled for straggle_us microseconds at every communication call
  /// (injected compute imbalance).
  std::vector<int> straggler_ranks;
  std::uint32_t straggle_us = 0;

  /// Kill fail_rank at its fail_at_call-th communication call (1-based;
  /// 0 or fail_rank < 0 disables). The rank throws InjectedFault, which the
  /// runtime converts into a cooperative job abort.
  int fail_rank = -1;
  std::uint64_t fail_at_call = 0;

  /// Per-send chance of flipping one payload bit in transit. Only user
  /// messages (tag >= 0) are corrupted so the runtime's own collective
  /// protocol stays intact; detectable via RunOptions::checksums.
  double bitflip_prob = 0.0;

  /// Per-send chance the message is silently dropped in transit (never
  /// delivered). Only user messages (tag >= 0) are dropped so the runtime's
  /// own collective protocol stays intact; the stuck receiver is what the
  /// deadlock watchdog exists to catch.
  double drop_prob = 0.0;

  /// Per-acquire chance that an arena buffer allocation on this job's ranks
  /// fails (throws InjectedFault), modelling memory exhaustion mid-run. The
  /// decision is drawn by the rank's injector, so it is seeded and
  /// replayable like every other fault.
  double alloc_fail_prob = 0.0;

  [[nodiscard]] bool enabled() const {
    return delay_prob > 0.0 || reorder_prob > 0.0 || bitflip_prob > 0.0 ||
           drop_prob > 0.0 || alloc_fail_prob > 0.0 ||
           (!straggler_ranks.empty() && straggle_us > 0) ||
           (fail_rank >= 0 && fail_at_call > 0);
  }
};

/// Per-job runtime configuration (see simrt::run overloads).
struct RunOptions {
  int size = 1;
  FaultPlan fault{};
  /// Deadlock watchdog timeout; 0 disarms. When armed, a job whose every
  /// unfinished rank sits in a blocking wait for longer than this is aborted
  /// with a WatchdogTimeout carrying the per-rank blocked-state report. A
  /// timeout too long for std::chrono::nanoseconds saturates to its maximum.
  std::chrono::milliseconds watchdog{0};
  /// Attach and verify a per-message payload checksum (detects injected
  /// bit-flips at the cost of one extra pass over every payload).
  bool checksums = false;
  /// Absolute wall deadline (steady clock) for the whole job; the default
  /// (epoch) disarms it. A job still running at the deadline is cooperatively
  /// aborted and DeadlineExceeded is rethrown to the caller. Absolute rather
  /// than relative so retries of the same job share one budget.
  std::chrono::steady_clock::time_point deadline{};
  /// Write the flight-recorder post-mortem dump when this job fails. The
  /// service layer disables it for its jobs: draining every thread's trace
  /// ring requires quiesced writers, which concurrent lanes cannot guarantee
  /// (it writes per-job failure reports instead).
  bool postmortem = true;

  [[nodiscard]] bool deadline_armed() const {
    return deadline.time_since_epoch().count() > 0;
  }
};

// --- per-job control block --------------------------------------------------

/// What a rank is blocked on (if anything). Written by the owning rank only;
/// sampled concurrently by the watchdog, hence the per-field atomics.
enum class BlockKind : int { None = 0, Recv, RequestWait, Barrier, LoopWait };

struct RankStatus {
  std::atomic<int> blocked{0};  // BlockKind
  std::atomic<const char*> what{nullptr};
  std::atomic<int> source{0};
  std::atomic<int> tag{0};
  std::atomic<std::uint64_t> since_ns{0};
  std::atomic<std::uint64_t> seq{0};  // bumps on every block/unblock/finish
  std::atomic<bool> finished{false};
  std::atomic<const char*> last_op{nullptr};
  std::atomic<std::uint64_t> calls{0};
};

/// Logical cores of the host (std::thread::hardware_concurrency(), read once
/// per process; 0 when unknown). The one reading behind the hybrid Auto
/// policy and the message-wait poll: the query costs microseconds per call
/// and parallel_for asks on every loop.
[[nodiscard]] unsigned host_cores();

/// Counts the ranks of the jobs running in this process, over every
/// Executor (each JobServer lane owns one) and the distributed session: a
/// job holds one RunningRanks of its size from dispatch until its ranks
/// have returned.
class RunningRanks {
 public:
  explicit RunningRanks(int ranks);
  RunningRanks(const RunningRanks&) = delete;
  RunningRanks& operator=(const RunningRanks&) = delete;
  ~RunningRanks();

  /// The ranks of every job running in this process now.
  [[nodiscard]] static int count();

 private:
  int ranks_;
};

/// True while the ranks running in this process fit the host's cores
/// (RunningRanks::count() <= host_cores()), so a message wait may poll
/// before it parks. Counted over the process, not per job: on 4 cores,
/// three JobServer lanes of 4-rank jobs read a median of 6,300 jobs/s when
/// each job polled because it fit the cores alone, against 28,100 parking
/// at once, and one 8-rank ring polling read 3,100 rounds/s against 11,600
/// (EXPERIMENTS.md, "Oversubscribed: who may poll").
[[nodiscard]] bool waits_may_poll();

/// Shared per-job control block: fault plan, abort flag + reason, and the
/// per-rank blocked-state registry the watchdog scans. Owned by RuntimeState;
/// every blocking primitive of the runtime consults it.
class JobControl {
 public:
  explicit JobControl(int size) : status_(static_cast<std::size_t>(size)) {}

  /// Re-arm for a new job: install the options and clear abort/blocked state.
  /// Must only run while no rank threads are active.
  void configure(const RunOptions& options);

  [[nodiscard]] const FaultPlan& fault() const { return fault_; }
  [[nodiscard]] bool checksums() const { return checksums_; }
  [[nodiscard]] std::chrono::nanoseconds watchdog() const { return watchdog_; }
  [[nodiscard]] bool watchdog_armed() const { return watchdog_.count() > 0; }
  [[nodiscard]] std::chrono::steady_clock::time_point deadline() const {
    return deadline_;
  }
  [[nodiscard]] bool deadline_armed() const {
    return deadline_.time_since_epoch().count() > 0;
  }
  [[nodiscard]] bool postmortem() const { return postmortem_; }
  [[nodiscard]] int size() const { return static_cast<int>(status_.size()); }

  // --- abort machinery ------------------------------------------------------

  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }

  /// Abort the job (first reason wins) and wake every blocked rank through
  /// the installed waker. Safe from any thread; idempotent.
  void abort(const std::string& reason);

  /// Record a JobAborted observation on the calling rank's recorder and
  /// throw it with the stored reason.
  [[noreturn]] void throw_aborted() const;

  [[nodiscard]] std::string reason() const;

  /// Callback that wakes every blocking primitive of the job (installed by
  /// RuntimeState: mailbox condvars, pending requests, the rendezvous).
  void set_waker(std::function<void()> waker);

  // --- rank-side bookkeeping (owning rank only) -----------------------------

  void note_call(int rank, const char* op, std::uint64_t call) {
    auto& s = status_[static_cast<std::size_t>(rank)];
    s.last_op.store(op, std::memory_order_relaxed);
    s.calls.store(call, std::memory_order_relaxed);
  }

  void block(int rank, BlockKind kind, const char* what, int source, int tag);
  void unblock(int rank);
  void finish(int rank);

  [[nodiscard]] RankStatus& status(int rank) {
    return status_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const RankStatus& status(int rank) const {
    return status_[static_cast<std::size_t>(rank)];
  }

 private:
  std::vector<RankStatus> status_;
  FaultPlan fault_{};
  bool checksums_ = false;
  std::chrono::nanoseconds watchdog_{0};
  std::chrono::steady_clock::time_point deadline_{};
  bool postmortem_ = true;

  std::atomic<bool> aborted_{false};
  mutable std::mutex mutex_;  // guards reason_, latched_, waker_
  std::string reason_;
  bool latched_ = false;
  std::function<void()> waker_;
};

/// RAII blocked-state registration around a wait that may throw.
class BlockGuard {
 public:
  BlockGuard() = default;
  BlockGuard(const BlockGuard&) = delete;
  BlockGuard& operator=(const BlockGuard&) = delete;
  ~BlockGuard() {
    if (control_ != nullptr) control_->unblock(rank_);
  }

  void engage(JobControl& control, int rank, BlockKind kind, const char* what,
              int source, int tag) {
    if (control_ != nullptr) return;
    control.block(rank, kind, what, source, tag);
    control_ = &control;
    rank_ = rank;
  }

 private:
  JobControl* control_ = nullptr;
  int rank_ = 0;
};

/// How long one message wait (Mailbox::receive, Request::wait) polls before
/// it parks. Waking a parked thread costs ~15 µs and often more on the
/// shared 4-core host, longer than a tiny message's round trip between two
/// running ranks. Chosen from a 5/20/50 µs sweep (EXPERIMENTS.md,
/// "service_jobs: message waits poll before they park"; 10 s runs, 4 per
/// budget): service_jobs read 39,180–43,670 jobs/s at no poll, a median of
/// 56,400 at 5 µs, 63,700 at 20 µs and 68,300 at 50 µs, because a worker's
/// own start wake often outlasts 20 µs; qcd_halo, whose 10 s runs spread
/// ±25%, was flat at every budget.
inline constexpr std::chrono::nanoseconds kWaitPollBudget{50'000};

/// The bounded poll of one message wait. spin() watches lock-free state the
/// waker sets until it holds, the job aborts, or the wait's budget is spent;
/// the caller then rechecks under its lock and, once the budget is spent,
/// parks as before. The first budget_left() or spin() starts the budget, or
/// spends it at once when the process's ranks do not fit the cores
/// (waits_may_poll) or the wait belongs to no job. It never restarts, so
/// arrivals that do not satisfy the wait cannot stretch it.
class WaitPoll {
 public:
  explicit WaitPoll(const JobControl* control) : control_(control) {}

  [[nodiscard]] bool budget_left() {
    if (control_ != nullptr && deadline_ == Clock::time_point{}) {
      if (waits_may_poll()) {
        deadline_ = Clock::now() + kWaitPollBudget;
      } else {
        control_ = nullptr;
      }
    }
    return control_ != nullptr;
  }

  template <typename Ready>
  void spin(const Ready& ready) {
    if (!budget_left()) return;
    while (!ready() && !control_->aborted()) {
      if (Clock::now() >= deadline_) {
        control_ = nullptr;
        return;
      }
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      __asm__ __volatile__("yield");
#endif
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  const JobControl* control_;
  Clock::time_point deadline_{};
};

// --- deterministic fault injector -------------------------------------------

/// Per-rank fault decision engine bound to one job's FaultPlan. Stateless
/// apart from monotone per-rank counters: every decision is a hash of
/// (seed, rank, counter, salt), making chaos runs replayable from the seed.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultPlan& plan, int rank);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Invoked at the top of every communication call (`call` is the 1-based
  /// per-rank call index): applies the straggler stall and the injected rank
  /// failure (throws InjectedFault).
  void on_call(std::uint64_t call);

  /// Send-side faults for one outgoing message: may stall (delay), request
  /// queue reordering (returned in `reorder_slots`), and flip one payload
  /// bit in place (user tags only).
  void apply_send_faults(std::span<std::byte> payload, int tag, int& reorder_slots);

  /// Decide (after apply_send_faults, same per-send counter) whether this
  /// outgoing message is lost in transit. User tags only.
  [[nodiscard]] bool should_drop(int tag);

  /// Decide whether the next arena acquisition on this rank fails. Separate
  /// monotone counter, so drop/alloc decisions do not perturb each other.
  [[nodiscard]] bool should_fail_alloc();

 private:
  const FaultPlan* plan_ = nullptr;
  int rank_ = 0;
  bool enabled_ = false;
  bool straggler_ = false;
  std::uint64_t sends_ = 0;
  std::uint64_t allocs_ = 0;
};

/// Install `injector` as the calling thread's ambient injector and return
/// the previous one. The Communicator binds its rank's injector for the
/// duration of the rank body so that BufferArena::acquire — a process-wide
/// singleton with no job context — can consult the per-job FaultPlan.
FaultInjector* exchange_thread_injector(FaultInjector* injector);

/// Allocation-failure injection point, called by BufferArena::acquire with
/// the requested byte count. Throws InjectedFault when the calling thread's
/// ambient injector draws an allocation failure; otherwise a no-op.
void maybe_inject_alloc_failure(std::size_t bytes);

/// FNV-1a 64-bit checksum over a byte span (the per-message checksum).
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::byte> data);

}  // namespace vpar::simrt
