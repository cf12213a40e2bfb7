#include "simrt/fault.hpp"

#include <algorithm>
#include <thread>

#include "perf/recorder.hpp"
#include "trace/trace.hpp"

namespace vpar::simrt {

namespace {

/// SplitMix64 finalizer: a cheap, well-mixed hash of the decision
/// coordinates. Good enough for fault sampling; not cryptographic.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t draw(const FaultPlan& plan, int rank, std::uint64_t counter,
                   std::uint64_t salt) {
  std::uint64_t h = splitmix64(plan.seed ^ salt);
  h = splitmix64(h ^ (static_cast<std::uint64_t>(rank) + 1));
  return splitmix64(h ^ counter);
}

double u01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

unsigned host_cores() {
  static const unsigned cores = std::thread::hardware_concurrency();
  return cores;
}

namespace {
std::atomic<int> g_running_ranks{0};
}  // namespace

RunningRanks::RunningRanks(int ranks) : ranks_(ranks) {
  g_running_ranks.fetch_add(ranks_, std::memory_order_relaxed);
}

RunningRanks::~RunningRanks() {
  g_running_ranks.fetch_sub(ranks_, std::memory_order_relaxed);
}

int RunningRanks::count() { return g_running_ranks.load(std::memory_order_relaxed); }

bool waits_may_poll() {
  return RunningRanks::count() <= static_cast<int>(host_cores());
}

// --- JobControl -------------------------------------------------------------

void JobControl::configure(const RunOptions& options) {
  fault_ = options.fault;
  checksums_ = options.checksums;
  // Saturate instead of wrapping: a timeout too long for nanoseconds (~292
  // years) would otherwise turn into an arbitrary short one.
  constexpr auto kLongest =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::nanoseconds::max());
  watchdog_ = options.watchdog >= kLongest
                  ? std::chrono::nanoseconds::max()
                  : std::chrono::duration_cast<std::chrono::nanoseconds>(
                        options.watchdog);
  deadline_ = options.deadline;
  postmortem_ = options.postmortem;
  aborted_.store(false, std::memory_order_release);
  {
    std::lock_guard lock(mutex_);
    reason_.clear();
    latched_ = false;
  }
  for (auto& s : status_) {
    s.blocked.store(0, std::memory_order_relaxed);
    s.what.store(nullptr, std::memory_order_relaxed);
    s.source.store(0, std::memory_order_relaxed);
    s.tag.store(0, std::memory_order_relaxed);
    s.since_ns.store(0, std::memory_order_relaxed);
    s.seq.store(0, std::memory_order_relaxed);
    s.finished.store(false, std::memory_order_relaxed);
    s.last_op.store(nullptr, std::memory_order_relaxed);
    s.calls.store(0, std::memory_order_relaxed);
  }
}

void JobControl::abort(const std::string& reason) {
  std::function<void()> waker;
  {
    std::lock_guard lock(mutex_);
    if (latched_) return;  // first abort wins
    latched_ = true;
    reason_ = reason;
    waker = waker_;
  }
  aborted_.store(true, std::memory_order_release);
  trace::emit_instant("abort");
  if (waker) waker();
}

void JobControl::throw_aborted() const {
  perf::record_abort_observed();
  throw JobAborted(reason());
}

std::string JobControl::reason() const {
  std::lock_guard lock(mutex_);
  return reason_.empty() ? std::string("job aborted") : reason_;
}

void JobControl::set_waker(std::function<void()> waker) {
  std::lock_guard lock(mutex_);
  waker_ = std::move(waker);
}

void JobControl::block(int rank, BlockKind kind, const char* what, int source,
                       int tag) {
  auto& s = status_[static_cast<std::size_t>(rank)];
  s.what.store(what, std::memory_order_relaxed);
  s.source.store(source, std::memory_order_relaxed);
  s.tag.store(tag, std::memory_order_relaxed);
  s.since_ns.store(now_ns(), std::memory_order_relaxed);
  s.seq.fetch_add(1, std::memory_order_relaxed);
  s.blocked.store(static_cast<int>(kind), std::memory_order_release);
}

void JobControl::unblock(int rank) {
  auto& s = status_[static_cast<std::size_t>(rank)];
  s.seq.fetch_add(1, std::memory_order_relaxed);
  s.blocked.store(0, std::memory_order_release);
}

void JobControl::finish(int rank) {
  auto& s = status_[static_cast<std::size_t>(rank)];
  s.seq.fetch_add(1, std::memory_order_relaxed);
  s.blocked.store(0, std::memory_order_relaxed);
  s.finished.store(true, std::memory_order_release);
}

// --- FaultInjector ----------------------------------------------------------

FaultInjector::FaultInjector(const FaultPlan& plan, int rank)
    : plan_(&plan), rank_(rank), enabled_(plan.enabled()) {
  if (enabled_) {
    straggler_ = std::find(plan.straggler_ranks.begin(),
                           plan.straggler_ranks.end(),
                           rank) != plan.straggler_ranks.end();
  }
}

void FaultInjector::on_call(std::uint64_t call) {
  if (!enabled_) return;
  if (straggler_ && plan_->straggle_us > 0) {
    perf::record_fault_injected();
    trace::emit_instant("fault.straggle", plan_->straggle_us);
    std::this_thread::sleep_for(std::chrono::microseconds(plan_->straggle_us));
  }
  if (rank_ == plan_->fail_rank && call == plan_->fail_at_call) {
    perf::record_fault_injected();
    trace::emit_instant("fault.kill", static_cast<std::int64_t>(call));
    throw InjectedFault("injected rank failure at comm call #" +
                        std::to_string(call));
  }
}

void FaultInjector::apply_send_faults(std::span<std::byte> payload, int tag,
                                      int& reorder_slots) {
  if (!enabled_) return;
  const std::uint64_t s = ++sends_;
  if (plan_->delay_prob > 0.0 && plan_->delay_max_us > 0 &&
      u01(draw(*plan_, rank_, s, 1)) < plan_->delay_prob) {
    const auto us = 1 + draw(*plan_, rank_, s, 2) % plan_->delay_max_us;
    perf::record_fault_injected();
    trace::emit_instant("fault.delay", static_cast<std::int64_t>(us), tag);
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
  if (plan_->reorder_prob > 0.0 &&
      u01(draw(*plan_, rank_, s, 3)) < plan_->reorder_prob) {
    reorder_slots = 1 + static_cast<int>(draw(*plan_, rank_, s, 4) % 4);
    perf::record_fault_injected();
    trace::emit_instant("fault.reorder", reorder_slots, tag);
  }
  if (plan_->bitflip_prob > 0.0 && tag >= 0 && !payload.empty() &&
      u01(draw(*plan_, rank_, s, 5)) < plan_->bitflip_prob) {
    const std::uint64_t bit = draw(*plan_, rank_, s, 6) % (payload.size() * 8);
    payload[bit / 8] ^= std::byte{1} << (bit % 8);
    perf::record_fault_injected();
    trace::emit_instant("fault.bitflip", static_cast<std::int64_t>(bit), tag);
  }
}

bool FaultInjector::should_drop(int tag) {
  if (!enabled_ || tag < 0 || plan_->drop_prob <= 0.0) return false;
  if (u01(draw(*plan_, rank_, sends_, 7)) >= plan_->drop_prob) return false;
  perf::record_fault_injected();
  trace::emit_instant("fault.drop", tag);
  return true;
}

bool FaultInjector::should_fail_alloc() {
  if (!enabled_ || plan_->alloc_fail_prob <= 0.0) return false;
  const std::uint64_t a = ++allocs_;
  return u01(draw(*plan_, rank_, a, 8)) < plan_->alloc_fail_prob;
}

namespace {
// Ambient per-thread injector for fault decisions made below the
// communicator (the arena has no job context of its own).
thread_local FaultInjector* t_thread_injector = nullptr;
}  // namespace

FaultInjector* exchange_thread_injector(FaultInjector* injector) {
  FaultInjector* prev = t_thread_injector;
  t_thread_injector = injector;
  return prev;
}

void maybe_inject_alloc_failure(std::size_t bytes) {
  FaultInjector* inj = t_thread_injector;
  if (inj == nullptr || !inj->should_fail_alloc()) return;
  perf::record_fault_injected();
  trace::emit_instant("fault.alloc_fail", static_cast<std::int64_t>(bytes));
  throw InjectedFault("injected arena allocation failure (" +
                      std::to_string(bytes) + " bytes)");
}

std::uint64_t fnv1a64(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace vpar::simrt
