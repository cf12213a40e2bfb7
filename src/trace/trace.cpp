#include "trace/trace.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

namespace vpar::trace {

namespace detail {
std::atomic<int> g_mode{[] {
  const char* s = std::getenv("VPAR_TRACE");
  if (s == nullptr) return static_cast<int>(Mode::Off);
  const std::string v(s);
  if (v == "flight" || v == "on" || v == "1") return static_cast<int>(Mode::Flight);
  if (v == "full") return static_cast<int>(Mode::Full);
  return static_cast<int>(Mode::Off);
}()};
}  // namespace detail

Mode mode() { return static_cast<Mode>(detail::g_mode.load(std::memory_order_relaxed)); }

void set_mode(Mode mode) {
  detail::g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

bool full_mode() {
  return detail::g_mode.load(std::memory_order_relaxed) ==
         static_cast<int>(Mode::Full);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

constexpr std::size_t kDefaultRingEvents = 8192;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void warn_capacity(const std::string& request, const char* problem,
                   std::size_t used) {
  std::fprintf(stderr, "vpar trace: %s %s; using %zu events per thread\n",
               request.c_str(), problem, used);
}

/// `events` clamped to [1, kMaxRingEvents] and rounded up to a power of two;
/// `request` names the value in the warning a clamp prints.
std::size_t clamp_capacity(std::size_t events, const std::string& request) {
  if (events > kMaxRingEvents) {
    warn_capacity(request, "is above the maximum", kMaxRingEvents);
    return kMaxRingEvents;
  }
  return round_up_pow2(events > 0 ? events : 1);
}

/// Capacity applied to rings created from now on (power of two).
std::atomic<std::size_t> g_capacity{
    detail::ring_capacity_from_env(std::getenv("VPAR_TRACE_EVENTS"))};

/// One thread's event sink. Single-writer (the owning thread); the head
/// counter is the only cross-thread synchronization: the writer publishes a
/// slot with a release store of head, a drainer acquires head and reads the
/// slots below it. Drains happen only while the writer is quiesced (the
/// runtime drains after a job has fully drained; tests drain after joins),
/// so a slot is never read while it is being overwritten.
///
/// In Full mode a ring about to wrap first moves its contents into `spill_`
/// (owner thread, under `spill_mutex_`) so nothing is lost; in Flight mode
/// the wrap simply overwrites the oldest slot — the flight-recorder contract.
class Ring {
 public:
  explicit Ring(std::size_t capacity, std::string label, int tid)
      : label_(std::move(label)),
        tid_(tid),
        mask_(capacity - 1),
        slots_(capacity) {}

  void push(const Event& e) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (full_mode() && h - spilled_ == slots_.size()) {
      std::lock_guard lock(spill_mutex_);
      for (std::uint64_t i = spilled_; i < h; ++i) {
        spill_.push_back(slots_[i & mask_]);
      }
      spilled_ = h;
    }
    slots_[h & mask_] = e;
    head_.store(h + 1, std::memory_order_release);
  }

  /// Copy out everything still recorded, oldest first (quiesced writer).
  [[nodiscard]] ThreadTrace drain() {
    ThreadTrace out;
    out.label = label_;
    out.tid = tid_;
    {
      std::lock_guard lock(spill_mutex_);
      out.events = spill_;
    }
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t kept = std::min<std::uint64_t>(h - spilled_, slots_.size());
    out.overwritten = (h - spilled_) - kept;
    out.events.reserve(out.events.size() + kept);
    for (std::uint64_t i = h - kept; i < h; ++i) {
      out.events.push_back(slots_[i & mask_]);
    }
    return out;
  }

  void clear() {
    std::lock_guard lock(spill_mutex_);
    spill_.clear();
    spilled_ = head_.load(std::memory_order_acquire);
  }

  void set_label(std::string label) {
    std::lock_guard lock(spill_mutex_);
    label_ = std::move(label);
  }

  [[nodiscard]] std::string label() {
    std::lock_guard lock(spill_mutex_);
    return label_;
  }

 private:
  std::string label_;
  int tid_;
  std::uint64_t mask_;
  std::vector<Event> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::uint64_t spilled_ = 0;  // events moved to spill_ (or dropped by clear)
  std::mutex spill_mutex_;
  std::vector<Event> spill_;
};

/// All rings ever created, kept alive past thread exit so post-mortem dumps
/// include the last events of dead threads. Bounded by the number of threads
/// the process ever creates (the executor pool reuses its workers).
struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<Ring>> rings;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: emitters may outlive statics
  return *r;
}

thread_local std::shared_ptr<Ring> t_ring;
thread_local int t_rank = -1;
thread_local const char* t_role = nullptr;
thread_local int t_role_index = -1;

std::string make_label() {
  std::string label = t_role != nullptr ? t_role : "thread";
  if (t_role_index >= 0) {
    label += ' ';
    label += std::to_string(t_role_index);
  }
  return label;
}

Ring& local_ring() {
  if (!t_ring) {
    Registry& reg = registry();
    std::lock_guard lock(reg.mutex);
    t_ring = std::make_shared<Ring>(
        g_capacity.load(std::memory_order_relaxed), make_label(),
        static_cast<int>(reg.rings.size()));
    reg.rings.push_back(t_ring);
  }
  return *t_ring;
}

std::atomic<std::uint64_t> g_flow_id{0};
std::atomic<std::uint64_t> g_flow_base{0};

void push_event(const char* name, EventKind kind, std::uint64_t ts,
                std::uint64_t dur, std::uint64_t id, std::int64_t arg0,
                std::int64_t arg1) {
  Event e;
  e.name = name;
  e.ts_ns = ts;
  e.dur_ns = dur;
  e.id = id;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.rank = t_rank;
  e.kind = kind;
  local_ring().push(e);
}

}  // namespace

void emit_span(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
               std::int64_t arg0, std::int64_t arg1) {
  if (!enabled()) return;
  push_event(name, EventKind::Span, start_ns, dur_ns, 0, arg0, arg1);
}

void emit_instant(const char* name, std::int64_t arg0, std::int64_t arg1) {
  if (!enabled()) return;
  push_event(name, EventKind::Instant, now_ns(), 0, 0, arg0, arg1);
}

void emit_counter(const char* name, std::uint64_t value) {
  if (!enabled()) return;
  push_event(name, EventKind::Counter, now_ns(), 0, value, 0, 0);
}

void emit_flow_begin(const char* name, std::uint64_t id) {
  if (!enabled()) return;
  push_event(name, EventKind::FlowBegin, now_ns(), 0, id, 0, 0);
}

void emit_flow_end(const char* name, std::uint64_t id) {
  if (!enabled()) return;
  push_event(name, EventKind::FlowEnd, now_ns(), 0, id, 0, 0);
}

void seed_flow_ids(std::uint64_t base) {
  g_flow_base.store(base, std::memory_order_relaxed);
}

std::uint64_t next_flow_id() {
  return g_flow_base.load(std::memory_order_relaxed) +
         g_flow_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

void set_thread_rank(int rank) { t_rank = rank; }

int thread_rank() { return t_rank; }

void set_thread_label(const char* role, int index) {
  t_role = role;
  t_role_index = index;
  if (t_ring) t_ring->set_label(make_label());
}

std::vector<ThreadTrace> drain_all() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    Registry& reg = registry();
    std::lock_guard lock(reg.mutex);
    rings = reg.rings;
  }
  std::vector<ThreadTrace> out;
  out.reserve(rings.size());
  for (const auto& ring : rings) out.push_back(ring->drain());
  return out;
}

void clear_all() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    Registry& reg = registry();
    std::lock_guard lock(reg.mutex);
    rings = reg.rings;
  }
  for (const auto& ring : rings) ring->clear();
}

void set_ring_capacity(std::size_t events) {
  g_capacity.store(
      clamp_capacity(events, "set_ring_capacity(" + std::to_string(events) + ")"),
      std::memory_order_relaxed);
}

std::size_t ring_capacity() { return g_capacity.load(std::memory_order_relaxed); }

std::size_t detail::ring_capacity_from_env(const char* s) {
  if (s == nullptr || *s == '\0') return kDefaultRingEvents;
  const std::string request = std::string("VPAR_TRACE_EVENTS=") + s;
  char* end = nullptr;
  // strtoull saturates at ULLONG_MAX on overflow, which then clamps.
  const unsigned long long n = std::strtoull(s, &end, 10);
  if (std::isdigit(static_cast<unsigned char>(*s)) == 0 || *end != '\0') {
    warn_capacity(request, "is not a number", kDefaultRingEvents);
    return kDefaultRingEvents;
  }
  if (n == 0) return kDefaultRingEvents;
  return clamp_capacity(n, request);
}

}  // namespace vpar::trace
