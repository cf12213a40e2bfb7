#include "trace/trace.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace vpar::trace {

namespace {

constexpr std::size_t kDefaultRingEvents = 8192;

/// Capacity of rings created from now on (a power of two); 0 until
/// VPAR_TRACE_EVENTS has been read or set_ring_capacity called.
std::atomic<std::size_t> g_capacity{0};

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Parse VPAR_TRACE_EVENTS (a rejected value throws, publishing nothing)
/// and publish it unless a capacity was already set.
void read_capacity_env() {
  std::size_t unread = 0;
  g_capacity.compare_exchange_strong(
      unread, detail::ring_capacity_from_env(std::getenv("VPAR_TRACE_EVENTS")),
      std::memory_order_relaxed);
}

}  // namespace

namespace detail {

std::atomic<int> g_mode{kModeUnread};

Mode mode_from_env(const char* value) {
  if (value == nullptr || *value == '\0') return Mode::Off;
  const std::string v(value);
  if (v == "off") return Mode::Off;
  if (v == "flight" || v == "on" || v == "1") return Mode::Flight;
  if (v == "full") return Mode::Full;
  throw std::invalid_argument("VPAR_TRACE='" + v +
                              "' is not a trace mode: expected off|flight|on|1|full");
}

std::size_t ring_capacity_from_env(const char* value) {
  if (value == nullptr || *value == '\0') return kDefaultRingEvents;
  char* end = nullptr;
  // strtoull saturates at ULLONG_MAX on overflow, which the bound rejects.
  const unsigned long long n = std::strtoull(value, &end, 10);
  if (std::isdigit(static_cast<unsigned char>(*value)) == 0 || *end != '\0' ||
      n > kMaxRingEvents) {
    throw std::invalid_argument(
        std::string("VPAR_TRACE_EVENTS='") + value +
        "' is not a ring capacity: expected a whole number <= " +
        std::to_string(kMaxRingEvents) + " (0 or unset: " +
        std::to_string(kDefaultRingEvents) + ")");
  }
  return n == 0 ? kDefaultRingEvents : round_up_pow2(n);
}

int read_mode_env() {
  const int parsed = static_cast<int>(mode_from_env(std::getenv("VPAR_TRACE")));
  // VPAR_TRACE_EVENTS is read with the mode, so the callers that resolve the
  // mode before starting threads also reject a bad capacity; a thread's
  // first emit only loads the published value.
  read_capacity_env();
  int current = kModeUnread;
  // A set_mode() that got in first wins over the environment.
  g_mode.compare_exchange_strong(current, parsed, std::memory_order_relaxed);
  return current == kModeUnread ? parsed : current;
}

}  // namespace detail

namespace {

int mode_word() {
  const int m = detail::g_mode.load(std::memory_order_relaxed);
  return m == detail::kModeUnread ? detail::read_mode_env() : m;
}

}  // namespace

Mode mode() { return static_cast<Mode>(mode_word()); }

void set_mode(Mode mode) {
  // A mode set in code skips the VPAR_TRACE read, not VPAR_TRACE_EVENTS.
  if (g_capacity.load(std::memory_order_relaxed) == 0) read_capacity_env();
  detail::g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

bool full_mode() { return mode_word() == static_cast<int>(Mode::Full); }

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

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
    t_ring = std::make_shared<Ring>(ring_capacity(), make_label(),
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
  if (events > kMaxRingEvents) {
    std::fprintf(stderr,
                 "vpar trace: set_ring_capacity(%zu) is above the maximum; "
                 "using %zu events per thread\n",
                 events, kMaxRingEvents);
    events = kMaxRingEvents;
  }
  g_capacity.store(round_up_pow2(events > 0 ? events : 1), std::memory_order_relaxed);
}

std::size_t ring_capacity() {
  const std::size_t capacity = g_capacity.load(std::memory_order_relaxed);
  return capacity != 0 ? capacity : kDefaultRingEvents;
}

}  // namespace vpar::trace
