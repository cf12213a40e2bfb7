#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace vpar::trace {

/// Process-wide tracing mode (VPAR_TRACE environment variable seeds it):
///  - Off:    emit functions return immediately; a disabled span is two
///            predictable branches and no stores (the "compiled to near-zero
///            cost" contract the always-on claim rests on).
///  - Flight: flight-recorder mode — every thread writes into a fixed-size
///            ring and the newest events overwrite the oldest. Bounded
///            memory, zero allocation on the hot path, always safe to leave
///            on; post-mortem dumps show the last moments before a failure.
///  - Full:   as Flight, but a full ring is spilled to a side buffer instead
///            of overwriting, so no event is lost (unbounded memory; for
///            short diagnostic runs, not production).
enum class Mode : int { Off = 0, Flight = 1, Full = 2 };

namespace detail {
extern std::atomic<int> g_mode;
}

/// Cheapest possible enabled check — one relaxed atomic load, inlined into
/// every instrumentation site.
inline bool enabled() {
  return detail::g_mode.load(std::memory_order_relaxed) != 0;
}

[[nodiscard]] Mode mode();
void set_mode(Mode mode);

/// True only in Full mode (lossless spill instead of ring overwrite).
[[nodiscard]] bool full_mode();

// --- event model ------------------------------------------------------------

/// What one ring slot records. Spans are stored complete (begin timestamp +
/// duration written by the RAII TraceSpan on scope exit) so a span costs one
/// slot, not two.
enum class EventKind : std::uint8_t {
  Span,       // ts_ns = start, dur_ns = duration
  Instant,    // point event (fault injections, watchdog verdicts, aborts)
  Counter,    // sampled value (id = value)
  FlowBegin,  // message leaves a rank (id = flow id, pairs with FlowEnd)
  FlowEnd,    // message matched at the receiver (same flow id)
};

/// Fixed-size POD event. `name` must be a string literal (or otherwise
/// immortal) — the ring stores the pointer, never the characters. `rank` is
/// the simulated rank the emitting thread was executing when the event fired
/// (-1 outside any rank body); `arg0`/`arg1` are free-form per-site arguments
/// (destination, tag, chunk bounds, ...), exported as args in the JSON.
struct Event {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t id = 0;
  std::int64_t arg0 = 0;
  std::int64_t arg1 = 0;
  std::int32_t rank = -1;
  EventKind kind = EventKind::Instant;
};

/// Monotonic timestamp shared by every event (steady clock, nanoseconds).
[[nodiscard]] std::uint64_t now_ns();

// --- emission ---------------------------------------------------------------

/// All emit functions are safe from any thread (each thread owns its ring),
/// no-ops when tracing is Off, and never allocate in Flight mode after the
/// thread's ring exists.
void emit_span(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
               std::int64_t arg0 = 0, std::int64_t arg1 = 0);
void emit_instant(const char* name, std::int64_t arg0 = 0, std::int64_t arg1 = 0);
void emit_counter(const char* name, std::uint64_t value);
void emit_flow_begin(const char* name, std::uint64_t id);
void emit_flow_end(const char* name, std::uint64_t id);

/// Process-unique flow id for pairing a send with its receive-side match.
[[nodiscard]] std::uint64_t next_flow_id();

/// Offset every subsequently-drawn flow id by `base`. The distributed
/// bootstrap seeds each rank process with (rank + 1) << 40 so flow ids stay
/// globally unique across a multi-process job: the id travels in the frame
/// header, the receiving process emits the paired FlowEnd, and a merged
/// Perfetto trace still draws every send→recv arrow (docs/transport.md).
void seed_flow_ids(std::uint64_t base);

/// RAII span: captures the start time on construction, emits one Span event
/// on destruction. When tracing is Off at construction the destructor does
/// nothing — a disabled span never reads the clock.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::int64_t arg0 = 0,
                     std::int64_t arg1 = 0)
      : name_(enabled() ? name : nullptr),
        arg0_(arg0),
        arg1_(arg1),
        start_(name_ != nullptr ? now_ns() : 0) {}
  ~TraceSpan() {
    if (name_ != nullptr) emit_span(name_, start_, now_ns() - start_, arg0_, arg1_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  std::int64_t arg0_;
  std::int64_t arg1_;
  std::uint64_t start_;
};

// --- thread attribution -----------------------------------------------------

/// Simulated rank currently executing on this thread (stamped into every
/// event); -1 means "not inside a rank body". Set by the simrt executor.
void set_thread_rank(int rank);
[[nodiscard]] int thread_rank();

/// Display name of this thread's timeline in exported traces, e.g.
/// ("worker", 3) -> "worker 3". `role` must be immortal; index < 0 omits it.
void set_thread_label(const char* role, int index = -1);

// --- drain / export (quiesced callers) --------------------------------------

/// One thread's recorded timeline: label, stable thread index (export tid),
/// events in emission order, and how many older events the flight ring
/// overwrote (0 in Full mode).
struct ThreadTrace {
  std::string label;
  int tid = 0;
  std::uint64_t overwritten = 0;
  std::vector<Event> events;
};

/// Snapshot every thread's ring (including rings of threads that have since
/// exited — the registry keeps them alive, which is exactly what a post-
/// mortem wants). Callers must be quiesced with respect to writers: the
/// runtime drains after a job has fully drained, when every worker is parked.
[[nodiscard]] std::vector<ThreadTrace> drain_all();

/// Drop all recorded events (test isolation). Same quiescence contract.
void clear_all();

/// Largest ring capacity: 2^20 events per thread (56 MiB per thread at 56
/// bytes per event). VPAR_TRACE_EVENTS and set_ring_capacity clamp to it.
inline constexpr std::size_t kMaxRingEvents = std::size_t{1} << 20;

/// Ring capacity (events per thread) for rings created after this call.
/// Defaults to VPAR_TRACE_EVENTS or 8192; rounded up to a power of two and
/// clamped to kMaxRingEvents. A clamped value, or a VPAR_TRACE_EVENTS that
/// is not a number (it then falls back to 8192), prints one stderr warning.
void set_ring_capacity(std::size_t events);

/// Capacity of rings created from now on (a power of two).
[[nodiscard]] std::size_t ring_capacity();

namespace detail {
/// The ring capacity a VPAR_TRACE_EVENTS value selects (null, empty or 0:
/// the 8192 default); the parser behind the default, exposed for tests.
[[nodiscard]] std::size_t ring_capacity_from_env(const char* value);
}  // namespace detail

}  // namespace vpar::trace
