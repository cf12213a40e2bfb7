// Span fold and per-layer metric emission: turns the trace rings the program
// already writes (inside the benchmark's own unit spans) into per-layer self
// time per unit of work, and registry counter deltas into per-unit counts.

#include <algorithm>
#include <utility>

#include "ledger.hpp"

namespace ledger {

namespace {

struct Frame {
  std::uint64_t end = 0;
  std::uint64_t dur = 0;
  double child_ns = 0.0;
  const char* layer = "unattributed";
  bool in_unit = false;
  int rank = -1;
};

using Interval = std::pair<std::uint64_t, std::uint64_t>;  // [start, end)

bool inside(const std::vector<Interval>& sorted, std::uint64_t ts) {
  auto it = std::upper_bound(sorted.begin(), sorted.end(),
                             Interval{ts, ~std::uint64_t{0}});
  return it != sorted.begin() && ts < std::prev(it)->second;
}

template <typename Map>
double sum_values(const Map& m) {
  double s = 0.0;
  for (const auto& [k, v] : m) s += static_cast<double>(v);
  return s;
}

}  // namespace

Fold fold_spans(const std::vector<vpar::trace::ThreadTrace>& threads,
                std::string_view unit_span, const LayerOf& layer_of) {
  using vpar::trace::Event;
  using vpar::trace::EventKind;
  Fold fold;
  std::map<int, std::vector<Interval>> unit_intervals;
  std::vector<const Event*> help;

  for (const auto& thread : threads) {
    std::vector<const Event*> spans;
    for (const Event& e : thread.events) {
      if (e.kind != EventKind::Span || e.name == nullptr) continue;
      spans.push_back(&e);
    }
    // Parents start no later and end no earlier than their children.
    std::sort(spans.begin(), spans.end(), [](const Event* a, const Event* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
    });

    std::vector<Frame> stack;
    auto pop = [&] {
      const Frame f = stack.back();
      stack.pop_back();
      if (f.in_unit && f.rank >= 0) {
        fold.layer_ns[f.rank][f.layer] +=
            std::max(0.0, static_cast<double>(f.dur) - f.child_ns);
      }
    };
    for (const Event* e : spans) {
      while (!stack.empty() && stack.back().end <= e->ts_ns) pop();
      const std::string_view name = e->name;
      auto& totals = fold.totals[std::string(name)];
      ++totals.count;
      totals.total_ns += static_cast<double>(e->dur_ns);
      if (name == "loop.help") help.push_back(e);

      Frame* parent = stack.empty() ? nullptr : &stack.back();
      Frame f;
      f.end = e->ts_ns + e->dur_ns;
      f.dur = e->dur_ns;
      f.rank = e->rank;
      f.in_unit = parent != nullptr && parent->in_unit;
      if (name == unit_span && e->rank >= 0) {
        f.in_unit = true;
        f.layer = "unattributed";
        fold.unit_ns[e->rank] += static_cast<double>(e->dur_ns);
        ++fold.units[e->rank];
        unit_intervals[e->rank].emplace_back(e->ts_ns, f.end);
      } else if (const char* layer = layer_of(name)) {
        f.layer = layer;
      } else {
        f.layer = parent != nullptr ? parent->layer : "unattributed";
      }
      if (name == "loop.chunk" && f.in_unit && f.rank >= 0) {
        fold.owner_chunk_ns[f.rank] += static_cast<double>(e->dur_ns);
      }
      if (parent != nullptr) parent->child_ns += static_cast<double>(e->dur_ns);
      stack.push_back(f);
    }
    while (!stack.empty()) pop();
  }

  // Helper chunks run on threads outside any rank; arg0 names the owner.
  for (auto& [rank, iv] : unit_intervals) std::sort(iv.begin(), iv.end());
  for (const Event* e : help) {
    const auto it = unit_intervals.find(static_cast<int>(e->arg0));
    if (it == unit_intervals.end() || !inside(it->second, e->ts_ns)) continue;
    fold.help_ns += static_cast<double>(e->dur_ns);
    ++fold.help_chunks;
  }
  return fold;
}

double Fold::per_unit_ms(const std::string& layer) const {
  double ns = 0.0;
  for (const auto& [rank, layers] : layer_ns) {
    const auto it = layers.find(layer);
    if (it != layers.end()) ns += it->second;
  }
  const double n = sum_values(units);
  return n > 0.0 ? ns * 1e-6 / n : 0.0;
}

double Fold::unit_wall_ms() const {
  const double n = sum_values(units);
  return n > 0.0 ? sum_values(unit_ns) * 1e-6 / n : 0.0;
}

double Fold::owner_chunk_ms() const {
  const double n = sum_values(units);
  return n > 0.0 ? sum_values(owner_chunk_ns) * 1e-6 / n : 0.0;
}

std::uint64_t Fold::rank0_units() const {
  const auto it = units.find(0);
  return it == units.end() ? 0 : it->second;
}

const char* default_layer(std::string_view name) {
  static const std::pair<std::string_view, const char*> kLayers[] = {
      {"qcd.dslash", "qcd.dslash"},
      {"part.exchange", "part.exchange"},
      {"comm.wait", "comm.wait"},
      {"comm.recv", "comm.wait"},
      {"comm.isend", "comm.post"},
      {"comm.irecv", "comm.post"},
      {"comm.send", "comm.post"},
      {"comm.allreduce", "comm.allreduce"},
      {"gtc.deposit", "gtc.deposit"},
      {"gtc.solve", "gtc.solve"},
      {"gtc.push", "gtc.push"},
      {"gtc.shift", "gtc.shift"},
  };
  // A loop chunk is kernel work done on behalf of the enclosing layer.
  if (name == "loop.chunk") return nullptr;
  for (const auto& [span, layer] : kLayers) {
    if (span == name) return layer;
  }
  return "unattributed";
}

// --- counters -------------------------------------------------------------------

double Counts::counter(const std::string& name) const {
  const auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double Counts::hist_count(const std::string& name) const {
  const auto it = delta.histograms.find(name);
  return it == delta.histograms.end() ? 0.0
                                      : static_cast<double>(it->second.count());
}

double Counts::hist_sum(const std::string& name) const {
  const auto it = delta.histograms.find(name);
  return it == delta.histograms.end() ? 0.0 : static_cast<double>(it->second.sum);
}

void Counts::add(const vpar::trace::MetricsSnapshot& d) {
  for (const auto& [name, v] : d.counters) delta.counters[name] += v;
  for (const auto& [name, h] : d.histograms) {
    auto& mine = delta.histograms[name];
    for (std::size_t b = 0; b < h.buckets.size(); ++b) mine.buckets[b] += h.buckets[b];
    mine.sum += h.sum;
  }
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"step.wall_ms", "ms"},
      {"step.unattributed_ms", "ms"},
      {"trace.overhead", "ratio"},
      {"qcd.dslash_ms", "ms"},
      {"qcd.dslash_gflops", "GFLOP/s"},
      {"qcd.dslash_bytes", "B_computed"},
      {"part.exchange_ms", "ms"},
      {"part.halo_bytes", "B"},
      {"part.messages", "count"},
      {"part.self_peer_bytes", "B"},
      {"comm.wait_ms", "ms"},
      {"comm.post_ms", "ms"},
      {"comm.allreduce_ms", "ms"},
      {"comm.messages", "count"},
      {"comm.bytes", "B"},
      {"arena.payload_allocs", "count"},
      {"arena.recycle_frac", "ratio"},
      {"loop.owner_ms", "ms"},
      {"loop.help_ms", "ms"},
      {"loop.help_frac", "ratio"},
      {"loop.helper_chunks", "count"},
      {"gtc.deposit_ms", "ms"},
      {"gtc.solve_ms", "ms"},
      {"gtc.push_ms", "ms"},
      {"gtc.shift_ms", "ms"},
      {"simd.vector_frac", "ratio"},
      {"simd.avl", "lanes"},
      {"service.submit_us", "us"},
      {"service.queue_ms", "ms"},
      {"service.rejects", "count"},
      {"simrt.dispatch_ms", "ms"},
  };
  return kMetrics;
}

void emit_counts(Report& report, const Counts& c, double units) {
  auto per = [&](double v) { return units > 0.0 ? v / units : 0.0; };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  report.set("part.halo_bytes", per(c.counter("part.halo_bytes")), "B");
  report.set("part.messages", per(c.hist_count("part.halo_message_bytes")), "count");
  report.set("comm.messages", per(c.counter("comm.messages")), "count");
  report.set("comm.bytes", per(c.counter("comm.bytes")), "B");
  const double allocs = c.counter("arena.payload_allocs");
  const double recycles = c.counter("arena.payload_recycles");
  const double inlines = c.counter("arena.payload_inlines");
  report.set("arena.payload_allocs", per(allocs), "count");
  report.set("arena.recycle_frac", ratio(recycles, allocs + recycles + inlines),
             "ratio");
  report.set("loop.helper_chunks", per(c.counter("simrt.helper_chunks")), "count");
  const double vec = c.counter("simd.vector_iters");
  report.set("simd.vector_frac", ratio(vec, vec + c.counter("simd.remainder_iters")),
             "ratio");
  report.set("simd.avl",
             ratio(c.hist_sum("simd.lanes_active"), c.hist_count("simd.lanes_active")),
             "lanes");
}

void emit_fold(Report& report, const Fold& fold) {
  report.set("step.wall_ms", fold.unit_wall_ms(), "ms");
  double sum = fold.per_unit_ms("unattributed");
  report.set("step.unattributed_ms", sum, "ms");
  for (const char* layer : {"qcd.dslash", "part.exchange", "comm.wait", "comm.post",
                            "comm.allreduce", "gtc.deposit", "gtc.solve", "gtc.push",
                            "gtc.shift"}) {
    const double ms = fold.per_unit_ms(layer);
    report.set(std::string(layer) + "_ms", ms, "ms");
    sum += ms;
  }
  report.detail["layer_sum_ms"] = sum;
  const double owner = fold.owner_chunk_ms();
  const double units = sum_values(fold.units);
  const double help = units > 0.0 ? fold.help_ns * 1e-6 / units : 0.0;
  report.set("loop.owner_ms", owner, "ms");
  report.set("loop.help_ms", help, "ms");
  report.set("loop.help_frac", owner + help > 0.0 ? help / (owner + help) : 0.0,
             "ratio");
}

}  // namespace ledger
