// The benchmark's own tests: every workload at its smoke size emits its
// metrics with their units, a wrong pinned reference fails a check, the span
// fold charges self time to layers, and counts repeat.
//
//   cmake --build .bench_build --target ledger_tests && .bench_build/ledger_tests

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace ledger {
namespace {

Report run_smoke(const std::string& workload, bool trace, bool broken = false) {
  Config config;
  config.workload = workload;
  config.seed = 7;
  config.seconds = 0.3;
  config.trace = trace;
  config.smoke = true;
  config.break_reference = broken;
  config.t0_ns = vpar::trace::now_ns();
  Report report;
  report.workload = workload;
  const Runner runner = find_workload(workload);
  EXPECT_NE(runner, nullptr);
  if (runner != nullptr) runner(config, report);
  return report;
}

const std::vector<std::string> kWorkloads = {"qcd_halo", "gtc_pic", "service_jobs"};

/// Per-layer metrics only one workload emits (the rest come from the shared
/// fold and counter emission).
std::set<std::string> own_layers(const std::string& workload) {
  if (workload == "qcd_halo") {
    return {"qcd.dslash_gflops", "qcd.dslash_bytes", "part.self_peer_bytes"};
  }
  if (workload == "service_jobs") {
    return {"service.submit_us", "service.queue_ms", "service.rejects",
            "simrt.dispatch_ms"};
  }
  return {};
}

std::set<std::string> shared_layers() {
  std::set<std::string> all;
  for (const auto& [name, unit] : layer_metrics()) all.insert(name);
  for (const char* own : {"qcd.dslash_gflops", "qcd.dslash_bytes", "part.self_peer_bytes",
                          "service.submit_us", "service.queue_ms", "service.rejects",
                          "simrt.dispatch_ms"}) {
    all.erase(own);
  }
  return all;
}

std::string unit_of(const std::string& name) {
  for (const auto& [n, unit] : layer_metrics()) {
    if (n == name) return unit;
  }
  return "";
}

TEST(Ledger, EndToEndMetricsEveryWorkload) {
  const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
      {"throughput_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"},
      {"peak_rss_mib", "MiB"}};
  for (const std::string& w : kWorkloads) {
    SCOPED_TRACE(w);
    const Report r = run_smoke(w, false);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_TRUE(r.failures.empty()) << (r.failures.empty() ? "" : r.failures.front());
    EXPECT_GT(r.attempted, 0u);
    EXPECT_GT(r.setup_s, 0.0);
    for (const auto& [name, unit] : kEndToEnd) {
      const auto it = r.metrics.find(name);
      ASSERT_NE(it, r.metrics.end()) << name;
      EXPECT_EQ(it->second.unit, unit) << name;
      EXPECT_GT(it->second.value, 0.0) << name;
    }
  }
}

TEST(Ledger, PerLayerMetricsEveryWorkload) {
  for (const std::string& w : kWorkloads) {
    SCOPED_TRACE(w);
    const Report r = run_smoke(w, true);
    EXPECT_EQ(r.failed, 0u) << (r.failures.empty() ? "" : r.failures.front());
    std::set<std::string> wanted = shared_layers();
    for (const std::string& own : own_layers(w)) wanted.insert(own);
    for (const std::string& name : wanted) {
      const auto it = r.metrics.find(name);
      ASSERT_NE(it, r.metrics.end()) << name;
      EXPECT_EQ(it->second.unit, unit_of(name)) << name;
    }
    EXPECT_GT(r.metrics.at("step.wall_ms").value, 0.0);
    EXPECT_GT(r.metrics.at("trace.overhead").value, 0.0);
    if (w == "qcd_halo") {
      EXPECT_GT(r.metrics.at("part.halo_bytes").value, 0.0);
      EXPECT_GT(r.metrics.at("qcd.dslash_ms").value, 0.0);
      EXPECT_EQ(r.metrics.at("loop.help_ms").value, 0.0);
    } else if (w == "gtc_pic") {
      EXPECT_EQ(r.metrics.at("part.exchange_ms").value, 0.0);
      EXPECT_EQ(r.metrics.at("part.halo_bytes").value, 0.0);
      EXPECT_EQ(r.metrics.at("part.messages").value, 0.0);
      EXPECT_GT(r.metrics.at("gtc.push_ms").value, 0.0);
    } else {
      EXPECT_GT(r.metrics.at("service.submit_us").value, 0.0);
      EXPECT_GT(r.metrics.at("comm.messages").value, 0.0);
    }
  }
}

TEST(Ledger, WrongReferenceFailsACheck) {
  for (const std::string& w : kWorkloads) {
    SCOPED_TRACE(w);
    const Report r = run_smoke(w, false, /*broken=*/true);
    EXPECT_GT(r.failed, 0u);
    EXPECT_FALSE(r.failures.empty());
    EXPECT_LE(r.failed, r.attempted);
  }
}

TEST(Ledger, CountsRepeatAcrossRuns) {
  const std::vector<std::string> kCounts = {"part.halo_bytes", "part.messages",
                                            "comm.messages",   "comm.bytes",
                                            "simd.vector_frac", "simd.avl",
                                            "qcd.dslash_bytes"};
  for (const std::string& w : {std::string("qcd_halo"), std::string("gtc_pic")}) {
    SCOPED_TRACE(w);
    const Report a = run_smoke(w, true);
    const Report b = run_smoke(w, true);
    for (const std::string& name : kCounts) {
      if (name == "qcd.dslash_bytes" && w != "qcd_halo") continue;
      EXPECT_EQ(a.metrics.at(name).value, b.metrics.at(name).value) << name;
    }
  }
}

TEST(Ledger, FoldChargesSelfTimeToLayers) {
  using vpar::trace::Event;
  using vpar::trace::EventKind;
  auto span = [](const char* name, std::uint64_t ts, std::uint64_t dur, int rank,
                 std::int64_t arg0 = 0) {
    Event e;
    e.name = name;
    e.ts_ns = ts;
    e.dur_ns = dur;
    e.rank = rank;
    e.arg0 = arg0;
    e.kind = EventKind::Span;
    return e;
  };
  // Rank 0: a 100 ns step holding a 60 ns exchange (with a 20 ns wait
  // inside) and a 30 ns loop chunk that stays with the step. A helper thread
  // runs a 10 ns chunk for rank 0 inside the step and one outside it.
  vpar::trace::ThreadTrace rank0;
  rank0.events = {span("bench.step", 1000, 100, 0), span("part.exchange", 1010, 60, 0),
                  span("comm.wait", 1020, 20, 0), span("loop.chunk", 1070, 30, 0),
                  span("qcd.dslash", 2000, 50, 0)};
  vpar::trace::ThreadTrace helper;
  helper.events = {span("loop.help", 1075, 10, -1, 0), span("loop.help", 3000, 10, -1, 0)};
  const Fold fold = fold_spans({rank0, helper}, "bench.step", default_layer);
  EXPECT_EQ(fold.rank0_units(), 1u);
  EXPECT_DOUBLE_EQ(fold.unit_wall_ms(), 100e-6);
  EXPECT_DOUBLE_EQ(fold.per_unit_ms("part.exchange"), 40e-6);
  EXPECT_DOUBLE_EQ(fold.per_unit_ms("comm.wait"), 20e-6);
  EXPECT_DOUBLE_EQ(fold.per_unit_ms("unattributed"), 40e-6);
  EXPECT_DOUBLE_EQ(fold.per_unit_ms("qcd.dslash"), 0.0);  // outside any step
  EXPECT_DOUBLE_EQ(fold.owner_chunk_ms(), 30e-6);
  EXPECT_EQ(fold.help_chunks, 1u);
  EXPECT_DOUBLE_EQ(fold.help_ns, 10.0);
}

}  // namespace
}  // namespace ledger
