#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "simrt/runtime.hpp"
#include "trace/chrome_export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace vpar::trace {
namespace {

using namespace std::chrono_literals;

/// Save/restore the global trace mode around each test (the registry and its
/// rings are process-lived, so tests clear them instead).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = mode();
    clear_all();
  }
  void TearDown() override {
    set_mode(saved_);
    clear_all();
  }

 private:
  Mode saved_ = Mode::Off;
};

std::vector<Event> all_events() {
  std::vector<Event> out;
  for (const auto& t : drain_all()) {
    out.insert(out.end(), t.events.begin(), t.events.end());
  }
  return out;
}

/// Post-mortem dumps in `dir` ending in `suffix`, sorted (filenames carry a
/// per-failure timestamp + sequence stamp, so tests glob instead of guessing).
std::vector<std::string> postmortem_files(const std::string& dir,
                                          const std::string& suffix) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("vpar_postmortem.", 0) == 0 && name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- minimal JSON parser (validation only) ----------------------------------
// Just enough of RFC 8259 to verify the exporter emits a well-formed document
// and to walk the traceEvents array. Throws std::runtime_error on malformed
// input.

struct JsonParser {
  const std::string& s;
  std::size_t i = 0;

  explicit JsonParser(const std::string& text) : s(text) {}

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) ++i;
  }
  char peek() {
    ws();
    if (i >= s.size()) throw std::runtime_error("json: unexpected end");
    return s[i];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("json: expected '") + c + "' at " +
                               std::to_string(i));
    }
    ++i;
  }
  std::string string() {
    expect('"');
    std::string out;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) throw std::runtime_error("json: bad escape");
        switch (s[i]) {
          case 'u':
            if (i + 4 >= s.size()) throw std::runtime_error("json: bad \\u");
            i += 4;
            out += '?';
            break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: out += s[i];
        }
      } else {
        out += s[i];
      }
      ++i;
    }
    expect('"');
    return out;
  }
  void number() {
    if (peek() == '-') ++i;
    bool digits = false;
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) != 0 ||
                            s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                            s[i] == '+' || s[i] == '-')) {
      ++i;
      digits = true;
    }
    if (!digits) throw std::runtime_error("json: bad number");
  }
  void literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++i) {
      if (i >= s.size() || s[i] != *p) throw std::runtime_error("json: bad literal");
    }
  }

  /// Parse any value; calls `on_object_key(key)` for every key of every
  /// object so callers can inspect structure without building a DOM.
  void value(const std::function<void(const std::string&)>& on_object_key) {
    switch (peek()) {
      case '{': {
        expect('{');
        if (peek() == '}') { expect('}'); return; }
        for (;;) {
          const std::string key = string();
          if (on_object_key) on_object_key(key);
          expect(':');
          value(on_object_key);
          if (peek() == ',') { expect(','); continue; }
          expect('}');
          return;
        }
      }
      case '[': {
        expect('[');
        if (peek() == ']') { expect(']'); return; }
        for (;;) {
          value(on_object_key);
          if (peek() == ',') { expect(','); continue; }
          expect(']');
          return;
        }
      }
      case '"': string(); return;
      case 't': literal("true"); return;
      case 'f': literal("false"); return;
      case 'n': literal("null"); return;
      default: number(); return;
    }
  }
};

/// Validate `text` as JSON; returns the multiset of object keys seen.
std::map<std::string, int> parse_json_keys(const std::string& text) {
  std::map<std::string, int> keys;
  JsonParser p(text);
  p.value([&](const std::string& k) { ++keys[k]; });
  p.ws();
  if (p.i != text.size()) throw std::runtime_error("json: trailing garbage");
  return keys;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- ring behaviour ----------------------------------------------------------

TEST_F(TraceTest, DisabledModeRecordsNothing) {
  set_mode(Mode::Off);
  const std::size_t before = all_events().size();
  emit_instant("should.not.appear");
  { TraceSpan span("also.not.appear"); }
  emit_counter("nor.this", 42);
  EXPECT_EQ(all_events().size(), before);
}

TEST_F(TraceTest, FlightRingWrapsOverwritingOldest) {
  set_mode(Mode::Flight);
  set_ring_capacity(16);
  // A fresh thread gets a fresh ring at the small capacity.
  std::thread t([] {
    set_thread_label("wrap-probe");
    for (int i = 0; i < 50; ++i) emit_instant("wrap", i);
  });
  t.join();
  set_ring_capacity(8192);  // restore for later tests' fresh threads

  bool found = false;
  for (const auto& tt : drain_all()) {
    if (tt.label != "wrap-probe") continue;
    found = true;
    EXPECT_EQ(tt.events.size(), 16u);
    EXPECT_EQ(tt.overwritten, 34u);
    // Flight keeps the *newest* events: 50 emitted, the last 16 survive.
    EXPECT_EQ(tt.events.front().arg0, 34);
    EXPECT_EQ(tt.events.back().arg0, 49);
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceTest, FullModeSpillsInsteadOfOverwriting) {
  set_mode(Mode::Full);
  set_ring_capacity(16);
  std::thread t([] {
    set_thread_label("spill-probe");
    for (int i = 0; i < 50; ++i) emit_instant("spill", i);
  });
  t.join();
  set_ring_capacity(8192);

  bool found = false;
  for (const auto& tt : drain_all()) {
    if (tt.label != "spill-probe") continue;
    found = true;
    EXPECT_EQ(tt.events.size(), 50u);  // lossless
    EXPECT_EQ(tt.overwritten, 0u);
    EXPECT_EQ(tt.events.front().arg0, 0);
    EXPECT_EQ(tt.events.back().arg0, 49);
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceTest, RingCapacityClampsToTheMaximum) {
  set_ring_capacity(SIZE_MAX);  // rounding SIZE_MAX up used to loop forever
  EXPECT_EQ(ring_capacity(), kMaxRingEvents);
  set_ring_capacity(kMaxRingEvents + 1);
  EXPECT_EQ(ring_capacity(), kMaxRingEvents);
  set_ring_capacity(100);
  EXPECT_EQ(ring_capacity(), 128u);
  set_ring_capacity(0);
  EXPECT_EQ(ring_capacity(), 1u);
  set_ring_capacity(8192);
}

// VPAR_TRACE_EVENTS is parsed strictly: a whole number up to the maximum,
// rounded up to a power of two; 0, empty or unset select 8192. Anything else
// throws and names the accepted form. (Out-of-range values once aborted the
// process when the first ring was allocated; later they were clamped, and a
// non-number fell back to 8192, each with a warning.)
TEST(TraceEnv, EventsParserAcceptsWholeNumbersUpToTheMaximum) {
  EXPECT_EQ(detail::ring_capacity_from_env("1000"), 1024u);
  EXPECT_EQ(detail::ring_capacity_from_env("1048576"), kMaxRingEvents);
  EXPECT_EQ(detail::ring_capacity_from_env("0"), 8192u);
  EXPECT_EQ(detail::ring_capacity_from_env(""), 8192u);
  EXPECT_EQ(detail::ring_capacity_from_env(nullptr), 8192u);
  for (const char* bad : {"99999999999999999999", "4294967296", "1048577", "many",
                          "64k", "-5", "+5", " 5", "5 "}) {
    try {
      (void)detail::ring_capacity_from_env(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("whole number <= 1048576"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
}

// VPAR_TRACE is parsed strictly: a typo throws and names the accepted values
// instead of silently leaving tracing off.
TEST(TraceEnv, ModeParserAcceptsTheDocumentedValuesOnly) {
  EXPECT_EQ(detail::mode_from_env(nullptr), Mode::Off);
  EXPECT_EQ(detail::mode_from_env(""), Mode::Off);
  EXPECT_EQ(detail::mode_from_env("off"), Mode::Off);
  EXPECT_EQ(detail::mode_from_env("flight"), Mode::Flight);
  EXPECT_EQ(detail::mode_from_env("on"), Mode::Flight);
  EXPECT_EQ(detail::mode_from_env("1"), Mode::Flight);
  EXPECT_EQ(detail::mode_from_env("full"), Mode::Full);
  for (const char* bad : {"fligth", "FULL", "0", "yes", " on"}) {
    try {
      (void)detail::mode_from_env(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("off|flight|on|1|full"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
}

// The variable is read on first use, not by a static initializer, so a
// rejected value throws to a caller, and keeps throwing until it is fixed.
// simrt::run reads it before it starts any rank.
TEST_F(TraceTest, ModeIsReadOnFirstUse) {
  ASSERT_EQ(setenv("VPAR_TRACE", "flihgt", 1), 0);
  detail::g_mode.store(detail::kModeUnread);
  EXPECT_THROW((void)enabled(), std::invalid_argument);
  EXPECT_THROW((void)mode(), std::invalid_argument);
  bool ran = false;
  EXPECT_THROW(simrt::run(1, [&](simrt::Communicator&) { ran = true; }),
               std::invalid_argument);
  EXPECT_FALSE(ran);
  ASSERT_EQ(setenv("VPAR_TRACE", "full", 1), 0);
  EXPECT_TRUE(enabled());
  EXPECT_EQ(mode(), Mode::Full);
  unsetenv("VPAR_TRACE");
}

// VPAR_TRACE_EVENTS is read with VPAR_TRACE, so a bad capacity throws to
// simrt::run before any rank starts, never from a thread's first emit.
TEST_F(TraceTest, EventsAreReadWithTheMode) {
  ASSERT_EQ(setenv("VPAR_TRACE_EVENTS", "64k", 1), 0);
  detail::g_mode.store(detail::kModeUnread);
  EXPECT_THROW((void)enabled(), std::invalid_argument);
  EXPECT_THROW((void)mode(), std::invalid_argument);
  bool ran = false;
  EXPECT_THROW(simrt::run(1, [&](simrt::Communicator&) { ran = true; }),
               std::invalid_argument);
  EXPECT_FALSE(ran);
  ASSERT_EQ(setenv("VPAR_TRACE_EVENTS", "1000", 1), 0);
  EXPECT_NO_THROW((void)mode());
  unsetenv("VPAR_TRACE_EVENTS");
}

TEST_F(TraceTest, SpanRecordsDurationAndThreadRank) {
  set_mode(Mode::Flight);
  set_thread_rank(3);
  {
    TraceSpan span("timed.region", 7, 9);
    std::this_thread::sleep_for(2ms);
  }
  set_thread_rank(-1);
  bool found = false;
  for (const Event& e : all_events()) {
    if (e.name == nullptr || std::string(e.name) != "timed.region") continue;
    found = true;
    EXPECT_EQ(e.kind, EventKind::Span);
    EXPECT_GE(e.dur_ns, 1'000'000u);
    EXPECT_EQ(e.rank, 3);
    EXPECT_EQ(e.arg0, 7);
    EXPECT_EQ(e.arg1, 9);
  }
  EXPECT_TRUE(found);
}

// Many threads emitting concurrently into their own rings; the test exists
// mainly so TSan (scripts/check.sh runs this binary under -fsanitize=thread)
// proves the emit path free of data races. Drain happens strictly after the
// joins — the documented quiescence contract.
TEST_F(TraceTest, ConcurrentEmitIsCleanUnderTsan) {
  set_mode(Mode::Flight);
  constexpr int kThreads = 8;
  constexpr int kEvents = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      set_thread_label("emitter", t);
      for (int i = 0; i < kEvents; ++i) {
        TraceSpan span("concurrent.work", t, i);
        if (i % 64 == 0) emit_counter("concurrent.progress", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();

  std::size_t emitters = 0;
  for (const auto& tt : drain_all()) {
    if (tt.label.rfind("emitter", 0) == 0 && !tt.events.empty()) ++emitters;
  }
  EXPECT_EQ(emitters, static_cast<std::size_t>(kThreads));
}

// --- exporter ----------------------------------------------------------------

TEST_F(TraceTest, ChromeExportIsValidJson) {
  set_mode(Mode::Flight);
  set_thread_rank(0);
  emit_instant("export.instant", 1, 2);
  { TraceSpan span("export.span", 3, 4); }
  emit_counter("export.counter", 11);
  const std::uint64_t flow = next_flow_id();
  emit_flow_begin("msg", flow);
  emit_flow_end("msg", flow);
  set_thread_rank(-1);

  const std::string path = ::testing::TempDir() + "vpar_trace_export.json";
  ASSERT_TRUE(export_chrome_trace(path, "unit test"));
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());

  std::map<std::string, int> keys;
  ASSERT_NO_THROW(keys = parse_json_keys(text)) << text.substr(0, 400);
  EXPECT_EQ(keys.count("traceEvents"), 1u);
  EXPECT_GE(keys["ph"], 5);  // metadata + our five events
  EXPECT_EQ(keys.count("otherData"), 1u);
  EXPECT_EQ(keys.count("reason"), 1u);
  // The document names our events.
  EXPECT_NE(text.find("\"export.span\""), std::string::npos);
  EXPECT_NE(text.find("\"export.instant\""), std::string::npos);
  EXPECT_NE(text.find("\"unit test\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, ExporterEscapesReasonStrings) {
  set_mode(Mode::Flight);
  emit_instant("escape.probe");
  std::ostringstream out;
  write_chrome_trace(out, drain_all(), "line1\nline2 \"quoted\" \\slash");
  ASSERT_NO_THROW(parse_json_keys(out.str())) << out.str();
}

// --- runtime integration -----------------------------------------------------

TEST_F(TraceTest, SendRecvProducesPairedFlowEvents) {
  set_mode(Mode::Flight);
  simrt::run(2, [](simrt::Communicator& comm) {
    std::vector<double> buf(64, static_cast<double>(comm.rank()));
    if (comm.rank() == 0) {
      auto req = comm.isend(1, std::vector<double>(buf), 5);
      req.wait();
    } else {
      comm.recv<double>(0, std::span<double>(buf), 5);
    }
  });

  std::multiset<std::uint64_t> begins, ends;
  for (const Event& e : all_events()) {
    if (e.kind == EventKind::FlowBegin) begins.insert(e.id);
    if (e.kind == EventKind::FlowEnd) ends.insert(e.id);
  }
  ASSERT_FALSE(begins.empty());
  // Every send that was matched has exactly one receive-side flow end.
  for (std::uint64_t id : ends) EXPECT_EQ(begins.count(id), 1u) << id;
  EXPECT_EQ(begins.size(), ends.size());
}

TEST_F(TraceTest, JobSpansCarryRankAttribution) {
  set_mode(Mode::Flight);
  simrt::run(4, [](simrt::Communicator& comm) { comm.barrier(); });

  std::set<int> job_ranks;
  bool saw_barrier = false;
  for (const Event& e : all_events()) {
    if (e.name == nullptr) continue;
    const std::string name(e.name);
    if (name == "job") job_ranks.insert(static_cast<int>(e.arg0));
    if (name == "comm.barrier") saw_barrier = true;
  }
  EXPECT_EQ(job_ranks, (std::set<int>{0, 1, 2, 3}));
  EXPECT_TRUE(saw_barrier);
}

TEST_F(TraceTest, WatchdogTimeoutWritesPostmortem) {
  set_mode(Mode::Flight);
  const std::string dir = ::testing::TempDir() + "pm_watchdog";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_EQ(setenv("VPAR_TRACE_DIR", dir.c_str(), 1), 0);

  simrt::RunOptions options;
  options.size = 2;
  options.watchdog = 300ms;
  EXPECT_THROW(simrt::run(options,
                          [](simrt::Communicator& comm) {
                            comm.barrier();  // both ranks leave a span
                            if (comm.rank() == 1) {
                              int v = 0;
                              comm.recv<int>(0, std::span<int>(&v, 1), 7);
                            }
                          }),
               simrt::WatchdogTimeout);
  unsetenv("VPAR_TRACE_DIR");

  // Filenames are per-failure (timestamp + sequence): find the dump instead
  // of assuming a fixed name.
  const std::vector<std::string> traces =
      postmortem_files(dir, ".trace.json");
  ASSERT_EQ(traces.size(), 1u);
  const std::string text = slurp(traces[0]);
  ASSERT_FALSE(text.empty());
  ASSERT_NO_THROW(parse_json_keys(text)) << text.substr(0, 400);
  // The dump carries the abort reason and the last moments of both ranks.
  EXPECT_NE(text.find("deadlock watchdog"), std::string::npos);
  EXPECT_NE(text.find("\"comm.barrier\""), std::string::npos);
  EXPECT_NE(text.find("\"watchdog.timeout\""), std::string::npos);
  // Spans from at least two distinct ranks (args carry the rank field).
  EXPECT_NE(text.find("\"rank\":0"), std::string::npos);
  EXPECT_NE(text.find("\"rank\":1"), std::string::npos);

  const std::vector<std::string> metrics_files =
      postmortem_files(dir, ".metrics.json");
  ASSERT_EQ(metrics_files.size(), 1u);
  const std::string metrics = slurp(metrics_files[0]);
  ASSERT_FALSE(metrics.empty());
  ASSERT_NO_THROW(parse_json_keys(metrics)) << metrics.substr(0, 400);
  EXPECT_NE(metrics.find("simrt.aborts_observed"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST_F(TraceTest, PostmortemSkippedWhenTracingOff) {
  set_mode(Mode::Off);
  EXPECT_EQ(write_postmortem("nothing to see"), "");
}

// Concurrent failing jobs used to overwrite one shared vpar_postmortem pair;
// filenames now carry a label, a timestamp and a sequence number, so every
// failure keeps its own dump.
TEST_F(TraceTest, PostmortemFilenamesAreUniqueAndLabelled) {
  set_mode(Mode::Flight);
  const std::string dir = ::testing::TempDir() + "pm_unique";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_EQ(setenv("VPAR_TRACE_DIR", dir.c_str(), 1), 0);
  emit_instant("pm.test");
  const std::string first = write_postmortem("first failure", "job-1");
  const std::string second = write_postmortem("second failure", "job-2");
  const std::string third = write_postmortem("unlabelled");
  unsetenv("VPAR_TRACE_DIR");

  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  ASSERT_FALSE(third.empty());
  EXPECT_NE(first, second);
  EXPECT_NE(second, third);
  EXPECT_NE(first.find("vpar_postmortem.job-1."), std::string::npos) << first;
  EXPECT_NE(second.find("vpar_postmortem.job-2."), std::string::npos) << second;
  // All three dumps (and their metrics snapshots) coexist on disk.
  EXPECT_EQ(postmortem_files(dir, ".trace.json").size(), 3u);
  EXPECT_EQ(postmortem_files(dir, ".metrics.json").size(), 3u);
  std::filesystem::remove_all(dir);
}

// --- fault-mode integration --------------------------------------------------

TEST_F(TraceTest, DroppedSendLeavesFaultInstantAndWatchdogFires) {
  set_mode(Mode::Flight);
  simrt::RunOptions options;
  options.size = 2;
  options.watchdog = 300ms;
  options.fault.seed = 11;
  options.fault.drop_prob = 1.0;  // every user send is lost
  EXPECT_THROW(simrt::run(options,
                          [](simrt::Communicator& comm) {
                            std::vector<double> buf(8, 1.0);
                            if (comm.rank() == 0) {
                              comm.send<double>(1, buf, 3);
                            } else {
                              comm.recv<double>(0, std::span<double>(buf), 3);
                            }
                          }),
               simrt::WatchdogTimeout);

  bool saw_drop = false;
  for (const Event& e : all_events()) {
    if (e.name != nullptr && std::string(e.name) == "fault.drop") saw_drop = true;
  }
  EXPECT_TRUE(saw_drop);
}

TEST_F(TraceTest, AllocFailureInjectionSurfacesAsRankError) {
  set_mode(Mode::Flight);
  simrt::RunOptions options;
  options.size = 2;
  options.fault.seed = 7;
  options.fault.alloc_fail_prob = 1.0;  // first arena acquire fails
  try {
    simrt::run(options, [](simrt::Communicator& comm) {
      // Payload above the 64-byte inline tier forces an arena acquire.
      std::vector<double> buf(4096, 2.0);
      const int peer = 1 - comm.rank();
      comm.sendrecv<double>(peer, buf, peer, std::span<double>(buf), 9);
    });
    FAIL() << "allocation-failure injection did not surface";
  } catch (const simrt::RankError& e) {
    EXPECT_NE(std::string(e.what()).find("injected arena allocation failure"),
              std::string::npos)
        << e.what();
  } catch (const simrt::JobAborted&) {
    // The non-failing rank may observe the cooperative abort first.
  }

  bool saw_alloc_fail = false;
  for (const Event& e : all_events()) {
    if (e.name != nullptr && std::string(e.name) == "fault.alloc_fail") {
      saw_alloc_fail = true;
    }
  }
  EXPECT_TRUE(saw_alloc_fail);
}

// --- metrics registry --------------------------------------------------------

TEST(Metrics, CountersAndHistogramsAccumulate) {
  auto& m = Metrics::instance();
  auto& c = m.counter("test.counter");
  const std::uint64_t before = c.value();
  c.add(3);
  EXPECT_EQ(c.value(), before + 3);
  EXPECT_EQ(&c, &m.counter("test.counter"));  // stable reference

  auto& h = m.histogram("test.histogram");
  const std::uint64_t count_before = h.count();
  h.record(0);
  h.record(1);
  h.record(1024);
  EXPECT_EQ(h.count(), count_before + 3);
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_limit(1), 1u);
  EXPECT_EQ(Histogram::bucket_limit(11), 2047u);
}

TEST(Metrics, SnapshotDiffIsolatesARegion) {
  auto& c = Metrics::instance().counter("test.diff");
  const MetricsSnapshot before = Metrics::instance().snapshot();
  c.add(5);
  const MetricsSnapshot after = Metrics::instance().snapshot();
  const MetricsSnapshot delta = after.diff(before);
  EXPECT_EQ(delta.counters.at("test.diff"), 5u);
}

TEST(Metrics, JsonAndCsvDumpsAreWellFormed) {
  Metrics::instance().counter("test.dump").add(1);
  Metrics::instance().histogram("test.dump_hist").record(7);
  const MetricsSnapshot snap = Metrics::instance().snapshot();

  std::ostringstream json;
  snap.write_json(json);
  EXPECT_NO_THROW(parse_json_keys(json.str())) << json.str();
  EXPECT_NE(json.str().find("test.dump"), std::string::npos);

  std::ostringstream csv;
  snap.write_csv(csv);
  EXPECT_NE(csv.str().find("metric,value"), std::string::npos);
  EXPECT_NE(csv.str().find("test.dump_hist.count,"), std::string::npos);
}

TEST(Metrics, RuntimeCountersRideTheRegistry) {
  const MetricsSnapshot before = Metrics::instance().snapshot();
  simrt::RunOptions options;
  options.size = 2;
  options.fault.seed = 3;
  options.fault.straggler_ranks = {0};
  options.fault.straggle_us = 50;
  simrt::run(options, [](simrt::Communicator& comm) {
    std::vector<double> buf(8, 1.0);
    const int peer = 1 - comm.rank();
    comm.sendrecv<double>(peer, buf, peer, std::span<double>(buf), 2);
  });
  const MetricsSnapshot delta = Metrics::instance().snapshot().diff(before);
  EXPECT_GT(delta.counters.at("simrt.faults_injected"), 0u);
  EXPECT_GT(delta.counters.at("comm.messages"), 0u);
  EXPECT_GT(delta.counters.at("comm.bytes"), 0u);
}

}  // namespace
}  // namespace vpar::trace
