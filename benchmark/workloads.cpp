// Report plumbing shared by the workloads: checks, statistics, clocks, the
// host record and the JSON writer.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "ledger.hpp"
#include "simd/dispatch.hpp"
#include "simrt/parallel.hpp"
#include "simrt/transport.hpp"

namespace ledger {

void Report::check(bool ok, std::uint64_t units, const std::string& what) {
  if (ok) return;
  failed += units;
  failures.push_back(what);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double block_quantile(const std::vector<double>& v, double q) {
  const auto block = static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
  const std::size_t blocks = std::max<std::size_t>(1, v.size() / block);
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto lo = v.begin() + static_cast<std::ptrdiff_t>(b * v.size() / blocks);
    const auto hi = v.begin() + static_cast<std::ptrdiff_t>((b + 1) * v.size() / blocks);
    per_block.push_back(quantile(std::vector<double>(lo, hi), q));
  }
  return median(per_block);
}

bool close(double a, double b, double tol) {
  return std::isfinite(a) && std::isfinite(b) &&
         std::fabs(a - b) <= tol * std::max(std::fabs(a), std::fabs(b));
}

double since_start_s(const Config& config) {
  return static_cast<double>(vpar::trace::now_ns() - config.t0_ns) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void record_host(Report& report, int ranks) {
  using namespace vpar;
  const std::size_t width = simd::active_width();
  report.host["simd_isa"] = simd::width_isa_name(width);
  report.host["simd_width"] = std::to_string(width);
  report.host["transport"] = simrt::to_string(simrt::transport_kind_from_env());
  const unsigned cores = std::thread::hardware_concurrency();
  report.host["hardware_threads"] = std::to_string(cores);
#if defined(_SC_LEVEL2_CACHE_SIZE) && defined(_SC_LEVEL3_CACHE_SIZE)
  report.host["l2_bytes"] = std::to_string(sysconf(_SC_LEVEL2_CACHE_SIZE));
  report.host["l3_bytes"] = std::to_string(sysconf(_SC_LEVEL3_CACHE_SIZE));
#endif
  std::string hybrid;
  switch (simrt::hybrid_threading()) {
    case simrt::HybridMode::On: hybrid = "on"; break;
    case simrt::HybridMode::Off: hybrid = "off"; break;
    case simrt::HybridMode::Auto:
      hybrid = cores > static_cast<unsigned>(ranks) ? "auto->on" : "auto->off";
      break;
  }
  report.host["hybrid"] = hybrid;
  report.host["ranks"] = std::to_string(ranks);
}

namespace {

void write_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out << buf;
    } else {
      out << c;
    }
  }
  out << '"';
}

void write_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

}  // namespace

void write_json(std::ostream& out, const Report& r) {
  out << "{\"workload\": ";
  write_string(out, r.workload);
  out << ", \"setup_s\": ";
  write_number(out, r.setup_s);
  out << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i != 0) out << ", ";
    write_string(out, r.failures[i]);
  }
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out << (first ? "" : ", ");
    first = false;
    write_string(out, name);
    out << ": {\"value\": ";
    write_number(out, m.value);
    out << ", \"unit\": ";
    write_string(out, m.unit);
    out << "}";
  }
  out << "}, \"host\": {";
  first = true;
  for (const auto& [k, v] : r.host) {
    out << (first ? "" : ", ");
    first = false;
    write_string(out, k);
    out << ": ";
    write_string(out, v);
  }
  out << "}, \"detail\": {";
  first = true;
  for (const auto& [k, v] : r.detail) {
    out << (first ? "" : ", ");
    first = false;
    write_string(out, k);
    out << ": ";
    write_number(out, v);
  }
  out << "}}\n";
}

Runner find_workload(std::string_view name) {
  if (name == "qcd_halo") return run_qcd_halo;
  if (name == "gtc_pic") return run_gtc_pic;
  if (name == "service_jobs") return run_service_jobs;
  return nullptr;
}

}  // namespace ledger
