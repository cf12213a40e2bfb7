// ledger: run one benchmark workload and print its report as one JSON line.
//
//   ledger --workload qcd_halo|gtc_pic|service_jobs --seed N --seconds S
//          --trace 0|1 [--smoke] [--setup-only] [--break-reference]
//          [--t0-ns NS]
//
// run.py is the entry point; it builds this program, launches it, and turns
// its report into the benchmark's result line.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "ledger.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "ledger: " << why
            << "\nusage: ledger --workload NAME --seed N --seconds S --trace 0|1"
               " [--smoke] [--setup-only] [--break-reference] [--t0-ns NS]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::Config config;
  config.t0_ns = vpar::trace::now_ns();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        config.workload = value();
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
      } else if (arg == "--trace") {
        config.trace = value() != "0";
      } else if (arg == "--t0-ns") {
        config.t0_ns = std::stoull(value());
      } else if (arg == "--smoke") {
        config.smoke = true;
      } else if (arg == "--setup-only") {
        config.setup_only = true;
      } else if (arg == "--break-reference") {
        config.break_reference = true;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception& e) {
      return usage(std::string("bad value for ") + arg + ": " + e.what());
    }
  }
  const ledger::Runner runner = ledger::find_workload(config.workload);
  if (runner == nullptr) return usage("unknown workload '" + config.workload + "'");
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");

  ledger::Report report;
  report.workload = config.workload;
  if (config.trace) {
    for (const auto& [name, unit] : ledger::layer_metrics()) report.set(name, 0.0, unit);
  }
  try {
    runner(config, report);
  } catch (const std::exception& e) {
    // The program under test threw: report it as a failed run, not a crash.
    report.failures.push_back(std::string("exception: ") + e.what());
    report.failed = report.attempted > 0 ? report.attempted : 1;
    report.attempted = report.failed;
  }
  ledger::write_json(std::cout, report);
  return 0;
}
