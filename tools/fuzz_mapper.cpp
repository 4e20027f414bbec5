// fuzz_mapper: the differential fuzzing harness for the whole mapping
// pipeline. Samples random networks across the generator parameter
// space, runs each through optimize -> chortle / flowmap / libmap, and
// cross-checks every result against the source by simulation (and BDD
// equivalence when small enough) plus structural invariants. Any
// failure is shrunk to a minimal counterexample and written into the
// corpus directory as a replayable BLIF reproducer.
//
//   fuzz_mapper [--runs N] [--seed S] [--smoke] [--kernels] [--corpus DIR]
//               [--mapper NAME[,NAME...]] [--inject-miscompile [LUT,BIT]]
//               [--no-shrink] [--quiet] [--stats-out FILE]
//               [--trace-out FILE]
//
//   --mapper NAMES        restrict the oracle to these backends
//                         (chortle,flowmap,libmap,cutmap; default all)
//   --smoke               ~30-second CI mode: small cases, time budget
//   --kernels             kernel-equivalence mode: cross-check the
//                         bit-parallel truth::PackedTable ops against
//                         the scalar truth::TruthTable reference on
//                         randomized tables up to 10 inputs (uses
//                         --runs/--seed; skips the network fuzz loop)
//   --inject-miscompile   flip one LUT truth-table bit in every Chortle
//                         result (self-test: the oracle must catch it)
//   --stats-out FILE      write a chortle-run-report/1 JSON document
//   --trace-out FILE      enable tracing, write Chrome trace-event JSON
//                         (CHORTLE_TRACE=FILE in the env is equivalent)
//
// Exit status: 0 when every run passed, 1 on any failure, 2 on usage.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "fuzz/fuzzer.hpp"
#include "fuzz/kernel_check.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: fuzz_mapper [--runs N] [--seed S] [--smoke] "
               "[--kernels] [--corpus DIR] "
               "[--mapper NAME[,NAME...]] "
               "[--inject-miscompile [LUT,BIT]] "
               "[--no-shrink] [--quiet] "
               "[--stats-out FILE] [--trace-out FILE]\n");
}

/// Parses a comma-separated backend list ("cutmap" or
/// "chortle,flowmap") against the oracle's backend names.
std::vector<chortle::fuzz::Backend> parse_backends(const std::string& text) {
  std::vector<chortle::fuzz::Backend> backends;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string name =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    bool found = false;
    for (chortle::fuzz::Backend backend : chortle::fuzz::all_backends()) {
      if (name == chortle::fuzz::to_string(backend)) {
        backends.push_back(backend);
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "fuzz_mapper: unknown mapper '%s'\n",
                   name.c_str());
      usage();
      std::exit(2);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return backends;
}

/// Parses a non-negative decimal or exits with a usage error — a typo'd
/// count must not silently become "0 runs, 0 failures".
std::uint64_t parse_number(const char* flag, const std::string& text) {
  std::size_t consumed = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &consumed, 10);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != text.size() || text.empty()) {
    std::fprintf(stderr, "fuzz_mapper: %s expects a number, got '%s'\n",
                 flag, text.c_str());
    usage();
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace chortle;
  fuzz::FuzzOptions options;
  options.runs = 100;
  options.log = &std::cerr;
  std::string stats_out;
  std::string trace_out;
  bool smoke = false;
  bool kernels = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--runs" && i + 1 < argc) {
      options.runs = static_cast<int>(parse_number("--runs", argv[++i]));
    } else if (arg == "--seed" && i + 1 < argc) {
      options.seed = parse_number("--seed", argv[++i]);
    } else if (arg == "--smoke") {
      smoke = true;
      options.runs = 10000;  // the budget, not the count, ends the run
      options.time_budget_seconds = 30.0;
      options.generator.max_gates = 60;
    } else if (arg == "--kernels") {
      kernels = true;
    } else if (arg == "--mapper" && i + 1 < argc) {
      options.backends = parse_backends(argv[++i]);
    } else if (arg.rfind("--mapper=", 0) == 0) {
      options.backends = parse_backends(arg.substr(9));
    } else if (arg == "--stats-out" && i + 1 < argc) {
      stats_out = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--corpus" && i + 1 < argc) {
      options.corpus_dir = argv[++i];
    } else if (arg == "--inject-miscompile") {
      options.oracle.injection.enabled = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        const std::string spec = argv[++i];
        const auto comma = spec.find(',');
        options.oracle.injection.lut_index = static_cast<int>(
            parse_number("--inject-miscompile", spec.substr(0, comma)));
        if (comma != std::string::npos)
          options.oracle.injection.bit_index =
              parse_number("--inject-miscompile", spec.substr(comma + 1));
      }
    } else if (arg == "--no-shrink") {
      options.shrink_failures = false;
    } else if (arg == "--quiet") {
      options.log = nullptr;
    } else if (arg == "-h" || arg == "--help") {
      usage();
      return 0;
    } else {
      usage();
      return 2;
    }
  }

  if (trace_out.empty()) trace_out = obs::trace_path_from_env();
  if (!trace_out.empty()) obs::set_trace_enabled(true);

  if (kernels) {
    obs::RunReport run_report("fuzz_mapper_kernels");
    run_report.set_option("runs", options.runs);
    run_report.set_option("seed", options.seed);
    const fuzz::KernelCheckReport report =
        fuzz::check_kernels(options.runs, options.seed, options.log);
    std::fprintf(stderr,
                 "fuzz_mapper: kernels: %d rounds, %zu mismatches, %.1fs "
                 "(seed %llu)\n",
                 report.rounds_completed, report.mismatches.size(),
                 report.seconds,
                 static_cast<unsigned long long>(options.seed));
    run_report.add_phase("kernel_check", report.seconds);
    run_report.set_field("rounds_completed", report.rounds_completed);
    run_report.set_field(
        "mismatches", static_cast<std::uint64_t>(report.mismatches.size()));
    if (!stats_out.empty() && !run_report.write_file(stats_out)) return 1;
    if (!trace_out.empty() && !obs::write_chrome_trace_file(trace_out))
      return 1;
    return report.ok() ? 0 : 1;
  }

  obs::RunReport run_report("fuzz_mapper");
  run_report.set_option("runs", options.runs);
  run_report.set_option("seed", options.seed);
  run_report.set_option("smoke", smoke);
  run_report.set_option("shrink", options.shrink_failures);
  {
    std::string mappers;
    for (fuzz::Backend backend : options.backends) {
      if (!mappers.empty()) mappers += ',';
      mappers += fuzz::to_string(backend);
    }
    run_report.set_option("mappers", mappers);
  }
  run_report.set_option("inject_miscompile",
                        options.oracle.injection.enabled);

  try {
    const fuzz::FuzzReport report = fuzz::run_fuzz(options);
    std::fprintf(stderr,
                 "fuzz_mapper: %d runs, %zu failures, %.1fs (seed %llu)\n",
                 report.runs_completed, report.failures.size(),
                 report.seconds,
                 static_cast<unsigned long long>(options.seed));
    for (const fuzz::RunFailure& failure : report.failures) {
      std::fprintf(stderr, "  run %d: %s\n", failure.run,
                   failure.verdict.summary().c_str());
      if (!failure.reproducer_path.empty())
        std::fprintf(stderr, "    reproducer: %s\n",
                     failure.reproducer_path.c_str());
    }
    run_report.add_phase("fuzz", report.seconds);
    run_report.set_field("runs_completed", report.runs_completed);
    run_report.set_field(
        "failures", static_cast<std::uint64_t>(report.failures.size()));
    if (!stats_out.empty() && !run_report.write_file(stats_out)) return 1;
    if (!trace_out.empty() && !obs::write_chrome_trace_file(trace_out))
      return 1;
    return report.ok() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fuzz_mapper: %s\n", error.what());
    return 1;
  }
}
