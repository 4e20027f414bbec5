// fuzz_mapper: the differential fuzzing harness for the whole mapping
// pipeline. Samples random networks across the generator parameter
// space, runs each through optimize and then every registered mapper
// (chortle, libmap, flowmap, cutmap, portfolio), and cross-checks every
// result against the source by simulation (and BDD equivalence when
// small enough) plus structural invariants. Any failure is shrunk to a
// minimal counterexample and written into the corpus directory as a
// replayable BLIF reproducer.
//
//   fuzz_mapper [--runs N] [--seed S] [--smoke] [--kernels] [--corpus DIR]
//               [--mapper NAME[,NAME...]] [--inject-miscompile [LUT,BIT]]
//               [--no-shrink] [--quiet] [--stats-out FILE]
//               [--trace-out FILE]
//
//   --mapper NAMES        restrict the oracle to these registered
//                         mappers (chortle,libmap,flowmap,cutmap,
//                         portfolio; default all)
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
#include <string_view>

#include "base/parse.hpp"
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

/// Parses a comma-separated mapper list ("cutmap" or "chortle,flowmap")
/// against core's mapper registry; an unknown name exits 2.
std::vector<const chortle::core::IMapper*> parse_backends(
    const std::string& text) {
  chortle::portfolio::ensure_registered();
  std::vector<const chortle::core::IMapper*> backends;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string name =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    const chortle::core::IMapper* mapper = chortle::core::find_mapper(name);
    if (mapper == nullptr) {
      std::fprintf(stderr, "fuzz_mapper: unknown mapper '%s' (known: %s)\n",
                   name.c_str(), chortle::core::mapper_names().c_str());
      usage();
      std::exit(2);
    }
    backends.push_back(mapper);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return backends;
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
    // A count that is not wholly a number in range gets the usage: it
    // must not silently become "0 runs, 0 failures".
    const char* value = i + 1 < argc ? argv[i + 1] : "";
    if (arg == "--runs" && base::parse_number(value, options.runs, 1)) {
      ++i;
    } else if (arg == "--seed" && base::parse_number(value, options.seed)) {
      ++i;
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
        const std::string_view spec = argv[++i];
        const auto comma = spec.find(',');
        fuzz::Injection& injection = options.oracle.injection;
        if (!base::parse_number(spec.substr(0, comma), injection.lut_index,
                                0) ||
            (comma != std::string_view::npos &&
             !base::parse_number(spec.substr(comma + 1),
                                 injection.bit_index))) {
          usage();
          return 2;
        }
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
    for (const core::IMapper* mapper : options.backends) {
      if (!mappers.empty()) mappers += ',';
      mappers += mapper->name();
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
