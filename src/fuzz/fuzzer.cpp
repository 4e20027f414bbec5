#include "fuzz/fuzzer.hpp"

#include <ostream>
#include <sstream>

#include "base/timer.hpp"
#include "fuzz/corpus.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chortle::fuzz {

FuzzReport run_fuzz(const FuzzOptions& options) {
  FuzzReport report;
  WallTimer timer;
  for (int run = 0; run < options.runs; ++run) {
    if (options.time_budget_seconds > 0.0 &&
        timer.seconds() >= options.time_budget_seconds)
      break;
    // Each run seeds its own RNG (SplitMix decorrelates nearby seeds),
    // so run N is reproducible in isolation.
    obs::TraceSpan case_span("fuzz.case", run);
    Rng rng(options.seed + static_cast<std::uint64_t>(run));
    FuzzCase fuzz_case = sample_case(rng, options.generator);
    fuzz_case.backends = options.backends;
    OBS_COUNT("fuzz.cases_generated", 1);
    const Verdict verdict = check_case(fuzz_case, options.oracle);
    ++report.runs_completed;
    if (options.log && (run + 1) % 50 == 0)
      *options.log << "fuzz: " << (run + 1) << "/" << options.runs
                   << " runs, " << report.failures.size() << " failures ("
                   << timer.seconds() << "s)\n";
    if (verdict.ok()) continue;

    OBS_COUNT("fuzz.failures", 1);
    RunFailure failure;
    failure.run = run;
    failure.description = fuzz_case.description;
    failure.verdict = verdict;
    if (options.log)
      *options.log << "fuzz: run " << run << " FAILED [" << verdict.summary()
                   << "] case: " << fuzz_case.description << "\n";
    if (options.shrink_failures) {
      obs::TraceSpan shrink_span("fuzz.shrink", run);
      const ShrinkResult shrunk =
          shrink(fuzz_case, options.oracle, options.shrinker);
      OBS_COUNT("fuzz.shrink_attempts", shrunk.attempts);
      failure.shrunk = shrunk.fuzz_case;
      failure.shrunk_verdict = shrunk.verdict;
      if (options.log)
        *options.log << "fuzz: shrunk to "
                     << shrunk.fuzz_case.network.num_nodes() -
                            static_cast<int>(
                                shrunk.fuzz_case.network.inputs().size())
                     << " gates in " << shrunk.attempts << " attempts ["
                     << shrunk.verdict.summary() << "]\n";
    } else {
      failure.shrunk = fuzz_case;
      failure.shrunk_verdict = verdict;
    }
    if (!options.corpus_dir.empty()) {
      CorpusEntry entry;
      std::ostringstream name;
      name << "repro_seed" << options.seed << "_run" << run;
      entry.name = name.str();
      entry.fuzz_case = failure.shrunk;
      entry.injection = options.oracle.injection;
      entry.expect_failure = true;
      entry.note = failure.shrunk_verdict.summary();
      failure.reproducer_path = write_entry(options.corpus_dir, entry);
      if (options.log)
        *options.log << "fuzz: wrote " << failure.reproducer_path << "\n";
    }
    report.failures.push_back(std::move(failure));
  }
  report.seconds = timer.seconds();
  return report;
}

}  // namespace chortle::fuzz
