// The fuzz loop: sample a case, run the differential oracle, and on any
// failure shrink the network to a minimal counterexample and write it
// into the regression corpus. Fully deterministic for a given seed and
// run count; the time budget only cuts the loop short (it never changes
// what run N does), so "--runs N --seed S" names a reproducible
// experiment.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"

namespace chortle::fuzz {

struct FuzzOptions {
  int runs = 100;
  std::uint64_t seed = 1;
  /// Stop starting new runs after this many seconds (0 = no budget).
  double time_budget_seconds = 0.0;
  /// Backends every sampled case is cross-checked under (the
  /// fuzz_mapper --mapper flag narrows this to a single backend).
  std::vector<Backend> backends = all_backends();
  /// Generator sizing (smoke runs use small cases).
  GeneratorOptions generator;
  /// Forwarded to every oracle call (carries the fault injection).
  OracleOptions oracle;
  ShrinkOptions shrinker;
  bool shrink_failures = true;
  /// Directory that receives shrunk reproducers ("" = don't write).
  std::string corpus_dir;
  /// Progress/failure log (nullptr = silent).
  std::ostream* log = nullptr;
};

struct RunFailure {
  int run = 0;
  std::string description;      // generator parameters of the case
  Verdict verdict;              // verdict on the original case
  FuzzCase shrunk;              // minimized counterexample
  Verdict shrunk_verdict;
  std::string reproducer_path;  // "" when no corpus_dir was given
};

struct FuzzReport {
  int runs_completed = 0;
  std::vector<RunFailure> failures;
  double seconds = 0.0;
  bool ok() const { return failures.empty(); }
};

/// Runs the loop. Never throws on a finding — failures come back in the
/// report (and as corpus files).
FuzzReport run_fuzz(const FuzzOptions& options);

}  // namespace chortle::fuzz
