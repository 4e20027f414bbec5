// The differential oracle: runs one fuzz case through the full pipeline
// (optimization script, then every requested backend through
// core::IMapper::map) and cross-checks each stage against the source
// network — bit-parallel simulation always, BDD equivalence when the
// input count permits — plus the structural invariants every mapped
// circuit must satisfy (LUT fanins within K, acyclic circuit,
// fanout-free forest trees, reported LUT count matching the circuit).
// Any violation becomes a Failure; the shrinker and the corpus replay
// test both drive cases through this single entry point.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fuzz/fuzz_case.hpp"

namespace chortle::fuzz {

struct OracleOptions {
  /// BDD equivalence is attempted when the source has at most this many
  /// inputs; an inconclusive outcome (node budget) is not a failure —
  /// simulation has already sampled the design by then.
  int bdd_input_limit = 14;
  std::size_t bdd_max_nodes = 200'000;
  /// Random simulation volume (exhaustive below sim's input limit).
  int sim_random_words = 64;
  /// Fault injected into the Chortle backend's circuit (see fuzz_case.hpp).
  Injection injection;
};

/// One detected violation. `stage` names the pipeline stage that
/// produced it: "case", "optimize", "forest", or the backend mapper's
/// name() ("chortle", "libmap", "flowmap", "cutmap", "portfolio", ...);
/// `kind` is a stable category ("sim-mismatch", "bdd-different",
/// "structure", "lut-count", "exception"); `detail` is human-readable.
struct Failure {
  std::string stage;
  std::string kind;
  std::string detail;
};

struct Verdict {
  std::vector<Failure> failures;
  int backends_run = 0;
  bool bdd_attempted = false;

  bool ok() const { return failures.empty(); }
  /// "stage/kind: detail; ..." for logs and reproducer headers.
  std::string summary() const;
};

/// Runs the oracle on one case. Never throws on a detected miscompile —
/// everything, including exceptions escaping a backend, is reported as
/// a Failure so the fuzz loop and shrinker can keep going.
Verdict check_case(const FuzzCase& fuzz_case,
                   const OracleOptions& options = {});

}  // namespace chortle::fuzz
