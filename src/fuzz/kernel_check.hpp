// Kernel-equivalence mode of the fuzz harness: randomized cross-checks
// of the bit-parallel truth::PackedTable kernels against the scalar
// truth::TruthTable reference. Every packed operation — construction,
// bit access, NOT/AND/OR/XOR, Shannon cofactors, conversions — is
// mirrored on a TruthTable holding the same bits and the results
// compared minterm for minterm, on tables up to PackedTable::kMaxVars
// (10) inputs. Deterministic for a given seed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace chortle::fuzz {

struct KernelCheckReport {
  int rounds_completed = 0;
  /// One human-readable line per mismatching operation.
  std::vector<std::string> mismatches;
  double seconds = 0.0;
  bool ok() const { return mismatches.empty(); }
};

/// Runs `rounds` randomized equivalence rounds (each round draws an
/// arity, a pair of random tables, and checks the full op set). Never
/// throws on a finding — mismatches come back in the report.
KernelCheckReport check_kernels(int rounds, std::uint64_t seed,
                                std::ostream* log = nullptr);

}  // namespace chortle::fuzz
