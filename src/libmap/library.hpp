// The baseline mapper's cell library, built as the paper describes in
// §4.1. A cell is a Boolean function class; matching is by function, so
// the library stores, per input count, the set of all truth tables NPN-
// equivalent to some cell (input permutation = the paper's "single
// instance of all functions that are permutations of each other";
// input/output negation = the paper's free inverters, which it does not
// count as logic blocks). Pre-expanding the NPN orbits makes matching a
// hash lookup.
//
//  * K = 2, 3: complete libraries (all functions of <= K inputs; the
//    paper reports 10 and 78 non-constant permutation classes).
//  * K = 4, 5: the complete library is impractical (9014 classes for
//    K=4 by the paper's count); instead "the set of all level-0 kernels
//    with K or fewer literals and their duals" — read-once-per-literal
//    two-level forms, whose duals arise automatically from NPN closure.
//
// library_for(k) applies that policy and keeps one library per K for
// the whole process; every baseline caller (the libmap backend, the
// fuzz oracle, the table benches) shares it.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "truth/truth_table.hpp"

namespace chortle::libmap {

class Library {
 public:
  /// Complete library of all functions of up to `k` inputs (paper's
  /// K=2,3 setup; also usable at K=4 for the library ablation bench).
  static Library complete(int k);

  /// Incomplete library from level-0 kernels with <= `k` literals and
  /// their duals (paper's K=4,5 setup).
  static Library level0_kernels(int k);

  int k() const { return k_; }
  bool is_complete() const { return complete_; }

  /// True iff some cell implements `function` (up to NPN). `function`
  /// must have arity <= k; inputs the function ignores are fine.
  bool matches(const truth::TruthTable& function) const;

  /// Number of distinct NPN cell classes per support size (diagnostics
  /// and the library_stats bench).
  std::vector<std::size_t> class_counts() const;
  /// Total expanded function count (raw tables across arities).
  std::size_t expanded_size() const;

 private:
  explicit Library(int k, bool complete) : k_(k), complete_(complete) {
    by_arity_.resize(static_cast<std::size_t>(k) + 1);
    classes_.resize(static_cast<std::size_t>(k) + 1);
  }

  /// Registers a cell and its entire NPN orbit. `function` must depend
  /// on all of its inputs.
  void add_cell(const truth::TruthTable& function);

  int k_;
  bool complete_;
  // by_arity_[m]: every raw truth table (as low word; m <= 6) of an
  // m-input function implementable by some cell.
  std::vector<std::unordered_set<std::uint64_t>> by_arity_;
  // classes_[m]: canonical representatives, for reporting.
  std::vector<std::unordered_set<std::uint64_t>> classes_;
};

/// The paper's library for `k` (complete for K <= 3, level-0 kernels
/// for K = 4..6), built on first use and shared by the whole process.
/// Thread-safe: the portfolio race maps with it from several pool
/// threads at once. Entries are never erased, so the reference stays
/// valid for the life of the process.
const Library& library_for(int k);

}  // namespace chortle::libmap
