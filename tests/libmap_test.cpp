#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "chortle/mapper.hpp"
#include "helpers.hpp"
#include "libmap/library.hpp"
#include "libmap/matcher.hpp"
#include "libmap/subject.hpp"
#include "sim/simulate.hpp"

namespace chortle::libmap {
namespace {

using truth::TruthTable;

TruthTable fn(const char* bits) { return TruthTable::from_binary(bits); }

TEST(Library, CompleteMatchesEverything) {
  const Library lib = Library::complete(3);
  EXPECT_TRUE(lib.is_complete());
  EXPECT_TRUE(lib.matches(fn("1000")));            // and2
  EXPECT_TRUE(lib.matches(fn("0110")));            // xor2
  EXPECT_TRUE(lib.matches(fn("11101000")));        // maj3
  EXPECT_TRUE(lib.matches(fn("10010110")));        // xor3
  // Queries above K throw.
  EXPECT_THROW(lib.matches(TruthTable(4)), InvalidInput);
}

TEST(Library, CompleteClassCountsMatchPaper) {
  // §4.1: 10 unique functions for K=2, 78 for K=3 under permutation.
  // Our classes_ are NPN (free inverters); the P-class counts are
  // asserted in truth tests. Here: sane NPN sizes.
  const Library k3 = Library::complete(3);
  const auto counts = k3.class_counts();
  // NPN classes with full support: 1 var -> 1 (wire), 2 -> 2 (and, xor),
  // 3 -> 10.
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 10u);
}

TEST(Library, Level0KernelLibraryContents) {
  const Library k4 = Library::level0_kernels(4);
  EXPECT_FALSE(k4.is_complete());
  EXPECT_TRUE(k4.matches(fn("1000")));             // and2 (2 literals)
  EXPECT_TRUE(k4.matches(fn("0110")));             // xor2 = ab'+a'b (4)
  EXPECT_TRUE(k4.matches(fn("1110")));             // or2
  EXPECT_TRUE(k4.matches(fn("10001000")));         // and2 ignoring 3rd input
  EXPECT_TRUE(k4.matches(fn("11101010")));         // a + bc (3 literals)
  EXPECT_TRUE(k4.matches(fn("1000000000000000")));  // and4
  // mux = s'a + sb (4 literals, level-0).
  const TruthTable s = TruthTable::var(0, 3), va = TruthTable::var(1, 3),
                   vb = TruthTable::var(2, 3);
  EXPECT_TRUE(k4.matches((~s & va) | (s & vb)));
  // maj3 = ab+ac+bc: 6 literals, repeated positive literals -> absent.
  EXPECT_FALSE(k4.matches(fn("11101000")));
  // xor3: 3-deep parity needs 12 literals two-level -> absent.
  EXPECT_FALSE(k4.matches(fn("10010110")));
  // ab + cd (4 literals) present; a(b+cd) ... = 4 literals? a b + a c d
  // has 5 literal occurrences -> absent at K=4.
  const TruthTable a = TruthTable::var(0, 4), b = TruthTable::var(1, 4),
                   c = TruthTable::var(2, 4), d = TruthTable::var(3, 4);
  EXPECT_TRUE(k4.matches((a & b) | (c & d)));
  EXPECT_FALSE(k4.matches((a & b) | (a & c & d)));
  const Library k5 = Library::level0_kernels(5);
  // a b + a c d repeats the literal a, so it is not level-0 at any K
  // (and no level-0 form is NPN-equivalent to it: it has a constant
  // cofactor, which the read-once-per-literal shapes with 5 literals
  // over 4 variables do not reproduce).
  EXPECT_FALSE(k5.matches((a & b) | (a & c & d)));
  // Straight 5-literal level-0 shapes are present, e.g. ab + cde:
  EXPECT_TRUE(k5.matches((TruthTable::var(0, 5) & TruthTable::var(1, 5)) |
                         (TruthTable::var(2, 5) & TruthTable::var(3, 5) &
                          TruthTable::var(4, 5))));
  // ... and ab + a'cd (a and a' are distinct literals, level-0).
  const TruthTable a5 = TruthTable::var(0, 4);
  EXPECT_TRUE(k5.matches((a5 & b) | (~a5 & c & d)));
}

TEST(Library, XorAbsentFromK2KernelLibrary) {
  // xor needs 4 literals; the K=2 kernel library cannot hold it. (The
  // paper uses the complete library at K=2, where it is present.)
  const Library k2 = Library::level0_kernels(2);
  EXPECT_FALSE(k2.matches(fn("0110")));
  EXPECT_TRUE(k2.matches(fn("1000")));
  EXPECT_TRUE(Library::complete(2).matches(fn("0110")));
}

TEST(Library, DualsArePresentViaNpnClosure) {
  const Library k4 = Library::level0_kernels(4);
  // dual of ab+cd is (a+b)(c+d); both must match (§4.1 "and their
  // duals").
  const TruthTable a = TruthTable::var(0, 4), b = TruthTable::var(1, 4),
                   c = TruthTable::var(2, 4), d = TruthTable::var(3, 4);
  EXPECT_TRUE(k4.matches((a & b) | (c & d)));
  EXPECT_TRUE(k4.matches((a | b) & (c | d)));
  // AOI (complement) too.
  EXPECT_TRUE(k4.matches(~((a & b) | (c & d))));
}

// The level-0 libraries' contents, pinned per K: NPN classes by support
// size and the expanded raw-table count.
TEST(Library, Level0KernelLibrarySizesArePinned) {
  const std::vector<std::vector<std::size_t>> classes = {
      {0, 0, 1},
      {0, 0, 1, 2},
      {0, 0, 2, 3, 4},
      {0, 0, 2, 5, 6, 6},
      {0, 0, 2, 6, 12, 11, 10}};
  const std::size_t expanded[] = {8, 72, 546, 4650, 41778};
  for (int k = 2; k <= 6; ++k) {
    const Library lib = Library::level0_kernels(k);
    EXPECT_EQ(lib.class_counts(), classes[static_cast<std::size_t>(k - 2)])
        << "K=" << k;
    EXPECT_EQ(lib.expanded_size(), expanded[k - 2]) << "K=" << k;
  }
}

TEST(Library, LibraryForIsOneSharedLibraryPerK) {
  EXPECT_TRUE(library_for(2).is_complete());
  EXPECT_TRUE(library_for(3).is_complete());
  EXPECT_FALSE(library_for(4).is_complete());
  EXPECT_EQ(library_for(4).k(), 4);
  // Concurrent first uses (the portfolio race's pool threads) all get
  // the one library.
  std::vector<const Library*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t)
    threads.emplace_back([&seen, t] { seen[t] = &library_for(5); });
  for (std::thread& thread : threads) thread.join();
  for (const Library* lib : seen) EXPECT_EQ(lib, &library_for(5));
}

TEST(SubjectGraph, IsBinaryAndEquivalent) {
  for (std::uint64_t seed = 50; seed < 56; ++seed) {
    const net::Network n = testing::random_dag(10, 6, 60, seed);
    const net::Network subject = build_subject_graph(n);
    EXPECT_EQ(subject.max_fanin(), 2);
    EXPECT_TRUE(
        sim::equivalent(sim::design_of(n), sim::design_of(subject)))
        << "seed " << seed;
  }
}

TEST(BaselineMapper, MapsAndVerifies) {
  for (std::uint64_t seed = 60; seed < 66; ++seed) {
    const net::Network n = testing::random_dag(12, 8, 70, seed);
    for (int k : {2, 3}) {
      const Library lib = Library::complete(k);
      const BaselineResult result = map_with_library(n, lib);
      EXPECT_TRUE(sim::equivalent(sim::design_of(n),
                                  sim::design_of(result.circuit)))
          << "seed=" << seed << " k=" << k;
      for (const net::Lut& lut : result.circuit.luts())
        EXPECT_LE(static_cast<int>(lut.inputs.size()), k);
    }
    for (int k : {4, 5}) {
      const Library lib = Library::level0_kernels(k);
      const BaselineResult result = map_with_library(n, lib);
      EXPECT_TRUE(sim::equivalent(sim::design_of(n),
                                  sim::design_of(result.circuit)))
          << "seed=" << seed << " k=" << k;
    }
  }
}

// On fanout-free trees Chortle is optimal under the Figure-3 leaf
// semantics; with the default structural matching the baseline sees the
// same leaves, so Chortle can never lose.
TEST(BaselineMapper, ChortleIsOptimalOnTrees) {
  for (std::uint64_t seed = 70; seed < 82; ++seed) {
    const net::Network n = testing::random_tree(24, 10, 5, seed);
    for (int k : {2, 3}) {
      core::Options options;
      options.k = k;
      const int chortle = core::map_network(n, options).stats.num_luts;
      const int baseline =
          map_with_library(n, Library::complete(k)).stats.num_luts;
      EXPECT_LE(chortle, baseline) << "seed=" << seed << " k=" << k;
    }
  }
}

// With merge_reconvergent_leaves the baseline deduplicates cut leaves
// by signal and can swallow reconvergent patterns like XOR in a single
// LUT — the behaviour the paper observes in MIS at K=2 ("the input
// network contains reconvergent fanout, such as XOR, which Chortle
// cannot find", §4.2).
TEST(BaselineMapper, ReconvergentMatchingFindsXor) {
  net::Network n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto t1 = n.add_gate(net::GateOp::kAnd, {{a, false}, {b, true}});
  const auto t2 = n.add_gate(net::GateOp::kAnd, {{a, true}, {b, false}});
  const auto r = n.add_gate(net::GateOp::kOr, {{t1, false}, {t2, false}});
  n.add_output("y", r, false);

  const Library lib = Library::complete(2);
  MatchOptions structural;  // default
  MatchOptions reconvergent;
  reconvergent.merge_reconvergent_leaves = true;

  const BaselineResult tree_match = map_with_library(n, lib, structural);
  const BaselineResult strong = map_with_library(n, lib, reconvergent);
  EXPECT_EQ(strong.stats.num_luts, 1);      // one XOR2 LUT
  EXPECT_EQ(tree_match.stats.num_luts, 3);  // 2 ANDs + OR, like Chortle
  core::Options options;
  options.k = 2;
  EXPECT_EQ(core::map_network(n, options).stats.num_luts, 3);
  EXPECT_TRUE(sim::equivalent(sim::design_of(n),
                              sim::design_of(strong.circuit)));
  EXPECT_TRUE(sim::equivalent(sim::design_of(n),
                              sim::design_of(tree_match.circuit)));
}

TEST(BaselineMapper, ReconvergentModeVerifiesOnRandomDags) {
  MatchOptions reconvergent;
  reconvergent.merge_reconvergent_leaves = true;
  for (std::uint64_t seed = 400; seed < 405; ++seed) {
    const net::Network n = testing::random_dag(12, 8, 70, seed);
    for (int k : {3, 5}) {
      const Library& lib = library_for(k);
      const BaselineResult strong = map_with_library(n, lib, reconvergent);
      const BaselineResult structural = map_with_library(n, lib);
      EXPECT_TRUE(sim::equivalent(sim::design_of(n),
                                  sim::design_of(strong.circuit)))
          << "seed=" << seed << " k=" << k;
      // With a complete library, merging leaves only ever shrinks cuts,
      // so it is never worse. (With an incomplete library neither mode
      // dominates: a merged cut's function can fall outside the
      // library while the structural pin-duplicated one stays inside.)
      if (lib.is_complete()) {
        EXPECT_LE(strong.stats.num_luts, structural.stats.num_luts)
            << "seed=" << seed << " k=" << k;
      }
    }
  }
}

// With the complete library and K=2 both mappers fully decompose into
// 2-input tables; the paper found nearly identical results (§4.2).
TEST(BaselineMapper, K2MatchesChortleOnTrees) {
  for (std::uint64_t seed = 90; seed < 96; ++seed) {
    const net::Network n = testing::random_tree(30, 8, 4, seed);
    core::Options options;
    options.k = 2;
    const int chortle = core::map_network(n, options).stats.num_luts;
    const int baseline =
        map_with_library(n, Library::complete(2)).stats.num_luts;
    EXPECT_LE(baseline, chortle + 1) << "seed " << seed;
    EXPECT_LE(chortle, baseline + 1) << "seed " << seed;
  }
}

}  // namespace
}  // namespace chortle::libmap
