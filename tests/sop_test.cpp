#include <gtest/gtest.h>

#include <algorithm>

#include "base/rng.hpp"
#include "sop/cover.hpp"
#include "sop/cube.hpp"
#include "sop/isop.hpp"
#include "sop/kernels.hpp"
#include "sop/packed_cover.hpp"
#include "sop/sop_network.hpp"

namespace chortle::sop {
namespace {

Cube cube(std::vector<Literal> lits) { return Cube(std::move(lits)); }
Literal P(int v) { return make_literal(v, false); }
Literal N(int v) { return make_literal(v, true); }

TEST(Cube, BasicProperties) {
  EXPECT_TRUE(Cube::one().is_one());
  const Cube ab = cube({P(0), P(1)});
  EXPECT_EQ(ab.size(), 2);
  EXPECT_TRUE(ab.has_literal(P(0)));
  EXPECT_FALSE(ab.has_literal(N(0)));
  EXPECT_TRUE(ab.has_var(1));
  EXPECT_FALSE(ab.has_var(2));
  // Duplicates merge; contradictions throw.
  EXPECT_EQ(cube({P(0), P(0)}).size(), 1);
  EXPECT_THROW(cube({P(0), N(0)}), InvalidInput);
}

TEST(Cube, ContainmentIsLiteralInclusion) {
  const Cube abc = cube({P(0), P(1), P(2)});
  const Cube ab = cube({P(0), P(1)});
  EXPECT_TRUE(abc.contains_all_of(ab));   // abc implies ab
  EXPECT_FALSE(ab.contains_all_of(abc));
  EXPECT_TRUE(ab.contains_all_of(Cube::one()));
}

TEST(Cube, Conjunction) {
  const auto joined = cube({P(0)}).conjunction(cube({N(1)}));
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(*joined, cube({P(0), N(1)}));
  EXPECT_FALSE(cube({P(0)}).conjunction(cube({N(0)})).has_value());
}

TEST(Cube, CommonAndWithout) {
  const Cube abc = cube({P(0), P(1), N(2)});
  const Cube abd = cube({P(0), P(1), P(3)});
  EXPECT_EQ(abc.common_with(abd), cube({P(0), P(1)}));
  EXPECT_EQ(abc.without(cube({P(0), P(1)})), cube({N(2)}));
  EXPECT_EQ(abc.without_literal(N(2)), cube({P(0), P(1)}));
  EXPECT_EQ(abc.without_literal(P(5)), abc);
}

TEST(Cover, SccMinimization) {
  // ab + a + abc + a  ->  a
  Cover cover({cube({P(0), P(1)}), cube({P(0)}), cube({P(0), P(1), P(2)}),
               cube({P(0)})});
  const Cover minimized = cover.scc_minimized();
  EXPECT_EQ(minimized.num_cubes(), 1);
  EXPECT_EQ(minimized.cube(0), cube({P(0)}));
  // A cover containing the empty cube is constant 1.
  Cover tautology({cube({P(0)}), Cube::one()});
  EXPECT_TRUE(tautology.scc_minimized().is_one());
  EXPECT_EQ(tautology.scc_minimized().num_cubes(), 1);
}

TEST(Cover, LiteralBookkeeping) {
  const Cover f({cube({P(0), P(1)}), cube({P(0), N(2)})});
  EXPECT_EQ(f.literal_count(), 4);
  EXPECT_EQ(f.literal_occurrences(P(0)), 2);
  EXPECT_EQ(f.literal_occurrences(P(1)), 1);
  EXPECT_EQ(f.literal_occurrences(N(1)), 0);
  EXPECT_EQ(f.support(), (std::vector<int>{0, 1, 2}));
}

TEST(Cover, CofactorAndCommonCube) {
  // f = a b + a c' + d
  const Cover f({cube({P(0), P(1)}), cube({P(0), N(2)}), cube({P(3)})});
  const Cover fa = f.cofactor(P(0));
  EXPECT_EQ(fa.num_cubes(), 2);
  EXPECT_TRUE(f.common_cube().is_one());
  const Cover g({cube({P(0), P(1)}), cube({P(0), N(2)})});
  EXPECT_EQ(g.common_cube(), cube({P(0)}));
  EXPECT_EQ(g.made_cube_free().common_cube(), Cube::one());
}

TEST(Cover, WeakDivisionTextbook) {
  // F = ad + ae + bcd + j ; D = a + bc  =>  Q = d, R = ae + j.
  const Cover f({cube({P(0), P(3)}), cube({P(0), P(4)}),
                 cube({P(1), P(2), P(3)}), cube({P(9)})});
  const Cover d({cube({P(0)}), cube({P(1), P(2)})});
  const auto [q, r] = f.divide(d);
  ASSERT_EQ(q.num_cubes(), 1);
  EXPECT_EQ(q.cube(0), cube({P(3)}));
  EXPECT_EQ(r.num_cubes(), 2);
}

TEST(Cover, DivisionIdentityHolds) {
  // F == Q*D + R as Boolean functions, for random algebraic covers.
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const int num_vars = 6;
    auto random_cover = [&](int cubes, int width) {
      std::vector<Cube> cs;
      for (int i = 0; i < cubes; ++i) {
        std::vector<Literal> lits;
        for (int j = 0; j < width; ++j) {
          const int v = static_cast<int>(rng.next_below(num_vars));
          lits.push_back(make_literal(v, rng.next_bool()));
        }
        // Drop contradictory picks.
        std::sort(lits.begin(), lits.end());
        lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
        bool bad = false;
        for (std::size_t u = 0; u + 1 < lits.size(); ++u)
          if (literal_var(lits[u]) == literal_var(lits[u + 1])) bad = true;
        if (!bad) cs.push_back(Cube(lits));
      }
      return Cover(cs);
    };
    const Cover f = random_cover(6, 3);
    const Cover d = random_cover(2, 2);
    if (d.is_zero()) continue;
    const auto [q, r] = f.divide(d);
    const auto eval = [&](const Cover& c) {
      return c.evaluate(num_vars, [](int v) { return v; });
    };
    EXPECT_EQ(eval(f), eval(q.conjunction(d).disjunction(r)));
  }
}

TEST(Cover, DivisorReplacement) {
  // F = ab + ac, D = b + c, new var 5  =>  F' = a x5.
  const Cover f({cube({P(0), P(1)}), cube({P(0), P(2)})});
  const Cover d({cube({P(1)}), cube({P(2)})});
  const Cover rewritten = f.with_divisor_replaced(d, 5);
  ASSERT_EQ(rewritten.num_cubes(), 1);
  EXPECT_EQ(rewritten.cube(0), cube({P(0), P(5)}));
}

TEST(Kernels, TextbookExample) {
  // F = adf + aef + bdf + bef + cdf + cef + g  (Brayton's example).
  // Co-kernel f yields kernel (a+b+c)(d+e) expanded; level-0 kernels
  // include a+b+c and d+e.
  std::vector<Cube> cubes;
  for (int x : {0, 1, 2})        // a, b, c
    for (int y : {3, 4})         // d, e
      cubes.push_back(cube({P(x), P(y), P(5)}));  // * f
  cubes.push_back(cube({P(6)}));  // + g
  const Cover f{std::move(cubes)};
  const auto kernels = find_kernels(f);
  auto has_kernel = [&](const Cover& k) {
    const Cover canon = k.scc_minimized();
    return std::any_of(kernels.begin(), kernels.end(),
                       [&](const KernelEntry& e) {
                         return e.kernel.scc_minimized() == canon;
                       });
  };
  EXPECT_TRUE(has_kernel(Cover({cube({P(0)}), cube({P(1)}), cube({P(2)})})));
  EXPECT_TRUE(has_kernel(Cover({cube({P(3)}), cube({P(4)})})));
  EXPECT_TRUE(has_kernel(f));  // F itself is cube-free
  // Level-0 filter keeps only read-once-per-literal kernels.
  for (const auto& entry : find_level0_kernels(f))
    EXPECT_TRUE(is_level0_kernel(entry.kernel));
  EXPECT_FALSE(is_level0_kernel(
      Cover({cube({P(0), P(1)}), cube({P(0), P(2)})})));
  EXPECT_TRUE(is_level0_kernel(
      Cover({cube({P(0), N(1)}), cube({N(0), P(1)})})));  // xor
}

TEST(Kernels, KernelsAreCubeFreeQuotients) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Cube> cubes;
    for (int i = 0; i < 5; ++i) {
      std::vector<Literal> lits;
      for (int j = 0; j < 3; ++j)
        lits.push_back(P(static_cast<int>(rng.next_below(6))));
      std::sort(lits.begin(), lits.end());
      lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
      cubes.push_back(Cube(lits));
    }
    // Kernels are defined on the SCC-minimal cover; divide that one.
    const Cover f = Cover(std::move(cubes)).scc_minimized();
    for (const auto& entry : find_kernels(f)) {
      EXPECT_TRUE(entry.kernel.common_cube().is_one());
      EXPECT_GE(entry.kernel.num_cubes(), 2);
      // The kernel is the quotient of F by its co-kernel.
      const auto [q, r] = f.divide_by_cube(entry.co_kernel);
      EXPECT_EQ(q.scc_minimized(), entry.kernel.scc_minimized());
    }
  }
}

TEST(PackedCover, PacksAcrossWordBoundaries) {
  // Two cubes over six variables, alone (bits 0-5 of one word) and then
  // above a wide cube of 62 or 126 lower variables, so that their bits
  // straddle the first or the second word boundary.
  const Cube x = cube({P(1000), N(1001), P(1002)});
  const Cube y = cube({N(1003), P(1004), P(1005)});
  for (const int pad : {0, 62, 126}) {
    std::vector<Cube> cubes{x, y, x};
    if (pad > 0) {
      std::vector<Literal> wide;
      for (int v = 0; v < pad; ++v) wide.push_back(P(v));
      cubes.push_back(Cube(wide));
    }
    const Cover f{cubes};
    const PackedCover packed(f);
    EXPECT_EQ(packed.support(), f.support());
    EXPECT_EQ(packed.words(), 1 + pad / 62);
    ASSERT_EQ(packed.num_cubes(), f.num_cubes());
    std::vector<Literal> literals;
    for (int i = 0; i < f.num_cubes(); ++i) {
      packed.unpack(packed.cube(i), literals);
      EXPECT_EQ(literals, f.cube(i).literals());
      EXPECT_EQ(packed_size(packed.cube(i)), f.cube(i).size());
    }
    // x occurs twice: its first copy answers find() and holds both.
    EXPECT_EQ(packed.find(packed.cube(2)), 0);
    EXPECT_EQ(packed.multiplicity(0), 2);
    EXPECT_EQ(packed.multiplicity(1), 1);
    // Cubes holding !x1001: the first copy of x only.
    std::vector<PackedCover::Word> probe(
        static_cast<std::size_t>(packed.cube_words()), 0);
    const std::vector<Literal> literal{N(1001)};
    ASSERT_TRUE(packed.pack(literal, probe));
    EXPECT_TRUE(packed_contains(packed.cube(0), probe));
    EXPECT_FALSE(packed_contains(packed.cube(1), probe));
    std::vector<PackedCover::Word> holders(
        static_cast<std::size_t>(packed.column_words()));
    packed.containing(probe, holders);
    EXPECT_EQ(holders[0], PackedCover::Word{1});
    const std::vector<Literal> outside{P(999)};
    EXPECT_FALSE(packed.pack(outside, probe));
  }
}

TEST(PackedCover, DivisionSavingMatchesCoverDivide) {
  // The packed saving against lits(F) - (lits(R) + lits(Q) + |Q|) from
  // Cover::divide, on random covers with repeated cubes, unsorted
  // cubes and supports of one to three words, over every kernel and
  // pairwise common cube of F and random single cubes.
  Rng rng(41);
  std::vector<PackedCover::Word> packed_divisor;
  std::vector<PackedCover::Word> scratch;
  int checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int spread = trial % 3 == 0 ? 150 : 8;
    std::vector<Cube> cubes;
    const int num_cubes = 2 + static_cast<int>(rng.next_below(9));
    for (int i = 0; i < num_cubes; ++i) {
      if (!cubes.empty() && rng.next_below(6) == 0) {
        cubes.push_back(cubes[rng.next_below(cubes.size())]);  // repeat
        continue;
      }
      std::vector<Literal> lits;
      const int width = 1 + static_cast<int>(rng.next_below(4));
      for (int j = 0; j < width; ++j) {
        // Mostly a few shared variables, so divisors have quotients.
        const int v = rng.next_below(3) == 0
                          ? static_cast<int>(rng.next_below(spread))
                          : static_cast<int>(rng.next_below(5));
        if (std::none_of(lits.begin(), lits.end(), [&](Literal l) {
              return literal_var(l) == v;
            }))
          lits.push_back(make_literal(v, rng.next_below(4) == 0));
      }
      cubes.push_back(Cube(lits));
    }
    const Cover f{cubes};
    const PackedCover packed(f);
    std::vector<Cover> divisors;
    for (const KernelEntry& entry : find_kernels(f))
      divisors.push_back(entry.kernel);
    for (std::size_t i = 0; i < cubes.size(); ++i)
      for (std::size_t j = i + 1; j < cubes.size(); ++j)
        divisors.push_back(Cover({cubes[i].common_with(cubes[j])}));
    divisors.push_back(Cover({cubes[rng.next_below(cubes.size())]}));
    for (const Cover& d : divisors) {
      if (d.cube(0).is_one()) continue;
      const auto width = static_cast<std::size_t>(packed.cube_words());
      packed_divisor.assign(width * static_cast<std::size_t>(d.num_cubes()), 0);
      bool inside = true;
      for (int k = 0; k < d.num_cubes(); ++k)
        inside = inside && packed.pack(d.cube(k).literals(),
                                       {packed_divisor.data() + k * width,
                                        width});
      ASSERT_TRUE(inside);
      const auto [q, r] = f.divide(d);
      const int expected =
          q.is_zero() ? 0
                      : f.literal_count() - (r.literal_count() +
                                             q.literal_count() + q.num_cubes());
      EXPECT_EQ(division_saving(packed, packed_divisor, scratch), expected)
          << "trial " << trial;
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000);
}

TEST(Isop, RoundTripsRandomFunctions) {
  Rng rng(31);
  for (int n = 0; n <= 8; ++n) {
    for (int trial = 0; trial < 10; ++trial) {
      truth::TruthTable f(n);
      for (std::uint64_t m = 0; m < f.num_minterms(); ++m)
        f.set_bit(m, rng.next_bool());
      const Cover cover = isop(f);
      EXPECT_EQ(evaluate_local(cover, n), f);
    }
  }
}

TEST(Isop, SpecialCases) {
  EXPECT_TRUE(isop(truth::TruthTable::zeros(3)).is_zero());
  EXPECT_TRUE(isop(truth::TruthTable::ones(3)).is_one());
  // AND has exactly one cube; OR of n vars has n cubes.
  const auto a = truth::TruthTable::var(0, 3);
  const auto b = truth::TruthTable::var(1, 3);
  const auto c = truth::TruthTable::var(2, 3);
  EXPECT_EQ(isop(a & b & c).num_cubes(), 1);
  EXPECT_EQ(isop(a | b | c).num_cubes(), 3);
  EXPECT_EQ(isop(a ^ b).num_cubes(), 2);
}

TEST(SopNetwork, BuildQueryAndTopoOrder) {
  SopNetwork net;
  const auto a = net.add_input("a");
  const auto b = net.add_input("b");
  const auto g = net.add_node("g", Cover({cube({P(a), P(b)})}));
  const auto h = net.add_node("h", Cover({cube({P(g)}), cube({N(a)})}));
  net.mark_output(h);
  net.check();
  EXPECT_EQ(net.find("g"), g);
  EXPECT_EQ(net.find("nope"), SopNetwork::kInvalidNode);
  EXPECT_EQ(net.fanins(h), (std::vector<SopNetwork::NodeId>{a, g}));
  const auto order = net.topological_order();
  EXPECT_EQ(order, (std::vector<SopNetwork::NodeId>{g, h}));
  EXPECT_EQ(net.total_literals(), 4);
  EXPECT_TRUE(net.is_output(h));
  EXPECT_FALSE(net.is_output(g));
  const auto fanouts = net.fanout_counts();
  EXPECT_EQ(fanouts[static_cast<std::size_t>(g)], 1);
  EXPECT_EQ(fanouts[static_cast<std::size_t>(a)], 2);
}

TEST(SopNetwork, DuplicateNamesRejected) {
  SopNetwork net;
  net.add_input("a");
  EXPECT_THROW(net.add_input("a"), InvalidInput);
  EXPECT_THROW(net.add_node("a", Cover::zero()), InvalidInput);
}

TEST(SopNetwork, CycleDetection) {
  SopNetwork net;
  const auto a = net.add_input("a");
  const auto g = net.add_node("g", Cover::zero());
  const auto h = net.add_node("h", Cover({cube({P(g), P(a)})}));
  net.set_cover(g, Cover({cube({P(h)})}));
  EXPECT_THROW(net.topological_order(), InvalidInput);
}

TEST(SopNetwork, PrunedDropsDeadNodes) {
  SopNetwork net;
  const auto a = net.add_input("a");
  const auto b = net.add_input("b");
  const auto live = net.add_node("live", Cover({cube({P(a), P(b)})}));
  net.add_node("dead", Cover({cube({N(a)})}));
  net.mark_output(live);
  const SopNetwork pruned = net.pruned();
  EXPECT_EQ(pruned.num_nodes(), 3);  // a, b, live
  EXPECT_EQ(pruned.find("dead"), SopNetwork::kInvalidNode);
  EXPECT_NE(pruned.find("live"), SopNetwork::kInvalidNode);
  EXPECT_EQ(pruned.inputs().size(), 2u);  // interface preserved
}

}  // namespace
}  // namespace chortle::sop
