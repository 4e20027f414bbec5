// Boundary behavior pinned down explicitly: Options::validate at the
// edges of every range, node splitting exactly at the split threshold
// (the paper's bound of 10), and mapping correctness at the extreme LUT
// sizes K = 2 and K = 6.
#include <gtest/gtest.h>

#include "chortle/forest.hpp"
#include "chortle/mapper.hpp"
#include "chortle/work_tree.hpp"
#include "helpers.hpp"
#include "network/network.hpp"
#include "sim/simulate.hpp"

namespace chortle::core {
namespace {

TEST(OptionsBoundary, ValidateAcceptsTheWholeLegalRange) {
  for (int k = 2; k <= 6; ++k) {
    Options options;
    options.k = k;
    EXPECT_NO_THROW(options.validate()) << "k=" << k;
  }
  for (int split : {2, 10, 16}) {
    Options options;
    options.split_threshold = split;
    EXPECT_NO_THROW(options.validate()) << "split=" << split;
  }
  Options limits;
  limits.duplication_max_gates = 1;
  limits.duplication_max_readers = 1;
  EXPECT_NO_THROW(limits.validate());
}

TEST(OptionsBoundary, ValidateRejectsJustOutsideTheRange) {
  Options options;
  options.k = 1;
  EXPECT_THROW(options.validate(), InvalidInput);
  options.k = 7;
  EXPECT_THROW(options.validate(), InvalidInput);

  options = Options{};
  options.split_threshold = 1;
  EXPECT_THROW(options.validate(), InvalidInput);
  options.split_threshold = 17;
  EXPECT_THROW(options.validate(), InvalidInput);

  options = Options{};
  options.duplication_max_gates = 0;
  EXPECT_THROW(options.validate(), InvalidInput);
  options = Options{};
  options.duplication_max_readers = 0;
  EXPECT_THROW(options.validate(), InvalidInput);
}

TEST(OptionsBoundary, JobsAcceptsOnlyTheSingleThreadedValues) {
  // map_network runs on its caller's thread; a request for more threads
  // is refused rather than silently mapped serially.
  for (int jobs : {0, 1}) {
    Options options;
    options.jobs = jobs;
    EXPECT_NO_THROW(options.validate()) << "jobs=" << jobs;
  }
  for (int jobs : {2, -1}) {
    Options options;
    options.jobs = jobs;
    EXPECT_THROW(options.validate(), InvalidInput) << "jobs=" << jobs;
  }
}

TEST(OptionsBoundary, DuplicationLimitsStopAtTheDocumentedCeiling) {
  // The upper bounds exist because duplication cost is explored per
  // subset: a runaway value turns one request into an effectively
  // unbounded search (the service accepts these fields off the wire).
  Options options;
  options.duplication_max_gates = kMaxDuplicationGates;
  EXPECT_NO_THROW(options.validate());
  options.duplication_max_gates = kMaxDuplicationGates + 1;
  EXPECT_THROW(options.validate(), InvalidInput);

  options = Options{};
  options.duplication_max_readers = kMaxDuplicationReaders;
  EXPECT_NO_THROW(options.validate());
  options.duplication_max_readers = kMaxDuplicationReaders + 1;
  EXPECT_THROW(options.validate(), InvalidInput);
}

/// A single gate of the requested fanin, fed by primary inputs.
net::Network single_wide_gate(int fanin) {
  net::Network network;
  std::vector<net::Fanin> fanins;
  for (int i = 0; i < fanin; ++i)
    fanins.push_back(net::Fanin{network.add_input(""), i % 3 == 0});
  const net::NodeId gate =
      network.add_gate(net::GateOp::kAnd, std::move(fanins));
  network.add_output("out", gate, false);
  network.check();
  return network;
}

TEST(SplitBoundary, FaninAtThresholdIsNotSplit) {
  const net::Network network = single_wide_gate(10);
  Options options;  // split_threshold = 10, the paper's bound
  const Forest forest = build_forest(network);
  const WorkTree tree =
      build_work_tree(network, forest, forest.trees.front(), options);
  EXPECT_EQ(tree.size(), 1);
  EXPECT_EQ(tree.num_leaves, 10);
}

TEST(SplitBoundary, FaninOnePastThresholdIsSplit) {
  const net::Network network = single_wide_gate(11);
  Options options;
  const Forest forest = build_forest(network);
  const WorkTree tree =
      build_work_tree(network, forest, forest.trees.front(), options);
  // One split: the root plus two adopted halves of <= 10 fanins each.
  EXPECT_GT(tree.size(), 1);
  EXPECT_EQ(tree.num_leaves, 11);
  for (const WorkNode& node : tree.nodes)
    EXPECT_LE(node.children.size(), 10u);
}

TEST(SplitBoundary, SplittingPreservesFunctionAndCost) {
  // The paper's §3.1.4 claim at the boundary: mapping the fanin-11 gate
  // with splitting must stay functionally correct, and for a single
  // AND gate the LUT count must match the unsplit mapping's.
  for (int fanin : {10, 11}) {
    const net::Network network = single_wide_gate(fanin);
    Options split_options;
    split_options.k = 4;
    Options no_split_options;
    no_split_options.k = 4;
    no_split_options.split_threshold = 16;
    const MapResult with_split = map_network(network, split_options);
    const MapResult without_split = map_network(network, no_split_options);
    EXPECT_TRUE(sim::equivalent(sim::design_of(network),
                                sim::design_of(with_split.circuit)))
        << "fanin " << fanin;
    EXPECT_EQ(with_split.stats.num_luts, without_split.stats.num_luts)
        << "fanin " << fanin;
  }
}

TEST(KBoundary, MapsCorrectlyAtK2AndK6) {
  for (int k : {2, 6}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const net::Network network = testing::random_dag(8, 4, 40, seed);
      Options options;
      options.k = k;
      const MapResult result = map_network(network, options);
      for (const net::Lut& lut : result.circuit.luts())
        EXPECT_LE(static_cast<int>(lut.inputs.size()), k);
      EXPECT_TRUE(sim::equivalent(sim::design_of(network),
                                  sim::design_of(result.circuit)))
          << "k=" << k << " seed=" << seed;
    }
    // The widest single gate must also survive both extremes.
    const net::Network wide = single_wide_gate(11);
    Options options;
    options.k = k;
    const MapResult result = map_network(wide, options);
    EXPECT_TRUE(sim::equivalent(sim::design_of(wide),
                                sim::design_of(result.circuit)))
        << "k=" << k;
  }
}

}  // namespace
}  // namespace chortle::core
