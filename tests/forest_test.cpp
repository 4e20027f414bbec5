#include <gtest/gtest.h>

#include "chortle/forest.hpp"
#include "chortle/work_tree.hpp"
#include "helpers.hpp"

namespace chortle::core {
namespace {

TEST(Forest, SingleTreeNetwork) {
  const net::Network n = testing::random_tree(6, 10, 4, 1);
  const Forest forest = build_forest(n);
  ASSERT_EQ(forest.trees.size(), 1u);
  EXPECT_EQ(forest.trees[0].gates.size(),
            static_cast<std::size_t>(n.num_gates()));
  // Root is last and is the output node.
  EXPECT_EQ(forest.trees[0].root, n.outputs()[0].node);
  EXPECT_EQ(forest.trees[0].gates.back(), forest.trees[0].root);
}

TEST(Forest, FanoutCreatesBoundaries) {
  net::Network n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto c = n.add_input("c");
  const auto shared = n.add_gate(net::GateOp::kAnd, {{a, false}, {b, false}});
  const auto g1 = n.add_gate(net::GateOp::kOr, {{shared, false}, {c, false}});
  const auto g2 = n.add_gate(net::GateOp::kOr, {{shared, true}, {a, false}});
  n.add_output("y1", g1, false);
  n.add_output("y2", g2, false);
  const Forest forest = build_forest(n);
  EXPECT_EQ(forest.trees.size(), 3u);  // shared, g1, g2
  EXPECT_TRUE(forest.is_root[static_cast<std::size_t>(shared)]);
  EXPECT_TRUE(forest.is_root[static_cast<std::size_t>(g1)]);
  EXPECT_TRUE(forest.is_root[static_cast<std::size_t>(g2)]);
}

TEST(Forest, DeadLogicIsExcluded) {
  net::Network n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto live = n.add_gate(net::GateOp::kAnd, {{a, false}, {b, false}});
  n.add_gate(net::GateOp::kOr, {{a, false}, {b, false}});  // dead
  n.add_output("y", live, false);
  const Forest forest = build_forest(n);
  EXPECT_EQ(forest.trees.size(), 1u);
  EXPECT_FALSE(forest.is_live[3]);
}

class ForestProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForestProperty, PartitionInvariants) {
  const net::Network n = testing::random_dag(12, 8, 80, GetParam());
  const Forest forest = build_forest(n);
  // Every live gate appears in exactly one tree.
  std::vector<int> appearances(static_cast<std::size_t>(n.num_nodes()), 0);
  for (const Tree& tree : forest.trees) {
    EXPECT_EQ(tree.gates.back(), tree.root);
    for (net::NodeId g : tree.gates) {
      EXPECT_FALSE(n.is_input(g));
      EXPECT_TRUE(forest.is_live[static_cast<std::size_t>(g)]);
      ++appearances[static_cast<std::size_t>(g)];
    }
    // Interior gates (all but the root) are read exactly once, and
    // their single reader is inside the same tree (fanout-free).
    for (std::size_t i = 0; i + 1 < tree.gates.size(); ++i)
      EXPECT_FALSE(forest.is_root[static_cast<std::size_t>(tree.gates[i])]);
  }
  for (net::NodeId id = 0; id < n.num_nodes(); ++id) {
    const bool should_appear =
        !n.is_input(id) && forest.is_live[static_cast<std::size_t>(id)];
    EXPECT_EQ(appearances[static_cast<std::size_t>(id)],
              should_appear ? 1 : 0)
        << "node " << id;
  }
  // Output nodes are tree roots.
  for (const net::Output& o : n.outputs())
    if (!o.is_const && !n.is_input(o.node))
      EXPECT_TRUE(forest.is_root[static_cast<std::size_t>(o.node)]);
  // Gates come fanins-first within each tree.
  for (const Tree& tree : forest.trees) {
    std::vector<bool> seen(static_cast<std::size_t>(n.num_nodes()), false);
    for (net::NodeId g : tree.gates) {
      for (const net::Fanin& f : n.node(g).fanins) {
        if (n.is_input(f.node) ||
            forest.is_root[static_cast<std::size_t>(f.node)])
          continue;
        EXPECT_TRUE(seen[static_cast<std::size_t>(f.node)]);
      }
      seen[static_cast<std::size_t>(g)] = true;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForestProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(WorkTree, LeavesAndStructure) {
  const net::Network n = testing::random_tree(6, 12, 4, 5);
  const Forest forest = build_forest(n);
  Options options;
  const WorkTree work =
      build_work_tree(n, forest, forest.trees[0], options);
  EXPECT_EQ(work.root, 0);
  int leaf_count = 0;
  for (const WorkNode& node : work.nodes) {
    EXPECT_GE(node.children.size(), 2u);
    for (const WorkChild& child : node.children)
      if (child.is_leaf) ++leaf_count;
  }
  EXPECT_EQ(leaf_count, work.num_leaves);
  // Postorder visits children before parents and ends at the root.
  const std::vector<int> order = work.postorder();
  EXPECT_EQ(order.size(), work.nodes.size());
  EXPECT_EQ(order.back(), work.root);
  std::vector<bool> done(work.nodes.size(), false);
  for (int idx : order) {
    for (const WorkChild& child : work.node(idx).children)
      if (!child.is_leaf)
        EXPECT_TRUE(done[static_cast<std::size_t>(child.node)]);
    done[static_cast<std::size_t>(idx)] = true;
  }
}

TEST(WorkTree, SplittingBoundsFanin) {
  net::Network n;
  std::vector<net::Fanin> fanins;
  for (int i = 0; i < 30; ++i)
    fanins.push_back(net::Fanin{n.add_input(""), false});
  const auto gate = n.add_gate(net::GateOp::kAnd, fanins);
  n.add_output("y", gate, false);
  const Forest forest = build_forest(n);
  Options options;
  options.split_threshold = 10;
  const WorkTree work =
      build_work_tree(n, forest, forest.trees[0], options);
  EXPECT_GT(work.size(), 1);  // splitting created virtual nodes
  EXPECT_EQ(work.num_leaves, 30);
  for (const WorkNode& node : work.nodes)
    EXPECT_LE(node.children.size(), 10u);
}

TEST(WorkTree, FixedDecompositionAblationMakesBinaryTrees) {
  const net::Network n = testing::random_tree(8, 10, 6, 9);
  const Forest forest = build_forest(n);
  Options options;
  options.search_decompositions = false;
  const WorkTree work =
      build_work_tree(n, forest, forest.trees[0], options);
  for (const WorkNode& node : work.nodes)
    EXPECT_EQ(node.children.size(), 2u);
}

}  // namespace
}  // namespace chortle::core
