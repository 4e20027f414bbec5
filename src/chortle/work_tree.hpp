// The per-tree structure the dynamic program runs on. Gates of a
// fanout-free tree are converted to WorkNodes whose children are either
// leaves (tree inputs: primary inputs or roots of other trees, each
// occurrence a distinct leaf exactly as in the paper's Figure 3) or
// interior WorkNodes. Two restructurings are applied at build time:
//
//  * node splitting (paper §3.1.4): a node with fanin above the split
//    threshold is recursively split into two nodes of roughly equal
//    fanin, bounding the decomposition search;
//  * the fixed-decomposition ablation: with decomposition search
//    disabled every node is split all the way down to fanin 2.
#pragma once

#include <vector>

#include "chortle/forest.hpp"
#include "chortle/options.hpp"
#include "network/network.hpp"

namespace chortle::core {

struct WorkChild {
  bool is_leaf = false;
  // Leaf: the signal feeding the tree (a PI or another tree's root).
  net::NodeId leaf_signal = net::kInvalidNode;
  // Interior: index of the child WorkNode.
  int node = -1;
  // Edge polarity (applies to both kinds).
  bool negated = false;
};

struct WorkNode {
  net::GateOp op = net::GateOp::kAnd;
  std::vector<WorkChild> children;  // size >= 2
};

struct WorkTree {
  // Note: node splitting inserts nodes after their adopted children, so
  // index order is NOT topological; traverse via postorder().
  std::vector<WorkNode> nodes;
  int root = 0;  // always 0
  int num_leaves = 0;

  const WorkNode& node(int idx) const {
    return nodes[static_cast<std::size_t>(idx)];
  }
  int size() const { return static_cast<int>(nodes.size()); }

  /// Interior nodes, children before parents, root last.
  std::vector<int> postorder() const;
};

/// Builds the work tree for `tree` of `forest` in `network`.
WorkTree build_work_tree(const net::Network& network, const Forest& forest,
                         const Tree& tree, const Options& options);

/// Same, from a root and an explicit root-flag vector (used by the
/// fanout-duplication pass, which explores modified partitions).
WorkTree build_work_tree(const net::Network& network,
                         const std::vector<bool>& is_root, net::NodeId root,
                         const Options& options);

}  // namespace chortle::core
