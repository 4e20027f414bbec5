#include <algorithm>
#include <utility>

#include "chortle/work_tree.hpp"
#include "obs/metrics.hpp"

namespace chortle::core {

std::vector<int> WorkTree::postorder() const {
  std::vector<int> order;
  order.reserve(nodes.size());
  std::vector<int> stack{root};
  while (!stack.empty()) {
    const int idx = stack.back();
    stack.pop_back();
    order.push_back(idx);
    for (const WorkChild& child : node(idx).children)
      if (!child.is_leaf) stack.push_back(child.node);
  }
  // Reversed preorder: every node appears after all of its descendants.
  std::reverse(order.begin(), order.end());
  return order;
}

namespace {

class Builder {
 public:
  Builder(const net::Network& network, const std::vector<bool>& is_root,
          const Options& options)
      : network_(network), is_root_(is_root), options_(options) {}

  WorkTree build(net::NodeId root) {
    tree_.nodes.clear();
    tree_.num_leaves = 0;
    const int idx = convert(root);
    CHORTLE_CHECK(idx == 0);
    return std::move(tree_);
  }

 private:
  /// Converts a network gate into a WorkNode (recursively), returning
  /// its index. Parents are created before children so parent indices
  /// are smaller.
  int convert(net::NodeId gate) {
    const auto& node = network_.node(gate);
    const int idx = allocate(node.op);
    std::vector<WorkChild> children;
    children.reserve(node.fanins.size());
    for (const net::Fanin& f : node.fanins) {
      if (network_.is_input(f.node) ||
          is_root_[static_cast<std::size_t>(f.node)]) {
        ++tree_.num_leaves;
        children.push_back(WorkChild{true, f.node, -1, f.negated});
      } else {
        const int child_idx = convert(f.node);
        children.push_back(WorkChild{false, net::kInvalidNode, child_idx,
                                     f.negated});
      }
    }
    attach(idx, std::move(children));
    return idx;
  }

  int allocate(net::GateOp op) {
    tree_.nodes.push_back(WorkNode{op, {}});
    return tree_.size() - 1;
  }

  /// Installs children on a node, splitting if the fanin bound (or the
  /// fixed-decomposition ablation) requires it.
  void attach(int idx, std::vector<WorkChild> children) {
    const int bound =
        options_.search_decompositions ? options_.split_threshold : 2;
    if (static_cast<int>(children.size()) > bound) {
      OBS_COUNT("chortle.tree.split_events", 1);
      // Split into two halves of roughly equal fanin (paper §3.1.4);
      // each half becomes a new node with the same operation.
      const std::size_t half = children.size() / 2;
      std::vector<WorkChild> lo(children.begin(),
                                children.begin() + static_cast<long>(half));
      std::vector<WorkChild> hi(children.begin() + static_cast<long>(half),
                                children.end());
      const net::GateOp op = tree_.nodes[static_cast<std::size_t>(idx)].op;
      std::vector<WorkChild> top;
      top.push_back(make_group(op, std::move(lo)));
      top.push_back(make_group(op, std::move(hi)));
      tree_.nodes[static_cast<std::size_t>(idx)].children = std::move(top);
      return;
    }
    tree_.nodes[static_cast<std::size_t>(idx)].children = std::move(children);
  }

  /// Wraps a child group into a WorkChild: singleton groups stay direct,
  /// larger groups become a fresh node (recursively split if needed).
  WorkChild make_group(net::GateOp op, std::vector<WorkChild> group) {
    CHORTLE_CHECK(!group.empty());
    if (group.size() == 1) return group.front();
    const int idx = allocate(op);
    attach(idx, std::move(group));
    return WorkChild{false, net::kInvalidNode, idx, false};
  }

  const net::Network& network_;
  const std::vector<bool>& is_root_;
  const Options& options_;
  WorkTree tree_;
};

}  // namespace

WorkTree build_work_tree(const net::Network& network, const Forest& forest,
                         const Tree& tree, const Options& options) {
  return Builder(network, forest.is_root, options).build(tree.root);
}

WorkTree build_work_tree(const net::Network& network,
                         const std::vector<bool>& is_root, net::NodeId root,
                         const Options& options) {
  return Builder(network, is_root, options).build(root);
}

}  // namespace chortle::core
