#include "chortle/duplicate.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "chortle/tree_mapper.hpp"
#include "chortle/work_tree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chortle::core {
namespace {

/// Roots of the trees that read `target` as a leaf under the current
/// partition (ascending, distinct).
std::vector<net::NodeId> consumer_roots(const net::Network& network,
                                        const Forest& forest,
                                        net::NodeId target) {
  std::vector<net::NodeId> consumers;
  for (const Tree& tree : forest.trees) {
    if (tree.root == target) continue;
    for (net::NodeId gate : tree.gates) {
      const auto& fanins = network.node(gate).fanins;
      const bool reads = std::any_of(
          fanins.begin(), fanins.end(),
          [&](const net::Fanin& f) { return f.node == target; });
      if (reads) {
        consumers.push_back(tree.root);
        break;
      }
    }
  }
  return consumers;
}

}  // namespace

Forest duplicate_fanout_logic(const net::Network& network, Forest forest,
                              const Options& options, DuplicationStats* stats) {
  OBS_SPAN_ARG("chortle.duplicate", network.num_nodes());
  DuplicationStats local;
  std::vector<bool> read_by_output(
      static_cast<std::size_t>(network.num_nodes()), false);
  for (const net::Output& o : network.outputs())
    if (!o.is_const) read_by_output[static_cast<std::size_t>(o.node)] = true;

  // Tree cost under the current partition, cached per root.
  std::map<net::NodeId, int> cost_cache;
  const auto tree_cost = [&](net::NodeId root) {
    if (auto it = cost_cache.find(root); it != cost_cache.end()) {
      OBS_COUNT("chortle.duplicate.cache_hits", 1);
      return it->second;
    }
    OBS_COUNT("chortle.duplicate.cache_misses", 1);
    const int cost =
        TreeMapper(build_work_tree(network, forest.is_root, root, options),
                   options)
            .best_cost();
    cost_cache.emplace(root, cost);
    return cost;
  };

  // Up to three greedy passes over the candidates; each pass stops
  // adding candidates once the partition is stable.
  for (int pass = 0; pass < 3; ++pass) {
    bool changed = false;
    // Snapshot the candidate roots of this pass (the forest mutates).
    std::vector<net::NodeId> roots;
    for (const Tree& tree : forest.trees)
      if (static_cast<int>(tree.gates.size()) <=
              options.duplication_max_gates &&
          !read_by_output[static_cast<std::size_t>(tree.root)])
        roots.push_back(tree.root);

    for (net::NodeId r : roots) {
      if (!forest.is_root[static_cast<std::size_t>(r)]) continue;  // gone
      const std::vector<net::NodeId> consumers =
          consumer_roots(network, forest, r);
      if (consumers.empty() || static_cast<int>(consumers.size()) >
                                   options.duplication_max_readers)
        continue;
      if (pass == 0) ++local.candidates;

      int before = tree_cost(r);
      for (net::NodeId c : consumers) before += tree_cost(c);

      // Tentatively inline r into its readers and re-map each of them.
      std::vector<bool> trial = forest.is_root;
      trial[static_cast<std::size_t>(r)] = false;
      std::vector<int> trial_costs;
      trial_costs.reserve(consumers.size());
      for (net::NodeId c : consumers) {
        WorkTree work = build_work_tree(network, trial, c, options);
        if (work.size() > 4 * options.duplication_max_gates)
          break;  // keep evaluation bounded
        trial_costs.push_back(TreeMapper(std::move(work), options).best_cost());
      }
      if (trial_costs.size() < consumers.size()) continue;  // infeasible
      const long long after =
          std::accumulate(trial_costs.begin(), trial_costs.end(), 0LL);
      if (after >= before) continue;

      forest.is_root[static_cast<std::size_t>(r)] = false;
      // Re-collect the trees so later consumer scans see the new
      // partition; only r's consumers changed cost.
      forest = build_forest_with_roots(network, forest.is_root);
      cost_cache.erase(r);
      for (std::size_t i = 0; i < consumers.size(); ++i)
        cost_cache[consumers[i]] = trial_costs[i];
      local.luts_saved += static_cast<int>(before - after);
      ++local.accepted;
      changed = true;
    }
    if (!changed) break;
  }

  Forest result = build_forest_with_roots(network, forest.is_root);
  OBS_COUNT("chortle.duplicate.candidates", local.candidates);
  OBS_COUNT("chortle.duplicate.accepted", local.accepted);
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace chortle::core
