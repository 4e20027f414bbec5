#include "chortle/mapper.hpp"

#include <algorithm>
#include <memory>

#include "base/cancel.hpp"
#include "base/timer.hpp"
#include "chortle/dp_cache.hpp"
#include "chortle/duplicate.hpp"
#include "chortle/forest.hpp"
#include "chortle/tree_mapper.hpp"
#include "chortle/tree_signature.hpp"
#include "chortle/work_tree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chortle::core {

MapResult map_network(const net::Network& network, const Options& options) {
  return map_network(network, options, nullptr);
}

MapResult map_network(const net::Network& network, const Options& options,
                      DpCache* cache) {
  OBS_SPAN_ARG("chortle.map_network", network.num_nodes());
  options.validate();
  network.check();
  WallTimer timer;

  Forest forest = build_forest(network);
  DuplicationStats duplication;
  if (options.duplicate_fanout_logic)
    forest = duplicate_fanout_logic(network, std::move(forest), options,
                                    &duplication);

  MapResult result{net::LutCircuit(options.k), MapStats{}};
  net::LutCircuit& circuit = result.circuit;

  std::vector<net::SignalId> signal_of(
      static_cast<std::size_t>(network.num_nodes()), -1);
  for (net::NodeId pi : network.inputs())
    signal_of[static_cast<std::size_t>(pi)] =
        circuit.add_input(network.node(pi).name);

  // A tree root whose only reader is a single complemented primary
  // output gets its inversion folded into the root LUT for free.
  std::vector<int> readers(static_cast<std::size_t>(network.num_nodes()), 0);
  std::vector<int> negated_output_readers(
      static_cast<std::size_t>(network.num_nodes()), 0);
  for (net::NodeId id = 0; id < network.num_nodes(); ++id)
    for (const net::Fanin& f : network.node(id).fanins)
      ++readers[static_cast<std::size_t>(f.node)];
  for (const net::Output& o : network.outputs()) {
    if (o.is_const) continue;
    ++readers[static_cast<std::size_t>(o.node)];
    if (o.negated) ++negated_output_readers[static_cast<std::size_t>(o.node)];
  }
  std::vector<bool> emitted_complemented(
      static_cast<std::size_t>(network.num_nodes()), false);

  // One tree at a time, in forest order: later trees read earlier trees'
  // root signals through signal_of. With a DP cache each tree is first
  // canonicalized and looked up by structural signature; only misses run
  // the DP, and fresh solutions are published for later requests.
  int predicted_luts = 0;
  {
    OBS_SPAN_ARG("chortle.solve_trees",
                 static_cast<std::int64_t>(forest.trees.size()));
    for (const Tree& tree : forest.trees) {
      if (options.cancel != nullptr) options.cancel->check("map_network");
      WorkTree work = build_work_tree(network, forest, tree, options);
      const std::size_t root = static_cast<std::size_t>(tree.root);
      const bool fold_inversion =
          readers[root] == 1 && negated_output_readers[root] == 1;
      std::shared_ptr<const TreeMapper> mapper;
      std::vector<net::SignalId> leaf_signals;  // cached path only
      if (cache == nullptr) {
        mapper = std::make_shared<const TreeMapper>(std::move(work), options);
      } else {
        // Lookup-outcome latency split (cached path only, so the uncached
        // benchmark tables pay nothing): a hit costs canonicalize+find, a
        // miss additionally pays the fresh DP solve, a coalesced lookup
        // waits out another thread's identical solve. The histograms
        // surface in the serve-stats "stages" section as cache_hit /
        // cache_miss / cache_coalesced.
        WallTimer lookup_timer;
        CanonicalTree canon = canonicalize_tree(work, options);
        DpCache::Outcome outcome = DpCache::Outcome::kSolved;
        mapper = cache->find_or_solve(
            canon.key,
            [&] {
              return std::make_shared<const TreeMapper>(std::move(canon.tree),
                                                        options);
            },
            options.cancel, &outcome);
        switch (outcome) {
          case DpCache::Outcome::kHit:
            OBS_HDR_OBSERVE("map.cache_hit.seconds", lookup_timer.seconds());
            ++result.stats.cache_hits;
            break;
          case DpCache::Outcome::kSolved:
            OBS_HDR_OBSERVE("map.cache_miss.seconds", lookup_timer.seconds());
            ++result.stats.cache_misses;
            break;
          case DpCache::Outcome::kCoalesced:
            OBS_HDR_OBSERVE("map.cache_coalesced.seconds",
                            lookup_timer.seconds());
            ++result.stats.cache_coalesced;
            break;
        }
        // Cached mappers index leaves canonically; translate to this
        // network's signals (canonical order is first-occurrence order,
        // so the emitted pin order matches the uncached mapping exactly).
        leaf_signals.reserve(canon.leaf_ids.size());
        for (net::NodeId leaf : canon.leaf_ids)
          leaf_signals.push_back(signal_of[static_cast<std::size_t>(leaf)]);
      }
      signal_of[root] =
          mapper->emit(circuit, cache == nullptr ? signal_of : leaf_signals,
                       fold_inversion, network.node(tree.root).name);
      predicted_luts += mapper->best_cost();
      emitted_complemented[root] = fold_inversion;
      result.stats.largest_tree = std::max(
          result.stats.largest_tree, static_cast<int>(tree.gates.size()));
    }
  }
  CHORTLE_CHECK_MSG(circuit.num_luts() == predicted_luts,
                    "emitted LUT count disagrees with the DP cost");

  for (const net::Output& o : network.outputs()) {
    if (o.is_const) {
      circuit.add_const_output(o.name, o.const_value);
      continue;
    }
    const std::size_t node = static_cast<std::size_t>(o.node);
    CHORTLE_CHECK(signal_of[node] >= 0);
    const bool negated = o.negated != emitted_complemented[node];
    circuit.add_output(o.name, signal_of[node], negated);
  }

  circuit.check();
  result.stats.num_luts = circuit.num_luts();
  result.stats.num_trees = static_cast<int>(forest.trees.size());
  result.stats.depth = circuit.depth();
  result.stats.duplicated_roots = duplication.accepted;
  result.stats.seconds = timer.seconds();
  OBS_COUNT("chortle.map.networks", 1);
  OBS_COUNT("chortle.map.luts", result.stats.num_luts);
  return result;
}

}  // namespace chortle::core
