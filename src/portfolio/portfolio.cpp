#include "portfolio/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <optional>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "base/cancel.hpp"
#include "base/check.hpp"
#include "chortle/forest.hpp"
#include "obs/metrics.hpp"
#include "sim/simulate.hpp"

namespace chortle::portfolio {
namespace {

using SteadyClock = std::chrono::steady_clock;
using TimePoint = base::Clock::TimePoint;

/// A verified cover of some subject network, tagged with the strategy
/// that produced it. rank is the strategy's index in the race lineup
/// (fallback 0); the stitched composite uses strategies.size(), the one
/// rank no single strategy holds, so it loses every exact tie.
struct Candidate {
  net::LutCircuit circuit;
  int luts = 0;
  int depth = 0;
  int rank = 0;
};

/// Lower tuple wins. rank's position implements the tie-break policy
/// documented on Objective: equal primary (and, for kDepthThenLuts,
/// secondary) metrics fall back to registration order.
std::tuple<int, int, int> objective_key(Objective objective,
                                        const Candidate& c) {
  switch (objective) {
    case Objective::kLuts:
      return {c.luts, c.rank, c.depth};
    case Objective::kDepth:
      return {c.depth, c.rank, c.luts};
    case Objective::kDepthThenLuts:
      return {c.depth, c.luts, c.rank};
  }
  throw InternalError("objective_key: unknown objective");
}

/// A fanout-free tree lifted out of its parent network as a standalone
/// network: leaves become inputs "l0", "l1", ... (leaves[i] records the
/// parent node input i stands for) and the root drives output "root".
struct TreeSubnet {
  net::Network network;
  std::vector<net::NodeId> leaves;
};

TreeSubnet extract_tree(const net::Network& parent, const core::Tree& tree) {
  TreeSubnet out;
  std::unordered_map<net::NodeId, net::NodeId> local;  // parent -> subnet
  for (const net::NodeId gate : tree.gates) local.emplace(gate, -1);
  std::unordered_map<net::NodeId, net::NodeId> leaf_of;
  for (const net::NodeId gate : tree.gates) {
    const net::Network::Node& node = parent.node(gate);
    std::vector<net::Fanin> fanins;
    fanins.reserve(node.fanins.size());
    for (const net::Fanin& fanin : node.fanins) {
      const auto in_tree = local.find(fanin.node);
      net::NodeId src;
      if (in_tree != local.end() && in_tree->second != -1) {
        src = in_tree->second;
      } else {
        const auto leaf = leaf_of.find(fanin.node);
        if (leaf != leaf_of.end()) {
          src = leaf->second;
        } else {
          src = out.network.add_input(
              "l" + std::to_string(out.leaves.size()));
          leaf_of.emplace(fanin.node, src);
          out.leaves.push_back(fanin.node);
        }
      }
      fanins.push_back(net::Fanin{src, fanin.negated});
    }
    local[gate] = out.network.add_gate(node.op, std::move(fanins));
  }
  out.network.add_output("root", local.at(tree.root), /*negated=*/false);
  return out;
}

/// Verifies a mapping result against the network it covers and wraps it
/// as a Candidate; nullopt when the cover fails structural or
/// simulation checks. Racer results pass through here so an unsound
/// strategy can lose the race but never corrupt the output.
std::optional<Candidate> make_candidate(const net::Network& subject,
                                        net::LutCircuit circuit, int rank) {
  try {
    circuit.check();
    if (!sim::equivalent(sim::design_of(subject), sim::design_of(circuit)))
      return std::nullopt;
  } catch (...) {
    return std::nullopt;
  }
  Candidate candidate{std::move(circuit), 0, 0, rank};
  candidate.luts = candidate.circuit.num_luts();
  candidate.depth = candidate.circuit.depth();
  return candidate;
}

/// Shared state of one race. Tasks hold the context via shared_ptr, so
/// stragglers that outlive map_with() (the pool keeps running them
/// after the deadline closed the race) still reference valid memory:
/// the context owns copies of the network, the subnets, and the child
/// tokens the tasks map under.
struct RaceContext {
  std::mutex mu;
  std::condition_variable cv;
  int pending = 0;
  bool closed = false;

  net::Network network;
  std::vector<TreeSubnet> subnets;
  std::vector<std::unique_ptr<base::CancelToken>> tokens;  // per racer

  // Slots indexed by racer (strategy index) and, for per_tree, by tree.
  std::vector<std::optional<Candidate>> whole;
  std::vector<std::vector<std::optional<Candidate>>> per_tree;
  std::vector<char> racer_cancelled;
};

/// One racer task: map the whole network (tree < 0) or subnet `tree`
/// with strategy `rank` under its child token, verify, and publish into
/// the context unless the race has closed. The candidate slot is only
/// resolved under the lock with `closed` false: once the driver closes
/// the race it moves the slot vectors out of the context, so a
/// straggler that starts (or finishes) late must never index them.
/// The subject networks, by contrast, stay in the context for its whole
/// lifetime, so reading them lock-free here is safe.
void run_race_task(const std::shared_ptr<RaceContext>& ctx,
                   const core::IMapper* strategy, int rank,
                   const core::Options& base_options, int tree) {
  const net::Network& subject =
      tree < 0 ? ctx->network
               : ctx->subnets[static_cast<std::size_t>(tree)].network;
  const base::CancelToken* token = ctx->tokens[static_cast<std::size_t>(rank)]
                                       .get();
  bool cancelled = false;
  std::optional<Candidate> candidate;
  if (token->cancel_requested()) {
    // The race closed before this task ever started; skip the work.
    cancelled = true;
  } else {
    try {
      core::Options options = base_options;
      options.cancel = token;
      core::MapResult result = strategy->map(subject, options);
      bool closed;
      {
        const std::lock_guard<std::mutex> lock(ctx->mu);
        closed = ctx->closed;
      }
      // Verification is the expensive tail; skip it when the result can
      // no longer be used.
      if (!closed)
        candidate =
            make_candidate(subject, std::move(result.circuit), rank);
    } catch (const base::Cancelled&) {
      cancelled = true;
    } catch (...) {
      // A strategy that throws simply contributes nothing.
    }
  }
  {
    const std::lock_guard<std::mutex> lock(ctx->mu);
    if (cancelled) ctx->racer_cancelled[static_cast<std::size_t>(rank)] = 1;
    if (!ctx->closed && candidate.has_value()) {
      std::optional<Candidate>& slot =
          tree < 0 ? ctx->whole[static_cast<std::size_t>(rank)]
                   : ctx->per_tree[static_cast<std::size_t>(rank)]
                                  [static_cast<std::size_t>(tree)];
      slot = std::move(candidate);
    }
    --ctx->pending;
    ctx->cv.notify_all();
  }
}

/// Appends `cover` (a verified cover of the subnet whose leaves map to
/// parent signals via signal_of) to `stitched`, returning the positive
/// stitched signal of the tree root. Cover LUT names are dropped —
/// names must stay unique per circuit and several covers are merged.
net::SignalId splice_tree(net::LutCircuit& stitched,
                          const net::LutCircuit& cover,
                          const std::vector<net::NodeId>& leaves,
                          const std::vector<net::SignalId>& signal_of) {
  // Map cover input signals to stitched signals by name: input "l<i>"
  // stands for parent node leaves[i]. Matching by name (not position)
  // tolerates strategies that reorder inputs.
  std::vector<net::SignalId> remap(
      static_cast<std::size_t>(cover.num_signals()), -1);
  for (int i = 0; i < cover.num_inputs(); ++i) {
    const std::string& name = cover.input_names()[static_cast<std::size_t>(i)];
    CHORTLE_CHECK(name.size() >= 2 && name[0] == 'l');
    const std::size_t leaf = std::stoul(name.substr(1));
    CHORTLE_CHECK(leaf < leaves.size());
    const net::SignalId parent_signal =
        signal_of[static_cast<std::size_t>(leaves[leaf])];
    CHORTLE_CHECK(parent_signal >= 0);
    remap[static_cast<std::size_t>(i)] = parent_signal;
  }

  CHORTLE_CHECK(cover.outputs().size() == 1);
  const net::LutOutput& out = cover.outputs()[0];

  if (out.is_const) {
    // Degenerate cover: the tree collapsed to a constant. Emit a
    // one-input constant LUT so downstream trees still have a signal
    // to read. Any existing signal serves as the ignored input.
    CHORTLE_CHECK(stitched.num_signals() > 0);
    return stitched.add_lut(net::Lut{
        {0},
        out.const_value ? truth::TruthTable::ones(1)
                        : truth::TruthTable::zeros(1),
        ""});
  }

  // The root LUT's table can absorb a free output inversion as long as
  // no other LUT in the cover reads its signal (inverting it would
  // change what they see).
  bool complement_root = false;
  net::SignalId inverter_over = -1;
  if (out.negated) {
    if (cover.is_input_signal(out.signal)) {
      inverter_over = out.signal;  // resolved to a stitched signal below
    } else {
      bool root_is_read = false;
      for (const net::Lut& lut : cover.luts())
        for (const net::SignalId input : lut.inputs)
          if (input == out.signal) root_is_read = true;
      if (root_is_read)
        inverter_over = out.signal;
      else
        complement_root = true;
    }
  }

  for (int i = 0; i < cover.num_luts(); ++i) {
    const net::SignalId cover_signal = cover.num_inputs() + i;
    const net::Lut& lut =
        cover.luts()[static_cast<std::size_t>(i)];
    net::Lut copy;
    copy.inputs.reserve(lut.inputs.size());
    for (const net::SignalId input : lut.inputs) {
      const net::SignalId mapped = remap[static_cast<std::size_t>(input)];
      CHORTLE_CHECK(mapped >= 0);
      copy.inputs.push_back(mapped);
    }
    copy.function = (complement_root && cover_signal == out.signal)
                        ? ~lut.function
                        : lut.function;
    remap[static_cast<std::size_t>(cover_signal)] = stitched.add_lut(
        std::move(copy));
  }

  if (inverter_over >= 0) {
    const net::SignalId over =
        remap[static_cast<std::size_t>(inverter_over)];
    CHORTLE_CHECK(over >= 0);
    return stitched.add_lut(
        net::Lut{{over}, ~truth::TruthTable::var(0, 1), ""});
  }
  return remap[static_cast<std::size_t>(out.signal)];
}

/// Composes per-tree winning covers into one circuit of the parent
/// network. Deterministic given the winner set: primary inputs in
/// network order, trees in forest order, LUTs in cover order.
net::LutCircuit stitch(const net::Network& network,
                       const core::Forest& forest,
                       const std::vector<TreeSubnet>& subnets,
                       const std::vector<const Candidate*>& tree_winners,
                       int k) {
  net::LutCircuit stitched(k);
  std::vector<net::SignalId> signal_of(
      static_cast<std::size_t>(network.num_nodes()), -1);
  for (const net::NodeId input : network.inputs())
    signal_of[static_cast<std::size_t>(input)] =
        stitched.add_input(network.node(input).name);
  for (std::size_t t = 0; t < forest.trees.size(); ++t)
    signal_of[static_cast<std::size_t>(forest.trees[t].root)] = splice_tree(
        stitched, tree_winners[t]->circuit, subnets[t].leaves, signal_of);
  for (const net::Output& output : network.outputs()) {
    if (output.is_const) {
      stitched.add_const_output(output.name, output.const_value);
    } else {
      const net::SignalId signal =
          signal_of[static_cast<std::size_t>(output.node)];
      CHORTLE_CHECK(signal >= 0);
      stitched.add_output(output.name, signal, output.negated);
    }
  }
  return stitched;
}

int default_pool_size() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(2, std::min(8, static_cast<int>(hw)));
}

}  // namespace

const char* to_string(Objective objective) {
  switch (objective) {
    case Objective::kLuts:
      return "luts";
    case Objective::kDepth:
      return "depth";
    case Objective::kDepthThenLuts:
      return "depth-luts";
  }
  throw InternalError("to_string: unknown objective");
}

Objective parse_objective(const std::string& name) {
  if (name == "luts") return Objective::kLuts;
  if (name == "depth") return Objective::kDepth;
  if (name == "depth-luts") return Objective::kDepthThenLuts;
  throw InvalidInput("unknown objective '" + name + "' (expected " +
                     objective_names() + ")");
}

std::string objective_names() { return "luts|depth|depth-luts"; }

std::vector<const core::IMapper*> default_strategies() {
  std::vector<const core::IMapper*> strategies;
  for (const char* name : {"chortle", "flowmap", "cutmap", "libmap"}) {
    const core::IMapper* mapper = core::find_mapper(name);
    CHORTLE_CHECK(mapper != nullptr);
    strategies.push_back(mapper);
  }
  return strategies;
}

PortfolioMapper::PortfolioMapper(PortfolioConfig config)
    : config_(std::move(config)) {}

PortfolioMapper::~PortfolioMapper() = default;

base::ThreadPool& PortfolioMapper::pool() const {
  const std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_ == nullptr)
    pool_ = std::make_unique<base::ThreadPool>(
        config_.jobs > 0 ? config_.jobs : default_pool_size());
  return *pool_;
}

core::MapResult PortfolioMapper::map(const net::Network& network,
                                     const core::Options& options) const {
  return map_with(network, options, config_, nullptr);
}

core::MapResult PortfolioMapper::map_with(const net::Network& network,
                                          const core::Options& options,
                                          const PortfolioConfig& config,
                                          PortfolioStats* stats) const {
  const auto wall_start = SteadyClock::now();
  options.validate();
  const std::vector<const core::IMapper*> strategies =
      config.strategies.empty() ? default_strategies() : config.strategies;
  CHORTLE_REQUIRE(!strategies.empty(),
                  "portfolio: at least one strategy (the fallback) required");

  const base::Clock* seam = config.clock;
  const auto now = [seam] {
    return seam != nullptr ? seam->now() : SteadyClock::now();
  };

  PortfolioStats race;
  race.strategies.resize(strategies.size());
  for (std::size_t r = 0; r < strategies.size(); ++r)
    race.strategies[r].name = strategies[r]->name();

  // Phase 0 — the guaranteed answer. The fallback runs with the
  // caller's options minus cancellation: a portfolio request whose
  // deadline expires mid-race still returns this verified cover.
  const core::IMapper* fallback = strategies[0];
  core::Options fallback_options = options;
  fallback_options.cancel = nullptr;
  core::MapResult fallback_result = fallback->map(network, fallback_options);
  std::optional<Candidate> fallback_whole =
      make_candidate(network, fallback_result.circuit, /*rank=*/0);
  CHORTLE_CHECK_MSG(fallback_whole.has_value(),
                    "portfolio: fallback strategy produced an invalid cover");
  race.strategies[0].completed = true;
  race.strategies[0].luts = fallback_whole->luts;
  race.strategies[0].depth = fallback_whole->depth;

  // Effective deadline: the race budget and the caller's token, earlier
  // of the two when both exist.
  std::optional<TimePoint> deadline;
  if (config.budget_ms >= 0)
    deadline = now() + std::chrono::milliseconds(config.budget_ms);
  const base::CancelToken* parent = options.cancel;
  if (parent != nullptr && parent->has_deadline())
    deadline = deadline.has_value()
                   ? std::min(*deadline, parent->deadline())
                   : parent->deadline();

  const bool race_feasible =
      strategies.size() > 1 && network.num_gates() > 0 &&
      !(deadline.has_value() && now() >= *deadline) &&
      !(parent != nullptr && parent->expired());

  std::vector<std::optional<Candidate>> whole(strategies.size());
  std::vector<std::vector<std::optional<Candidate>>> per_tree(
      strategies.size());
  core::Forest forest;
  std::vector<TreeSubnet> subnets;
  std::vector<std::optional<Candidate>> fallback_trees;
  const auto race_start = SteadyClock::now();

  if (race_feasible) {
    // Phase 0.5 — per-tree fallback candidates, so stitching always has
    // a verified cover for every cone even when racers win only some.
    forest = core::build_forest(network);
    subnets.reserve(forest.trees.size());
    for (const core::Tree& tree : forest.trees)
      subnets.push_back(extract_tree(network, tree));
    fallback_trees.resize(subnets.size());
    for (std::size_t t = 0; t < subnets.size(); ++t) {
      core::MapResult tree_result =
          fallback->map(subnets[t].network, fallback_options);
      fallback_trees[t] = make_candidate(
          subnets[t].network, std::move(tree_result.circuit), /*rank=*/0);
      CHORTLE_CHECK_MSG(fallback_trees[t].has_value(),
                        "portfolio: fallback tree cover failed verification");
    }

    // Phase 1 — the race.
    auto ctx = std::make_shared<RaceContext>();
    ctx->network = network;
    ctx->subnets = subnets;
    ctx->tokens.resize(strategies.size());
    ctx->whole.resize(strategies.size());
    ctx->per_tree.resize(strategies.size());
    ctx->racer_cancelled.assign(strategies.size(), 0);

    base::ThreadPool& workers = pool();
    {
      const std::unique_lock<std::mutex> lock(ctx->mu);
      for (std::size_t r = 1; r < strategies.size(); ++r) {
        const core::IMapper* strategy = strategies[r];
        if (options.k < strategy->min_k() || options.k > strategy->max_k())
          continue;  // this racer cannot play at this K
        ctx->tokens[r] = deadline.has_value()
                             ? std::make_unique<base::CancelToken>(*deadline,
                                                                   seam)
                             : std::make_unique<base::CancelToken>();
        ctx->per_tree[r].resize(subnets.size());
        ctx->pending += 1 + static_cast<int>(subnets.size());
      }
    }
    for (std::size_t r = 1; r < strategies.size(); ++r) {
      if (ctx->tokens[r] == nullptr) continue;
      const core::IMapper* strategy = strategies[r];
      const int rank = static_cast<int>(r);
      workers.submit([ctx, strategy, rank, options] {
        run_race_task(ctx, strategy, rank, options, /*tree=*/-1);
      });
      for (std::size_t t = 0; t < subnets.size(); ++t) {
        workers.submit([ctx, strategy, rank, options, t] {
          run_race_task(ctx, strategy, rank, options, static_cast<int>(t));
        });
      }
    }

    // Phase 2 — wait for completion, deadline, or parent cancellation.
    const base::Clock* wait_clock =
        seam != nullptr ? seam : base::real_clock();
    {
      std::unique_lock<std::mutex> lock(ctx->mu);
      while (ctx->pending > 0) {
        if (parent != nullptr && parent->cancel_requested()) break;
        if (deadline.has_value() && now() >= *deadline) break;
        TimePoint wait_to =
            deadline.has_value() ? *deadline : TimePoint::max();
        if (parent != nullptr && seam == nullptr) {
          // An explicit parent cancel() has no cv to poke us on the
          // real clock; poll at a coarse interval. (With an injected
          // fake clock the test wakes us via wake_all() instead.)
          wait_to =
              std::min(wait_to, now() + std::chrono::milliseconds(50));
        }
        wait_clock->wait_until(ctx->cv, lock, wait_to);
      }
      ctx->closed = true;
      race.cancelled = ctx->pending;
      whole = std::move(ctx->whole);
      per_tree = std::move(ctx->per_tree);
      for (std::size_t r = 0; r < strategies.size(); ++r)
        if (ctx->racer_cancelled[r]) race.strategies[r].cancelled = true;
    }
    for (const auto& token : ctx->tokens)
      if (token != nullptr) token->cancel();
  }
  const double race_seconds =
      std::chrono::duration<double>(SteadyClock::now() - race_start).count();

  // Phase 3 — selection. Per-tree winners first (fallback vs racers per
  // cone), then the global pool: fallback whole, racer wholes, and the
  // stitched composite when some racer won a cone.
  std::vector<const Candidate*> tree_winners(subnets.size(), nullptr);
  int racer_won_trees = 0;
  for (std::size_t t = 0; t < subnets.size(); ++t) {
    const Candidate* best = &*fallback_trees[t];
    for (std::size_t r = 1; r < strategies.size(); ++r) {
      if (per_tree[r].size() != subnets.size()) continue;
      const std::optional<Candidate>& candidate = per_tree[r][t];
      if (candidate.has_value() &&
          objective_key(config.objective, *candidate) <
              objective_key(config.objective, *best))
        best = &*candidate;
    }
    tree_winners[t] = best;
    if (best->rank != 0) {
      ++racer_won_trees;
      ++race.strategies[static_cast<std::size_t>(best->rank)].trees_won;
    }
  }

  std::optional<Candidate> stitched;
  if (racer_won_trees > 0) {
    net::LutCircuit composite =
        stitch(network, forest, subnets, tree_winners, options.k);
    stitched = make_candidate(network, std::move(composite),
                              static_cast<int>(strategies.size()));
    CHORTLE_CHECK_MSG(stitched.has_value(),
                      "portfolio: stitched cover failed verification");
  }

  const Candidate* winner = &*fallback_whole;
  for (std::size_t r = 1; r < strategies.size(); ++r) {
    if (whole[r].has_value()) {
      race.strategies[r].completed = true;
      race.strategies[r].luts = whole[r]->luts;
      race.strategies[r].depth = whole[r]->depth;
      if (objective_key(config.objective, *whole[r]) <
          objective_key(config.objective, *winner))
        winner = &*whole[r];
    }
  }
  if (stitched.has_value() &&
      objective_key(config.objective, *stitched) <
          objective_key(config.objective, *winner))
    winner = &*stitched;

  const bool stitched_won =
      winner->rank == static_cast<int>(strategies.size());
  race.winner = stitched_won
                    ? "stitched"
                    : strategies[static_cast<std::size_t>(winner->rank)]
                          ->name();
  race.stitched_trees = stitched_won ? racer_won_trees : 0;

  // Phase 4 — result assembly and observability. When nothing beat
  // chortle, keep the fallback's full stats (cache behaviour etc.) and
  // its circuit object untouched: the output is then byte-identical to
  // running chortle alone.
  core::MapResult result = std::move(fallback_result);
  if (winner->rank != 0) {
    result.circuit = winner->circuit;
    result.stats = core::MapStats{};
    result.stats.num_luts = winner->luts;
    result.stats.depth = winner->depth;
    result.stats.num_trees = static_cast<int>(subnets.size());
  }
  result.stats.seconds =
      std::chrono::duration<double>(SteadyClock::now() - wall_start).count();
  result.stats.portfolio_winner = race.winner;
  result.stats.portfolio_cancelled = race.cancelled;
  result.stats.portfolio_stitched_trees = race.stitched_trees;

  obs::Registry& registry = obs::Registry::global();
  registry.add(registry.counter("portfolio.won." + race.winner), 1);
  OBS_COUNT("portfolio.cancelled", race.cancelled);
  OBS_COUNT("portfolio.stitched_trees", race.stitched_trees);
  OBS_HDR_OBSERVE("portfolio.race.seconds", race_seconds);

  if (stats != nullptr) *stats = std::move(race);
  return result;
}

const PortfolioMapper& default_portfolio() {
  static const PortfolioMapper mapper;
  return mapper;
}

void ensure_registered() { core::register_mapper(&default_portfolio()); }

}  // namespace chortle::portfolio
