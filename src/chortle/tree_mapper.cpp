#include "chortle/tree_mapper.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>
#include <vector>

#include "base/cancel.hpp"
#include "base/small_vector.hpp"
#include "chortle/subset_tables.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "truth/packed.hpp"

namespace chortle::core {
namespace {

int lowest_bit(std::uint32_t mask) { return std::countr_zero(mask); }

}  // namespace

TreeMapper::TreeMapper(WorkTree tree, const Options& options)
    : tree_(std::move(tree)), options_(options), k_(options.k) {
  obs::TraceSpan span("tree_map.solve", tree_.size());
  options_.validate();
  const int stride = k_ + 1;

  // Lay out every node's tables in the four shared arenas up front: one
  // allocation per table kind for the whole tree, with each node's rows
  // at a fixed offset. Offsets are assigned in node-index order (any
  // fixed order works — solve order is postorder regardless).
  tables_.resize(static_cast<std::size_t>(tree_.size()));
  std::size_t total_h = 0;
  std::size_t total_cost = 0;
  for (int node = 0; node < tree_.size(); ++node) {
    const int f = static_cast<int>(tree_.node(node).children.size());
    NodeTables& t = tables_[static_cast<std::size_t>(node)];
    t.fanin = f;
    t.h_off = total_h;
    t.cost_off = total_cost;
    const std::size_t num_subsets = std::size_t{1} << f;
    total_h += num_subsets * static_cast<unsigned>(stride);
    total_cost += num_subsets;
  }
  h_words_ = total_h;
  cost_words_ = total_cost;
  // Uninitialized on purpose (see the member comment): solve_node
  // writes every reachable cell, so a fill pass here would only burn
  // memory bandwidth — measurable on wide nodes, whose tables run to
  // tens of kilobytes.
  arena_h_ = std::make_unique_for_overwrite<std::int32_t[]>(total_h +
                                                            total_cost);
  arena_choice_ = std::make_unique_for_overwrite<Choice[]>(total_h);
  arena_cost_u_ = std::make_unique_for_overwrite<std::uint8_t[]>(total_cost);

  // Postorder traversal: leaf nodes to the root (paper Figure 4). Same
  // reversed-preorder walk as WorkTree::postorder(), but into inline
  // storage — constructing a mapper for the common small tree must not
  // allocate scratch.
  base::SmallVector<int, 96> order;
  {
    base::SmallVector<int, 32> stack;
    stack.push_back(tree_.root);
    while (!stack.empty()) {
      const int idx = stack.back();
      stack.pop_back();
      order.push_back(idx);
      for (const WorkChild& child : tree_.node(idx).children)
        if (!child.is_leaf) stack.push_back(child.node);
    }
  }
  for (std::size_t i = order.size(); i-- > 0;) solve_node(order[i]);
  // A fully constructed mapper is immutable and may be cached across
  // requests; the token only governs this construction, so drop it
  // before it can dangle.
  options_.cancel = nullptr;
  OBS_COUNT("chortle.trees_mapped", 1);
  OBS_COUNT("chortle.tree.nodes", tree_.size());
  OBS_COUNT("chortle.tree.dp_cells", counters_.dp_cells);
  OBS_COUNT("chortle.tree.util_divisions", counters_.util_divisions);
  OBS_COUNT("chortle.tree.decomp_candidates", counters_.decomp_candidates);
  OBS_COUNT("chortle.tree.decomp_memo_hits", counters_.decomp_memo_hits);
}

std::int32_t TreeMapper::direct_contribution(const WorkChild& child,
                                             int u) const {
  if (child.is_leaf) return u == 1 ? 0 : kInfCost;
  const NodeTables& t = tables_[static_cast<std::size_t>(child.node)];
  const std::uint32_t full = (std::uint32_t{1} << t.fanin) - 1;
  if (u == 1) return cost_of(t)[full];  // best complete mapping
  // Root-LUT merge: the root table of minmap(child, u) is contained in
  // the constructed root table and is eliminated (§3.1.2, Figure 6c),
  // so the +1 for the child's root LUT and the -1 for the merge cancel
  // and the contribution is h itself.
  return h_of(t)[full * static_cast<unsigned>(k_ + 1) +
                 static_cast<unsigned>(u)];
}

void TreeMapper::solve_node(int node) {
  // Dispatch to the K-specialized kernel: with K a compile-time
  // constant the utilization sweeps below are fixed-trip loops the
  // compiler unrolls and keeps in registers.
  switch (k_) {
    case 2: solve_node_impl<2>(node); return;
    case 3: solve_node_impl<3>(node); return;
    case 4: solve_node_impl<4>(node); return;
    case 5: solve_node_impl<5>(node); return;
    case 6: solve_node_impl<6>(node); return;
    default: CHORTLE_CHECK_MSG(false, "K out of range");  // validate() bounds K
  }
}

template <int K>
void TreeMapper::solve_node_impl(int node) {
  constexpr int stride = K + 1;
  // Cancellation point: once per node visit, and (below) every 1024
  // subsets of a wide node's 2^fanin subset sweep, so even a single
  // fanin-20 node notices an expired deadline within ~milliseconds.
  if (options_.cancel != nullptr) options_.cancel->check("tree_map.solve");
  const WorkNode& wn = tree_.node(node);
  const int f = static_cast<int>(wn.children.size());
  CHORTLE_CHECK(f >= 2 && f <= 20);
  const NodeTables& t = tables_[static_cast<std::size_t>(node)];
  CHORTLE_CHECK(t.fanin == f);
  const std::uint32_t num_subsets = std::uint32_t{1} << f;
  std::int32_t* h = arena_h_.get() + t.h_off;
  Choice* choice = arena_choice_.get() + t.h_off;
  std::int32_t* node_cost = arena_h_.get() + h_words_ + t.cost_off;
  std::uint8_t* node_cost_u = arena_cost_u_.get() + t.cost_off;
  // h(empty set, 0) = 0 anchors the definition; the rest of the empty
  // row is never read (option A consults h(rest, *) only for rest != 0
  // — singletons take the fast path — and group complements are
  // nonempty), so the arena needs no fill beyond the per-subset writes
  // below.
  h[0] = 0;

  // contrib[e * stride + u] = direct_contribution(child e, u), loaded
  // once per node visit. The subset loop below consults it once per
  // (subset, u_total, u_e) triple, so reading child tables there would
  // redo the same pointer chase ~2^f * K^2 / 2 times.
  std::int32_t* contrib = scratch_contrib_;
  for (int e = 0; e < f; ++e) {
    contrib[e * stride] = kInfCost;  // u = 0 is never consulted
    for (int u = 1; u <= K; ++u)
      contrib[e * stride + u] = direct_contribution(wn.children[e], u);
  }

  // Precomputed group enumeration; nullptr above kMaxTabulatedFanin.
  const SubsetTables* tabs = subset_tables(f);

  // This node visit's tallies; merged into the instance totals at the
  // end of the visit so every counter is attributed identically. Every
  // nonempty subset tries utilization divisions u_e = 1..u_total for
  // each u_total in {0, 2..K}, so the tally per subset is a constant.
  constexpr std::uint64_t kDivisionsPerSubset = K * (K + 1) / 2 - 1;
  DpCounters visit;
  visit.dp_cells =
      static_cast<std::uint64_t>(num_subsets) * static_cast<unsigned>(stride);
  visit.util_divisions =
      static_cast<std::uint64_t>(num_subsets - 1) * kDivisionsPerSubset;

  for (std::uint32_t subset = 1; subset < num_subsets; ++subset) {
    if (options_.cancel != nullptr && (subset & 0x3FF) == 0)
      options_.cancel->check("tree_map.solve_node");
    const int e = lowest_bit(subset);
    const std::uint32_t rest = subset & (subset - 1);
    std::int32_t* hs = h + subset * static_cast<unsigned>(stride);
    Choice* cs = choice + subset * static_cast<unsigned>(stride);
    const std::int32_t* ce = contrib + e * stride;
    const std::int32_t* hrest = h + rest * static_cast<unsigned>(stride);

    if (rest == 0) {
      // Singleton fast path: h(empty, u') is finite only at u' = 0, so
      // option A reduces to u_e = u_total and there are no groups —
      // h({e}, u) is just contrib(e, u). Every cell of the row is
      // written (contrib is kInfCost where infeasible); the arenas are
      // uninitialized, so unconditional stores double as the fill.
      hs[0] = kInfCost;
      std::int32_t nc = kInfCost;
      std::uint8_t nc_u = 0;
      for (int u = 2; u <= K; ++u) {
        const std::int32_t c = ce[u];
        hs[u] = c;
        cs[u] = Choice{0, static_cast<std::uint8_t>(u), 'A'};
        // c + 1 < nc is false whenever c is kInfCost: nc never exceeds
        // kInfCost, so the infeasible branch needs no guard.
        if (c + 1 < nc) {
          nc = c + 1;
          nc_u = static_cast<std::uint8_t>(u);
        }
      }
      node_cost[subset] = nc;
      node_cost_u[subset] = nc_u;
      hs[1] = ce[1];
      cs[1] = Choice{0, 1, 'A'};
      continue;
    }

    // Pass 1 runs with per-cell running minima in registers; hs/cs are
    // written back once at the end. The candidate order per cell is the
    // original one — option A's u_e ascending, then groups in
    // descending-d order — with strict < throughout, so the winning
    // (cost, choice) pair is bit-identical to the reference search.
    //
    // Infeasible operands need no branch: kInfCost = INT32_MAX / 4
    // keeps every sum of two table entries below INT32_MAX, and an
    // operand at kInfCost can never produce a sum that strictly beats a
    // running best <= kInfCost (all finite contributions are >= 0 and
    // group costs >= 1).
    std::int32_t best[K + 1];
    Choice best_choice[K + 1];

    // Option A: child e taken directly with u_e of the root's inputs.
    // (U = 0 has no candidates and U = 1 needs node_cost[subset],
    // computed from these cells, so it is filled in pass 2.)
    for (int u_total = 2; u_total <= K; ++u_total) {
      std::int32_t b = kInfCost;
      std::uint8_t b_ue = 0;
      for (int ue = 1; ue <= u_total; ++ue) {
        const std::int32_t cand = ce[ue] + hrest[u_total - ue];
        if (cand < b) {
          b = cand;
          b_ue = static_cast<std::uint8_t>(ue);
        }
      }
      best[u_total] = b;
      best_choice[u_total] = Choice{0, b_ue, 'A'};
    }

    // Option B: child e grouped with others into an intermediate node
    // feeding exactly one root input. Each group is evaluated once and
    // serves the whole U sweep (memoized across utilizations). Groups
    // equal to the whole subset would need U = 1; they are excluded
    // from the enumeration and handled in pass 2.
    const auto scan_group = [&](std::uint32_t group) {
      const std::int32_t gc = node_cost[group];
      const std::int32_t* hcomp =
          h + (subset & ~group) * static_cast<unsigned>(stride);
      for (int u_total = 2; u_total <= K; ++u_total) {
        const std::int32_t cand = gc + hcomp[u_total - 1];
        if (cand < best[u_total]) {
          best[u_total] = cand;
          best_choice[u_total] = Choice{group, 0, 'B'};
        }
      }
    };
    std::uint64_t groups_here = 0;
    if (tabs != nullptr) {
      const std::uint32_t* gb = tabs->groups.data() + tabs->group_begin[subset];
      const std::uint32_t* ge =
          tabs->groups.data() + tabs->group_begin[subset + 1];
      groups_here = static_cast<std::uint64_t>(ge - gb);
      for (; gb != ge; ++gb) scan_group(*gb);
    } else {
      // Fanin above the tabulation cap: fall back to deriving the same
      // enumeration, in the same order, on the fly.
      const std::uint32_t low = std::uint32_t{1} << e;
      for (std::uint32_t d = rest; d != 0; d = (d - 1) & rest) {
        const std::uint32_t group = d | low;
        if (group == subset) continue;  // leaves S \ d empty; needs U = 1
        ++groups_here;
        scan_group(group);
      }
    }
    visit.decomp_candidates += groups_here;
    // Each group evaluation serves the K - 1 utilizations of the sweep;
    // the pre-memoization loop re-derived it per utilization.
    visit.decomp_memo_hits += groups_here * static_cast<std::uint64_t>(K - 2);

    // Write back every cell of the row (the arenas are uninitialized):
    // infeasible cells clamp to kInfCost so later sums over this row
    // cannot overflow, exactly the value the old fill pass pre-seeded.
    // Their choices are never followed — reconstruction only descends
    // through finite-cost cells.
    hs[0] = kInfCost;
    std::int32_t nc = kInfCost;
    std::uint8_t nc_u = 0;
    for (int u = 2; u <= K; ++u) {
      const std::int32_t cost = best[u];
      hs[u] = cost < kInfCost ? cost : kInfCost;
      cs[u] = best_choice[u];
      // cost + 1 < nc rejects cost >= kInfCost by itself (nc starts at
      // kInfCost and only decreases), so no explicit infeasible guard.
      if (cost + 1 < nc) {
        nc = cost + 1;
        nc_u = static_cast<std::uint8_t>(u);
      }
    }
    node_cost[subset] = nc;
    node_cost_u[subset] = nc_u;

    // Pass 2: U = 1. A non-singleton subset (singletons took the fast
    // path above) must form one intermediate node; nc is already
    // kInfCost when that is infeasible.
    hs[1] = nc;
    cs[1] = Choice{subset, 0, 'B'};
  }
  counters_.merge(visit);
}

int TreeMapper::minmap_cost(int node, int utilization) const {
  CHORTLE_REQUIRE(node >= 0 && node < tree_.size(), "node index");
  CHORTLE_REQUIRE(utilization >= 2 && utilization <= k_, "utilization");
  const NodeTables& t = tables_[static_cast<std::size_t>(node)];
  const std::uint32_t full = (std::uint32_t{1} << t.fanin) - 1;
  const std::int32_t h = h_of(t)[full * static_cast<unsigned>(k_ + 1) +
                                 static_cast<unsigned>(utilization)];
  return h >= kInfCost ? kInfCost : h + 1;
}

int TreeMapper::best_cost_of(int node) const {
  CHORTLE_REQUIRE(node >= 0 && node < tree_.size(), "node index");
  const NodeTables& t = tables_[static_cast<std::size_t>(node)];
  const std::uint32_t full = (std::uint32_t{1} << t.fanin) - 1;
  return cost_of(t)[full];
}

int TreeMapper::best_cost() const { return best_cost_of(tree_.root); }

std::size_t TreeMapper::memory_bytes() const {
  std::size_t bytes = sizeof(TreeMapper);
  bytes += (h_words_ + cost_words_) * sizeof(std::int32_t);
  bytes += h_words_ * sizeof(Choice);
  bytes += cost_words_ * sizeof(std::uint8_t);
  bytes += tables_.capacity() * sizeof(NodeTables);
  for (const WorkNode& n : tree_.nodes)
    bytes += sizeof(WorkNode) + n.children.capacity() * sizeof(WorkChild);
  return bytes;
}

net::SignalId TreeMapper::emit(net::LutCircuit& circuit,
                               const std::vector<net::SignalId>& signal_of,
                               bool complement_root,
                               const std::string& root_name) const {
  EmitContext ctx{circuit, signal_of};
  const NodeTables& t = tables_[static_cast<std::size_t>(tree_.root)];
  const std::uint32_t full = (std::uint32_t{1} << t.fanin) - 1;
  CHORTLE_CHECK_MSG(cost_of(t)[full] < kInfCost, "tree has no mapping");
  const net::SignalId out = emit_node_lut(
      ctx, tree_.root, cost_u_of(t)[full], complement_root, root_name);
  OBS_COUNT("chortle.emit.kernel_ops", ctx.kernel_ops);
  return out;
}

void TreeMapper::walk_cone(EmitContext& ctx, int node, std::uint32_t mask,
                           int u, ConeProgram& prog) const {
  const WorkNode& wn = tree_.node(node);
  const NodeTables& t = tables_[static_cast<std::size_t>(node)];
  const int stride = k_ + 1;
  while (mask != 0) {
    CHORTLE_CHECK(u >= 1);
    const Choice c = choice_of(t)[mask * static_cast<unsigned>(stride) +
                                  static_cast<unsigned>(u)];
    if (c.kind == 'A') {
      const int e = lowest_bit(mask);
      const WorkChild& child = wn.children[static_cast<std::size_t>(e)];
      if (c.direct_u == 1) {
        net::SignalId sig;
        if (child.is_leaf) {
          sig = ctx.signal_of[static_cast<std::size_t>(child.leaf_signal)];
          CHORTLE_CHECK_MSG(sig >= 0, "tree leaf has no circuit signal");
        } else {
          const NodeTables& ct = tables_[static_cast<std::size_t>(child.node)];
          const std::uint32_t cfull = (std::uint32_t{1} << ct.fanin) - 1;
          sig = emit_node_lut(ctx, child.node, cost_u_of(ct)[cfull],
                              /*complemented=*/false, "");
        }
        prog.push_back(ConeTok{ConeTok::kLeaf, child.negated,
                               net::GateOp::kAnd, sig});
      } else {
        // Merge the child's root table into this cone (§3.1.2): its
        // operands evaluate under the child's op, bracketed by an
        // Open/Close pair in the program.
        CHORTLE_CHECK(!child.is_leaf);
        const WorkNode& cn = tree_.node(child.node);
        const NodeTables& ct = tables_[static_cast<std::size_t>(child.node)];
        const std::uint32_t cfull = (std::uint32_t{1} << ct.fanin) - 1;
        prog.push_back(ConeTok{ConeTok::kOpen, child.negated, cn.op, -1});
        walk_cone(ctx, child.node, cfull, c.direct_u, prog);
        prog.push_back(ConeTok{ConeTok::kClose, false, net::GateOp::kAnd, -1});
      }
      mask &= mask - 1;
      u -= c.direct_u;
    } else {
      CHORTLE_CHECK_MSG(c.kind == 'B',
                        "reconstructing an infeasible mapping");
      CHORTLE_CHECK((c.group_mask & mask) == c.group_mask &&
                    std::popcount(c.group_mask) >= 2);
      const net::SignalId sig = emit_group_lut(ctx, node, c.group_mask);
      prog.push_back(ConeTok{ConeTok::kLeaf, false, net::GateOp::kAnd, sig});
      mask &= ~c.group_mask;
      u -= 1;
    }
  }
  CHORTLE_CHECK_MSG(u == 0, "utilization accounting mismatch");
}

net::SignalId TreeMapper::emit_node_lut(EmitContext& ctx, int node, int u,
                                        bool complemented,
                                        const std::string& name) const {
  const WorkNode& wn = tree_.node(node);
  const NodeTables& t = tables_[static_cast<std::size_t>(node)];
  const std::uint32_t full = (std::uint32_t{1} << t.fanin) - 1;
  ConeProgram prog;
  walk_cone(ctx, node, full, u, prog);
  return emit_cone(ctx, prog, wn.op, complemented, name);
}

net::SignalId TreeMapper::emit_group_lut(EmitContext& ctx, int node,
                                         std::uint32_t mask) const {
  const WorkNode& wn = tree_.node(node);
  const NodeTables& t = tables_[static_cast<std::size_t>(node)];
  ConeProgram prog;
  walk_cone(ctx, node, mask, cost_u_of(t)[mask], prog);
  return emit_cone(ctx, prog, wn.op, /*complemented=*/false, "");
}

net::SignalId TreeMapper::emit_cone(EmitContext& ctx, const ConeProgram& prog,
                                    net::GateOp root_op, bool complemented,
                                    const std::string& name) const {
  // Gather the distinct input signals in first-appearance order (the DP
  // counts repeated leaves separately — they are distinct leaf nodes of
  // the tree, paper Figure 3 — but one physical LUT pin suffices when
  // the same signal appears twice, so the emitted LUT deduplicates).
  // Cone arity is bounded by K <= 6, so a linear scan over a small
  // inline vector beats a hash map here. Tokens appear in the cone's
  // left-to-right operand order, so scanning the program preserves the
  // pin order of the old expression-tree walk.
  base::SmallVector<net::SignalId, 8> inputs;
  const auto pin_of = [&inputs](net::SignalId signal) -> int {
    for (std::size_t i = 0; i < inputs.size(); ++i)
      if (inputs[i] == signal) return static_cast<int>(i);
    return -1;
  };
  for (const ConeTok& tok : prog)
    if (tok.kind == ConeTok::kLeaf && pin_of(tok.signal) < 0)
      inputs.push_back(tok.signal);
  const int arity = static_cast<int>(inputs.size());
  CHORTLE_CHECK_MSG(arity <= k_, "cone exceeds K distinct inputs");

  // Evaluate the postfix program with a frame stack of accumulators: an
  // Open pushes an empty frame, a leaf folds into the top frame, a
  // Close folds the finished sub-table into the frame below. The first
  // operand of a frame lands by assignment instead of combining into
  // the op's identity table (x = 1 AND x = 0 OR x), saving an identity
  // build and a word op per frame. Every PackedTable accumulator lives
  // inline in the frame, so the whole build is word-parallel with zero
  // heap allocation until the final LUT.
  struct Frame {
    truth::PackedTable acc;
    net::GateOp op;
    bool negated;
    bool has_value;
  };
  const auto combine = [&ctx](Frame& top, const truth::PackedTable& value) {
    ++ctx.kernel_ops;
    if (!top.has_value) {
      top.acc = value;
      top.has_value = true;
    } else if (top.op == net::GateOp::kAnd) {
      top.acc &= value;
    } else {
      top.acc |= value;
    }
  };
  // Merge chains nest a frame per merged table.
  base::SmallVector<Frame, 16> frames;
  frames.push_back(Frame{truth::PackedTable(), root_op, false, false});
  for (const ConeTok& tok : prog) {
    switch (tok.kind) {
      case ConeTok::kLeaf: {
        ++ctx.kernel_ops;
        truth::PackedTable value =
            truth::PackedTable::var(pin_of(tok.signal), arity);
        if (tok.negated) value = ~value;
        combine(frames.back(), value);
        break;
      }
      case ConeTok::kOpen:
        frames.push_back(
            Frame{truth::PackedTable(), tok.op, tok.negated, false});
        break;
      case ConeTok::kClose: {
        CHORTLE_CHECK(frames.back().has_value);  // cones have >= 1 operand
        truth::PackedTable value = frames.back().acc;
        if (frames.back().negated) {
          ++ctx.kernel_ops;
          value = ~value;
        }
        frames.pop_back();
        CHORTLE_CHECK(!frames.empty());
        combine(frames.back(), value);
        break;
      }
    }
  }
  CHORTLE_CHECK(frames.size() == 1 && frames.back().has_value);
  truth::PackedTable fn = frames.back().acc;
  if (complemented) {
    ++ctx.kernel_ops;
    fn = ~fn;
  }

  net::Lut lut;
  lut.inputs.assign(inputs.begin(), inputs.end());
  lut.function = fn.to_truth();
  lut.name = name;
  return ctx.circuit.add_lut(std::move(lut));
}

}  // namespace chortle::core
