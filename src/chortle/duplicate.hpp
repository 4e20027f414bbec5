// Logic duplication at fanout nodes — the first of the paper's §5
// future-work items ("optimizations that may result from the
// duplication of logic at fanout nodes").
//
// Forest partitioning makes every multiply-read gate a tree root and
// therefore a LUT output. When the gate's cone is small, replicating
// it into each reader's tree can be cheaper: the readers absorb the
// logic into their own LUTs and the boundary LUT disappears. (The
// paper observes MIS II attempting this greedily and failing to profit
// — "We have found that it is difficult to realize any savings by this
// greedy approach" — because MIS duplicated blindly; here each
// candidate is accepted only if the exact per-tree DP says the total
// LUT count drops.)
#pragma once

#include "chortle/forest.hpp"
#include "chortle/options.hpp"
#include "network/network.hpp"

namespace chortle::core {

struct DuplicationStats {
  int candidates = 0;  // fanout roots considered
  int accepted = 0;    // roots inlined into their readers
  int luts_saved = 0;  // exact improvement accepted decisions add up to
};

/// Greedy cost-driven duplication: repeatedly pick a tree root that is
/// read only by other gates (never by a primary output), tentatively
/// clear its root flag so each reader's tree absorbs a copy of its
/// cone, and keep the change iff the summed TreeMapper costs drop.
/// Returns the modified forest; `network` is not changed (duplication
/// only re-partitions the cover, the emitted circuit materializes the
/// copies).
Forest duplicate_fanout_logic(const net::Network& network, Forest forest,
                              const Options& options,
                              DuplicationStats* stats = nullptr);

}  // namespace chortle::core
