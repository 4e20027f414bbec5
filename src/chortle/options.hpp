// Tunables of the Chortle mapper. Defaults reproduce the paper's setup.
#pragma once

#include "base/check.hpp"

namespace chortle::base {
class CancelToken;
}  // namespace chortle::base

namespace chortle::core {

/// Upper bounds on the duplication limits (Options::validate). The
/// duplication pass re-runs the exponential tree DP once per candidate
/// cone and trial partition, so an unbounded limit lets a single option
/// value turn one mapping into thousands of full DP solves. The bounds
/// are far above anything useful: the paper's §5 experiments use cones
/// of at most ~12 gates and fanouts of 2-4.
inline constexpr int kMaxDuplicationGates = 64;
inline constexpr int kMaxDuplicationReaders = 32;

struct Options {
  /// LUT input count K (the paper evaluates K = 2..5).
  int k = 4;

  /// Nodes with fanin above this are pre-split into two nodes of roughly
  /// equal fanin before the decomposition search (paper §3.1.4, bound 10).
  int split_threshold = 10;

  /// When false, every node is restructured into a balanced tree of
  /// 2-input nodes before mapping, i.e. one fixed decomposition is used
  /// instead of searching all of them. This is the ablation for the
  /// paper's claim that considering all decompositions reduces area.
  bool search_decompositions = true;

  /// Has no effect: map_network maps one tree at a time on the
  /// caller's thread (DESIGN.md "Concurrency model"). Kept so existing
  /// callers that assign it still compile; validate() accepts only 0
  /// and 1, so a request for parallelism is refused, not dropped.
  int jobs = 0;

  /// §5 future-work extension: replicate small fanout-node cones into
  /// their readers when the exact per-tree DP says the total LUT count
  /// drops (see chortle/duplicate.hpp). Off by default to keep the
  /// base algorithm exactly the paper's.
  bool duplicate_fanout_logic = false;
  /// Only cones of at most this many gates are duplication candidates
  /// (in [1, kMaxDuplicationGates]).
  int duplication_max_gates = 12;
  /// ... read by at most this many trees (in [1, kMaxDuplicationReaders]).
  int duplication_max_readers = 4;

  /// Optional cooperative cancellation (deadline or explicit cancel)
  /// polled by the tree DP loops; see base/cancel.hpp. Not a tunable:
  /// never affects the mapping, only whether it completes. The token
  /// must outlive the mapping call; nullptr disables cancellation.
  const base::CancelToken* cancel = nullptr;

  void validate() const {
    CHORTLE_REQUIRE(duplication_max_gates >= 1 &&
                        duplication_max_readers >= 1,
                    "duplication limits must be positive");
    CHORTLE_REQUIRE(duplication_max_gates <= kMaxDuplicationGates,
                    "duplication_max_gates above the documented bound "
                    "(kMaxDuplicationGates): the duplication trial DP cost "
                    "grows with every candidate cone gate");
    CHORTLE_REQUIRE(duplication_max_readers <= kMaxDuplicationReaders,
                    "duplication_max_readers above the documented bound "
                    "(kMaxDuplicationReaders): each reader multiplies the "
                    "number of trial mappings");
    CHORTLE_REQUIRE(k >= 2 && k <= 6, "LUT size K must be in [2, 6]");
    CHORTLE_REQUIRE(split_threshold >= 2 && split_threshold <= 16,
                    "split threshold must be in [2, 16]");
    CHORTLE_REQUIRE(jobs == 0 || jobs == 1,
                    "jobs must be 0 or 1: map_network runs on one thread");
  }
};

}  // namespace chortle::core
