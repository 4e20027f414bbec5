// The unit of work of the differential fuzzer: one source network plus
// the mapper configuration and backend set it is checked under. A case
// is fully deterministic — re-running the oracle on an identical case
// reproduces the identical verdict — which is what makes greedy
// counterexample shrinking and corpus replay possible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chortle/imapper.hpp"
#include "chortle/options.hpp"
#include "portfolio/portfolio.hpp"
#include "sop/sop_network.hpp"

namespace chortle::fuzz {

/// The backends a case is cross-checked under by default: every mapper
/// in core's registry (src/chortle/imapper.hpp), in registry order, the
/// portfolio racer included.
inline std::vector<const core::IMapper*> registered_mappers() {
  portfolio::ensure_registered();
  return core::all_mappers();
}

/// A deterministic fault injected into the Chortle backend's mapped
/// circuit before verification: one flipped LUT truth-table bit. This
/// is how the oracle (and its tests) prove that a real miscompile would
/// be caught rather than silently waved through.
struct Injection {
  bool enabled = false;
  int lut_index = 0;           // taken modulo the circuit's LUT count
  std::uint64_t bit_index = 0; // taken modulo the LUT's minterm count
};

struct FuzzCase {
  sop::SopNetwork network;
  core::Options options;           // mapper options, incl. K
  std::vector<const core::IMapper*> backends = registered_mappers();
  std::string description;         // parameter summary for reports
};

}  // namespace chortle::fuzz
