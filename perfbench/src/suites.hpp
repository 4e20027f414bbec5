// The request sets of the four workloads, all built from the seed and
// the generators in src/mcnc. The program only ever receives the BLIF
// text rendered here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Request {
  std::string name;  // circuit or generated netlist name
  std::string blif;  // BLIF model text, the only input the program sees
  int k = 4;
  std::string mapper = "chortle";
  bool verify = false;
};

/// The twelve MCNC substitutes of the paper's tables rendered to BLIF,
/// in the paper's order (flow_mcnc). The order is fixed: in a serial
/// pass it changes nothing but the heap and cache state each circuit
/// inherits, which only adds noise.
std::vector<Request> mcnc_suite();

/// 12 circuits x K = 4, 5, 6, chortle, no verify, in a seed-determined
/// order (serve_repeat).
std::vector<Request> repeat_suite(std::uint64_t seed);

/// `passes` passes of 36 distinct random_logic netlists each: per pass
/// one netlist per size stratum across 100-799 gates, 16-32 inputs,
/// 8-16 outputs, K cycling 4, 5, 6, shuffled within the pass. Every
/// netlist is derived from `seed` alone (serve_fresh).
inline constexpr int kFreshPerPass = 36;
std::vector<Request> fresh_pool(std::uint64_t seed, int passes);

/// The 12 circuits at K = 6 through the portfolio with verify, in a
/// fixed longest-verify-first order so that the pass time does not
/// depend on how the seed would have scheduled the four slowest
/// verifies onto the connections (serve_signoff).
std::vector<Request> signoff_suite();

/// FNV-1a digest over the ordered request set (names, options, BLIF).
std::string digest(const std::vector<Request>& requests);

}  // namespace perfbench
