// The Table-2 sweep core shared by every suite-wide bench driver: the
// paper's Tables 1-4 (run_table below), run_tables, ext_cutmap and
// ext_portfolio. Each one optimizes the twelve MCNC substitutes, maps
// them, times the mapping as the minimum of R repetitions, verifies the
// cover, writes a JSON document and optionally checks it against a
// committed baseline; those pieces live here once.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/timer.hpp"
#include "network/lut_circuit.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "opt/script.hpp"
#include "sop/sop_network.hpp"

namespace chortle::bench {

/// One suite circuit: the generated source and its optimized design.
struct Circuit {
  std::string name;
  sop::SopNetwork source;
  opt::OptimizedDesign design;
};

/// Generates and optimizes each circuit of `names` (all twelve MCNC
/// substitutes when empty), in order, and hands it to `visit`. Each
/// circuit runs inside a "bench.<name>" trace span; with a `report`,
/// generation and optimization are timed into its "generate" and
/// "optimize" phases.
void for_each_circuit(const std::vector<std::string>& names,
                      const std::function<void(const Circuit&)>& visit,
                      obs::RunReport* report = nullptr);

/// Runs `run` `repeat` (>= 1) times and returns the last run's result;
/// `*seconds` gets the wall time of the fastest run.
template <typename Run>
auto min_of_repeat(int repeat, double* seconds, Run&& run) {
  std::optional<decltype(run())> last;
  for (int r = 0; r < repeat; ++r) {
    last.reset();  // the previous result is freed outside the timing
    WallTimer timer;
    last.emplace(run());
    const double elapsed = timer.seconds();
    if (r == 0 || elapsed < *seconds) *seconds = elapsed;
  }
  return std::move(*last);
}

/// True iff `circuit` is equivalent to `source` by simulation, is not
/// refuted by BDD equivalence, and `blif` (its emitted netlist) parses
/// back into a network that simulates equivalent to `source`.
bool verify_cover(const sop::SopNetwork& source,
                  const net::LutCircuit& circuit, const std::string& blif);

/// Writes `doc` to `path` (2-space indent, trailing newline); on
/// failure prints "<tool>: cannot write <path>" and returns false.
bool write_json(const obs::Json& doc, const std::string& path,
                const char* tool);

/// How a driver's JSON is compared against a committed baseline.
struct BaselineCheck {
  const char* tool;                 // prefix of every message
  std::string path;                 // the baseline JSON
  std::vector<const char*> exact;   // must equal where the baseline has it
  std::vector<const char*> timing;  // summed over shared rows
  double tolerance = 0.15;          // allowed slowdown of each sum
  double min_seconds = 0.005;       // sums below this are not compared
};

/// Matches the rows of `doc`'s "benchmarks" array to the baseline's by
/// (name, k). Returns 2 when the baseline is unreadable or shares no
/// row, 1 when an exact field differs, 3 when a timing sum exceeds the
/// baseline's by more than the tolerance, and 0 otherwise.
int check_against_baseline(const obs::Json& doc,
                           const BaselineCheck& check);

/// Runs and prints one of the paper's results tables (Tables 1-4) at
/// `k`: every circuit mapped by the MIS II-style baseline and by
/// Chortle, both verified by simulation. Flags: --stats-out PATH writes
/// a chortle-run-report/1 JSON document; --trace-out PATH (or
/// CHORTLE_TRACE=PATH, the flag winning) writes a Chrome trace. Returns
/// 0 on success, 1 if any mapping failed verification, 2 on a bad
/// command line.
int run_table(int k, const char* table_name, int argc = 0,
              char** argv = nullptr);

}  // namespace chortle::bench
