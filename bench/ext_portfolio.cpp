// Extension bench: the deadline-aware portfolio racer (src/portfolio)
// on the Table-2 benchmark suite. For every circuit it races the full
// default lineup (chortle fallback, flowmap, cutmap, libmap) with no
// budget — every racer runs to completion, so the winner set and the
// emitted circuit are deterministic — and reports, per row:
//
//   luts / depth   the winning cover under the LUT objective
//   winner         which strategy (or "stitched") won the race
//   stitch         trees a non-fallback strategy won, when stitched won
//   chor/flow/cut/lib   each strategy's solo whole-network LUT count
//
// Two guarantees are asserted on every circuit: the portfolio's LUT
// count never exceeds any individual strategy's (ties break toward the
// chortle fallback, so racing can only help), and a second pass with a
// 1 ms budget — the starvation worst case — still returns a cover that
// verifies by simulation and BDD against the source.
//
// Flags:
//   --out PATH       JSON output (default BENCH_portfolio.json)
//   --k N            LUT arity (default 6)
//   --repeat R       timing repetitions, minimum reported (default 2)
//   --check PATH     compare against a committed baseline: LUT count,
//                    depth, winner, and stitched-tree count must match
//                    exactly; total wall time must be within
//                    --tolerance (default 0.15). Exits 3 on a perf
//                    regression, 1 on any exact mismatch.
//
// A flag value that is not wholly a number in range prints the usage
// and exits 2.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "base/fnv.hpp"
#include "base/parse.hpp"
#include "blif/blif.hpp"
#include "chortle/imapper.hpp"
#include "portfolio/portfolio.hpp"
#include "sim/simulate.hpp"
#include "sweep.hpp"

namespace chortle::bench {
namespace {

struct Flags {
  std::string out = "BENCH_portfolio.json";
  std::string check;
  int k = 6;
  int repeat = 2;
  double tolerance = 0.15;
  bool bad = false;
};

Flags parse_flags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : "";
    if (arg == "--out" && i + 1 < argc) {
      flags.out = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      flags.check = argv[++i];
    } else if (arg == "--k" && base::parse_number(value, flags.k, 2, 6)) {
      ++i;
    } else if (arg == "--repeat" &&
               base::parse_number(value, flags.repeat, 1)) {
      ++i;
    } else if (arg == "--tolerance" &&
               base::parse_number(value, flags.tolerance, 0.0)) {
      ++i;
    } else {
      std::fprintf(stderr,
                   "usage: ext_portfolio [--out FILE] [--k N] [--repeat R]\n"
                   "                     [--check FILE] [--tolerance F]\n");
      flags.bad = true;
      return flags;
    }
  }
  return flags;
}

int run(const Flags& flags) {
  portfolio::ensure_registered();
  const std::vector<const core::IMapper*> lineup =
      portfolio::default_strategies();
  std::printf("Extension: portfolio race (full lineup, no budget), K=%d\n",
              flags.k);
  std::printf("%-8s %6s %6s %-9s %6s %6s %6s %6s %6s %9s\n", "circuit",
              "luts", "depth", "winner", "stitch", "chor", "flow", "cut",
              "lib", "t(s)");

  obs::Json bench_rows = obs::Json::array();
  int failures = 0;
  long total_luts = 0;
  long total_depth = 0;
  long total_solo_best = 0;
  double total_seconds = 0.0;
  for_each_circuit({}, [&](const Circuit& circuit) {
    const net::Network& network = circuit.design.network;
    core::Options options;
    options.k = flags.k;

    // Solo runs: every strategy alone on the whole network, the
    // attribution columns and the never-worse floor.
    std::map<std::string, int> solo_luts;  // strategy name -> whole cover
    int solo_best = 0;
    for (const core::IMapper* strategy : lineup) {
      const int luts = strategy->map(network, options).stats.num_luts;
      solo_luts[strategy->name()] = luts;
      if (solo_luts.size() == 1 || luts < solo_best) solo_best = luts;
    }

    // The race, unbudgeted: deterministic winner set and output.
    portfolio::PortfolioConfig race;
    race.objective = portfolio::Objective::kLuts;
    race.budget_ms = -1;
    portfolio::PortfolioStats stats;
    double seconds = 0.0;
    const core::MapResult result =
        min_of_repeat(flags.repeat, &seconds, [&] {
          return portfolio::default_portfolio().map_with(network, options,
                                                         race, &stats);
        });
    const int luts = result.stats.num_luts;

    // Guarantee 1: racing never loses to the best solo strategy (nor,
    // in particular, to the chortle fallback).
    bool ok = luts <= solo_best;
    if (!ok)
      std::fprintf(stderr,
                   "ext_portfolio: %s portfolio %d LUTs worse than best "
                   "solo %d\n",
                   circuit.name.c_str(), luts, solo_best);

    // The winning cover must verify, also through a BLIF round-trip.
    const std::string blif =
        blif::write_blif_string(result.circuit, circuit.name + "_portfolio");
    ok = ok && verify_cover(circuit.source, result.circuit, blif);

    // Guarantee 2: a starved race (1 ms budget) still returns a
    // verified cover — the uncancellable fallback at worst.
    if (ok) {
      portfolio::PortfolioConfig starved = race;
      starved.budget_ms = 1;
      const core::MapResult rushed = portfolio::default_portfolio().map_with(
          network, options, starved, nullptr);
      ok = sim::equivalent(sim::design_of(circuit.source),
                           sim::design_of(rushed.circuit));
      if (!ok)
        std::fprintf(stderr,
                     "ext_portfolio: %s 1ms-budget cover failed to verify\n",
                     circuit.name.c_str());
    }
    if (!ok) ++failures;

    std::printf("%-8s %6d %6d %-9s %6d %6d %6d %6d %6d %9.4f%s\n",
                circuit.name.c_str(), luts, result.stats.depth,
                stats.winner.c_str(), stats.stitched_trees,
                solo_luts["chortle"], solo_luts["flowmap"],
                solo_luts["cutmap"], solo_luts["libmap"], seconds,
                ok ? "" : "  VERIFY-FAIL");
    total_luts += luts;
    total_depth += result.stats.depth;
    total_solo_best += solo_best;
    total_seconds += seconds;

    obs::Json entry = obs::Json::object();
    entry.set("name", circuit.name);
    entry.set("k", flags.k);
    entry.set("luts", luts);
    entry.set("depth", result.stats.depth);
    entry.set("winner", stats.winner);
    entry.set("stitched_trees", stats.stitched_trees);
    for (const auto& [strategy, solo] : solo_luts)
      entry.set("luts_" + strategy, solo);
    entry.set("blif_fnv1a64", base::fnv1a64_hex(blif));
    entry.set("seconds", seconds);
    bench_rows.push_back(std::move(entry));
  });
  std::printf("%-8s %6ld %6ld  (best solo total %ld)\n", "total", total_luts,
              total_depth, total_solo_best);

  obs::Json doc = obs::Json::object();
  doc.set("schema", "chortle-portfolio-bench/1");
  doc.set("k", flags.k);
  doc.set("repeat", flags.repeat);
  obs::Json totals = obs::Json::object();
  totals.set("rows", static_cast<int>(bench_rows.as_array().size()));
  totals.set("luts", static_cast<std::int64_t>(total_luts));
  totals.set("depth", static_cast<std::int64_t>(total_depth));
  totals.set("best_solo_luts", static_cast<std::int64_t>(total_solo_best));
  totals.set("seconds", total_seconds);
  doc.set("benchmarks", std::move(bench_rows));
  doc.set("totals", std::move(totals));
  if (!write_json(doc, flags.out, "ext_portfolio")) return 1;
  std::printf("total: %.4fs  -> %s\n", total_seconds, flags.out.c_str());

  if (failures > 0) return 1;
  if (flags.check.empty()) return 0;
  return check_against_baseline(
      doc, {"ext_portfolio",
            flags.check,
            {"luts", "depth", "stitched_trees", "winner"},
            {"seconds"},
            flags.tolerance});
}

}  // namespace
}  // namespace chortle::bench

int main(int argc, char** argv) {
  const chortle::bench::Flags flags =
      chortle::bench::parse_flags(argc, argv);
  if (flags.bad) return 2;
  return chortle::bench::run(flags);
}
