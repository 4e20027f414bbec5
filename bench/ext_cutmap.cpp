// Extension bench: the priority-cuts delay-driven mapper (src/cutmap)
// on the Table-2 benchmark suite. For every circuit it maps the
// 2-input subject graph at K (default 6) and reports, per row:
//
//   luts        final LUT count after area recovery
//   first       LUT count of the depth-only first pass
//   rec%        area-recovery win over the first pass
//   depth       mapped LUT depth
//   bound       FlowMap-optimal depth label of the subject graph
//   casc        LUTs emitted as decomposition cascades
//
// Every mapped circuit is verified against the source by simulation
// and BDD equivalence, and again after a BLIF round-trip (write,
// re-parse, re-verify — the emitted netlist must mean what the mapper
// computed, byte for byte). The mapper's own invariant guarantees
// depth <= bound; this bench fails loudly if that ever breaks.
//
// Flags:
//   --out PATH       JSON output (default BENCH_cutmap.json)
//   --k N            LUT arity (default 6)
//   --repeat R       timing repetitions, minimum reported (default 3)
//   --check PATH     compare against a committed baseline: LUT count
//                    and depth must match exactly; total wall time must
//                    be within --tolerance (default 0.15). Exits 3 on a
//                    perf regression, 1 on any exact mismatch.
//
// A flag value that is not wholly a number in range prints the usage
// and exits 2.
#include <cstdio>
#include <string>

#include "base/fnv.hpp"
#include "base/parse.hpp"
#include "blif/blif.hpp"
#include "cutmap/cutmap.hpp"
#include "libmap/subject.hpp"
#include "sweep.hpp"

namespace chortle::bench {
namespace {

struct Flags {
  std::string out = "BENCH_cutmap.json";
  std::string check;
  int k = 6;
  int repeat = 3;
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
    } else if (arg == "--k" &&
               base::parse_number(value, flags.k, 2,
                                  cutmap::CutMapOptions::kMaxK)) {
      ++i;
    } else if (arg == "--repeat" &&
               base::parse_number(value, flags.repeat, 1)) {
      ++i;
    } else if (arg == "--tolerance" &&
               base::parse_number(value, flags.tolerance, 0.0)) {
      ++i;
    } else {
      std::fprintf(stderr,
                   "usage: ext_cutmap [--out FILE] [--k N] [--repeat R]\n"
                   "                  [--check FILE] [--tolerance F]\n");
      flags.bad = true;
      return flags;
    }
  }
  return flags;
}

int run(const Flags& flags) {
  std::printf("Extension: priority-cuts delay-driven mapper, K=%d\n",
              flags.k);
  std::printf("%-8s %6s %6s %6s %6s %6s %5s %9s\n", "circuit", "luts",
              "first", "rec%", "depth", "bound", "casc", "t(s)");

  obs::Json bench_rows = obs::Json::array();
  int failures = 0;
  long total_luts = 0;
  long total_first = 0;
  long total_depth = 0;
  long total_bound = 0;
  double total_seconds = 0.0;
  for_each_circuit({}, [&](const Circuit& circuit) {
    const net::Network subject =
        libmap::build_subject_graph(circuit.design.network);
    cutmap::CutMapOptions options;
    options.k = flags.k;
    double seconds = 0.0;
    const cutmap::CutMapResult result = min_of_repeat(
        flags.repeat, &seconds,
        [&] { return cutmap::map_luts(subject, options); });
    const cutmap::CutMapStats& stats = result.stats;

    // The emitted netlist must mean what the mapper computed, and the
    // depth must stay within the FlowMap-optimal bound.
    const std::string blif =
        blif::write_blif_string(result.circuit, circuit.name + "_cutmap");
    const bool ok = verify_cover(circuit.source, result.circuit, blif) &&
                    stats.depth <= stats.depth_bound;
    if (!ok) ++failures;

    const double recovery =
        stats.first_pass_luts > 0
            ? 100.0 * (stats.first_pass_luts - stats.num_luts) /
                  stats.first_pass_luts
            : 0.0;
    std::printf("%-8s %6d %6d %5.1f%% %6d %6d %5d %9.4f%s\n",
                circuit.name.c_str(), stats.num_luts, stats.first_pass_luts,
                recovery, stats.depth, stats.depth_bound,
                stats.decomposed_luts, seconds, ok ? "" : "  VERIFY-FAIL");
    total_luts += stats.num_luts;
    total_first += stats.first_pass_luts;
    total_depth += stats.depth;
    total_bound += stats.depth_bound;
    total_seconds += seconds;

    obs::Json entry = obs::Json::object();
    entry.set("name", circuit.name);
    entry.set("k", flags.k);
    entry.set("luts", stats.num_luts);
    entry.set("first_pass_luts", stats.first_pass_luts);
    entry.set("depth", stats.depth);
    entry.set("depth_bound", stats.depth_bound);
    entry.set("decomposed_luts", stats.decomposed_luts);
    entry.set("blif_fnv1a64", base::fnv1a64_hex(blif));
    entry.set("seconds", seconds);
    bench_rows.push_back(std::move(entry));
  });
  std::printf("%-8s %6ld %6ld %5.1f%% %6ld %6ld\n", "total", total_luts,
              total_first,
              100.0 * (total_first - total_luts) /
                  static_cast<double>(total_first),
              total_depth, total_bound);

  obs::Json doc = obs::Json::object();
  doc.set("schema", "chortle-bench/1");
  doc.set("k", flags.k);
  doc.set("repeat", flags.repeat);
  obs::Json totals = obs::Json::object();
  totals.set("rows", static_cast<int>(bench_rows.as_array().size()));
  totals.set("luts", static_cast<std::int64_t>(total_luts));
  totals.set("first_pass_luts", static_cast<std::int64_t>(total_first));
  totals.set("depth", static_cast<std::int64_t>(total_depth));
  totals.set("depth_bound", static_cast<std::int64_t>(total_bound));
  totals.set("seconds", total_seconds);
  doc.set("benchmarks", std::move(bench_rows));
  doc.set("totals", std::move(totals));
  if (!write_json(doc, flags.out, "ext_cutmap")) return 1;
  std::printf("total: %.4fs  -> %s\n", total_seconds, flags.out.c_str());

  if (failures > 0) return 1;
  if (flags.check.empty()) return 0;
  return check_against_baseline(
      doc, {"ext_cutmap", flags.check, {"luts", "depth"}, {"seconds"},
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
