// Benchmark driver for the mapping hot path: runs every MCNC-substitute
// benchmark through the optimization script once, then times
// core::map_network alone (no baseline mapper, no verification — those
// dominate the table benches and would bury the mapper signal) for
// K = kmin..kmax in three modes:
//
//   serial       no DP cache (the paper's configuration)
//   cache_cold   a fresh cross-request DP cache
//   cache_warm   re-mapping through the now-populated cache
//
// Every mode must produce byte-identical BLIF; the driver fails loudly
// if any mode disagrees with the serial mapping. Results are written as
// BENCH_chortle.json (schema chortle-bench/2; /1 also had a "jobs" mode)
// so each change has a measured runtime trajectory to compare against;
// see DESIGN.md "Performance model" for how to read the file.
//
// Flags:
//   --out PATH         JSON output path (default BENCH_chortle.json)
//   --mapper NAME      registry backend to time (default chortle). Any
//                      other registered mapper — flowmap, cutmap,
//                      libmap, portfolio — runs in serial mode only
//                      (the cache modes are chortle's seam); the
//                      default keeps the historical output and the
//                      committed baselines byte-identical.
//   --benchmarks CSV   subset of benchmark names (default: all twelve)
//   --kmin N --kmax N  K range (default 2..6)
//   --repeat R         timing repetitions, minimum is reported (default 3)
//   --label STR        free-form label recorded in the JSON
//   --golden-out PATH  also write tests/golden-style TSV rows
//                      (name, k, luts, blif_fnv1a64)
//   --check PATH       compare against a previously written JSON:
//                      exact LUT-count match, and total wall time per
//                      mode within --tolerance (default 0.15) when the
//                      baseline total is at least --min-seconds
//                      (default 0.005). Reads /1 and /2 baselines (rows
//                      are matched by field name). Exits 3 on a perf
//                      regression, 1 on any LUT/BLIF mismatch.
//
// A flag value that is not wholly a number in range ("3x", "2.9" for an
// integer, "abc", "-1" for a count) prints the usage and exits 2.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/fnv.hpp"
#include "base/parse.hpp"
#include "blif/blif.hpp"
#include "chortle/dp_cache.hpp"
#include "chortle/imapper.hpp"
#include "chortle/mapper.hpp"
#include "portfolio/portfolio.hpp"
#include "sweep.hpp"

namespace chortle::bench {
namespace {

struct Flags {
  std::string out = "BENCH_chortle.json";
  std::string mapper = "chortle";
  std::vector<std::string> benchmarks;
  int kmin = 2;
  int kmax = 6;
  int repeat = 3;
  std::string label;
  std::string golden_out;
  std::string check;
  double tolerance = 0.15;
  double min_seconds = 0.005;
  bool bad = false;
};

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

Flags parse_flags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    const char* value = has_value ? argv[i + 1] : "";
    if (arg == "--out" && has_value) {
      flags.out = argv[++i];
    } else if (arg == "--mapper" && has_value) {
      flags.mapper = argv[++i];
    } else if (arg == "--benchmarks" && has_value) {
      flags.benchmarks = split_csv(argv[++i]);
    } else if (arg == "--kmin" && base::parse_number(value, flags.kmin, 2, 6)) {
      ++i;
    } else if (arg == "--kmax" && base::parse_number(value, flags.kmax, 2, 6)) {
      ++i;
    } else if (arg == "--repeat" &&
               base::parse_number(value, flags.repeat, 1)) {
      ++i;
    } else if (arg == "--label" && has_value) {
      flags.label = argv[++i];
    } else if (arg == "--golden-out" && has_value) {
      flags.golden_out = argv[++i];
    } else if (arg == "--check" && has_value) {
      flags.check = argv[++i];
    } else if (arg == "--tolerance" &&
               base::parse_number(value, flags.tolerance, 0.0)) {
      ++i;
    } else if (arg == "--min-seconds" &&
               base::parse_number(value, flags.min_seconds, 0.0)) {
      ++i;
    } else {
      flags.bad = true;
      break;
    }
  }
  if (flags.bad || flags.kmin > flags.kmax) {
    std::fprintf(stderr,
                 "usage: run_tables [--out FILE] [--mapper NAME]\n"
                 "                  [--benchmarks a,b,c]\n"
                 "                  [--kmin N] [--kmax N]\n"
                 "                  [--repeat R] [--label STR]\n"
                 "                  [--golden-out FILE]\n"
                 "                  [--check FILE] [--tolerance F]\n"
                 "                  [--min-seconds F]\n");
    flags.bad = true;
  }
  return flags;
}

int run(const Flags& flags) {
  // Any backend other than chortle is timed through the registry in
  // serial mode only: the cache columns exercise a chortle-specific seam
  // (the cross-request DP cache) that the other mappers do not share.
  const core::IMapper* backend = nullptr;
  if (flags.mapper != "chortle") {
    portfolio::ensure_registered();
    backend = core::find_mapper(flags.mapper);
    if (backend == nullptr) {
      std::fprintf(stderr, "run_tables: unknown mapper '%s' (registered: %s)\n",
                   flags.mapper.c_str(), core::mapper_names().c_str());
      return 2;
    }
  }

  obs::Json bench_rows = obs::Json::array();
  std::string golden = "# benchmark\tk\tluts\tblif_fnv1a64\n";
  double total[3] = {0, 0, 0};  // serial, cache_cold, cache_warm
  long total_luts = 0;
  int blif_mismatches = 0;
  const auto blif_of = [](const core::MapResult& result) {
    return blif::write_blif_string(result.circuit, "bench");
  };
  for_each_circuit(flags.benchmarks, [&](const Circuit& circuit) {
    const net::Network& network = circuit.design.network;
    for (int k = flags.kmin; k <= flags.kmax; ++k) {
      if (backend != nullptr &&
          (k < backend->min_k() || k > backend->max_k()))
        continue;
      core::Options options;
      options.k = k;
      double seconds[3] = {0, 0, 0};
      const core::MapResult serial =
          min_of_repeat(flags.repeat, &seconds[0], [&] {
            return backend != nullptr ? backend->map(network, options)
                                      : core::map_network(network, options);
          });
      const std::string serial_blif = blif_of(serial);
      const int luts = serial.stats.num_luts;
      const int depth = serial.stats.depth;
      if (backend != nullptr) {
        std::printf("%-8s K=%d  luts %5d  depth %3d  %s %8.4fs\n",
                    circuit.name.c_str(), k, luts, depth, backend->name(),
                    seconds[0]);
      } else {
        // Every cache mode must emit the serial mapping byte for byte.
        core::DpCache cache;
        const auto through_cache = [&] {
          return core::map_network(network, options, &cache);
        };
        const std::string cold_blif =
            blif_of(min_of_repeat(1, &seconds[1], through_cache));
        const std::string warm_blif =
            blif_of(min_of_repeat(flags.repeat, &seconds[2], through_cache));
        for (const auto& [mode, blif] :
             {std::pair{"cache_cold", &cold_blif},
              std::pair{"cache_warm", &warm_blif}}) {
          if (*blif != serial_blif) {
            std::fprintf(stderr,
                         "run_tables: %s K=%d: %s BLIF differs from serial\n",
                         circuit.name.c_str(), k, mode);
            ++blif_mismatches;
          }
        }
        std::printf(
            "%-8s K=%d  luts %5d  depth %3d  serial %8.4fs  cold %8.4fs  "
            "warm %8.4fs\n",
            circuit.name.c_str(), k, luts, depth, seconds[0], seconds[1],
            seconds[2]);
      }

      const std::string hash = base::fnv1a64_hex(serial_blif);
      obs::Json entry = obs::Json::object();
      entry.set("name", circuit.name);
      entry.set("k", k);
      entry.set("luts", luts);
      entry.set("depth", depth);
      entry.set("blif_fnv1a64", hash);
      entry.set("seconds_serial", seconds[0]);
      entry.set("seconds_cache_cold", seconds[1]);
      entry.set("seconds_cache_warm", seconds[2]);
      bench_rows.push_back(std::move(entry));
      golden += circuit.name + "\t" + std::to_string(k) + "\t" +
                std::to_string(luts) + "\t" + hash + "\n";
      for (int m = 0; m < 3; ++m) total[m] += seconds[m];
      total_luts += luts;
    }
  });

  obs::Json doc = obs::Json::object();
  doc.set("schema", "chortle-bench/2");
  // Only recorded off the default so historical chortle baselines stay
  // byte-identical.
  if (flags.mapper != "chortle") doc.set("mapper", flags.mapper);
  if (!flags.label.empty()) doc.set("label", flags.label);
  doc.set("kmin", flags.kmin);
  doc.set("kmax", flags.kmax);
  doc.set("repeat", flags.repeat);
  obs::Json totals = obs::Json::object();
  totals.set("rows", static_cast<int>(bench_rows.as_array().size()));
  totals.set("luts", static_cast<std::int64_t>(total_luts));
  totals.set("seconds_serial", total[0]);
  totals.set("seconds_cache_cold", total[1]);
  totals.set("seconds_cache_warm", total[2]);
  doc.set("benchmarks", std::move(bench_rows));
  doc.set("totals", std::move(totals));
  if (!write_json(doc, flags.out, "run_tables")) return 1;
  std::printf("total: serial %.4fs  cold %.4fs  warm %.4fs  -> %s\n",
              total[0], total[1], total[2], flags.out.c_str());

  if (!flags.golden_out.empty()) {
    std::ofstream out(flags.golden_out);
    out << golden;
    if (!out) {
      std::fprintf(stderr, "run_tables: cannot write %s\n",
                   flags.golden_out.c_str());
      return 1;
    }
  }

  if (blif_mismatches > 0) return 1;
  if (flags.check.empty()) return 0;
  return check_against_baseline(
      doc, {"run_tables",
            flags.check,
            {"luts", "depth"},
            {"seconds_serial", "seconds_cache_cold", "seconds_cache_warm"},
            flags.tolerance,
            flags.min_seconds});
}

}  // namespace
}  // namespace chortle::bench

int main(int argc, char** argv) {
  const chortle::bench::Flags flags =
      chortle::bench::parse_flags(argc, argv);
  if (flags.bad) return 2;
  return chortle::bench::run(flags);
}
