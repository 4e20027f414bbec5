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
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/fnv.hpp"
#include "base/timer.hpp"
#include "blif/blif.hpp"
#include "chortle/dp_cache.hpp"
#include "chortle/imapper.hpp"
#include "chortle/mapper.hpp"
#include "mcnc/generators.hpp"
#include "obs/json.hpp"
#include "opt/script.hpp"
#include "portfolio/portfolio.hpp"

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
  auto need_value = [&](int i) { return i + 1 < argc; };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && need_value(i)) {
      flags.out = argv[++i];
    } else if (arg == "--mapper" && need_value(i)) {
      flags.mapper = argv[++i];
    } else if (arg == "--benchmarks" && need_value(i)) {
      flags.benchmarks = split_csv(argv[++i]);
    } else if (arg == "--kmin" && need_value(i)) {
      flags.kmin = std::atoi(argv[++i]);
    } else if (arg == "--kmax" && need_value(i)) {
      flags.kmax = std::atoi(argv[++i]);
    } else if (arg == "--repeat" && need_value(i)) {
      flags.repeat = std::atoi(argv[++i]);
    } else if (arg == "--label" && need_value(i)) {
      flags.label = argv[++i];
    } else if (arg == "--golden-out" && need_value(i)) {
      flags.golden_out = argv[++i];
    } else if (arg == "--check" && need_value(i)) {
      flags.check = argv[++i];
    } else if (arg == "--tolerance" && need_value(i)) {
      flags.tolerance = std::atof(argv[++i]);
    } else if (arg == "--min-seconds" && need_value(i)) {
      flags.min_seconds = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: run_tables [--out FILE] [--mapper NAME]\n"
                   "                  [--benchmarks a,b,c]\n"
                   "                  [--kmin N] [--kmax N]\n"
                   "                  [--repeat R] [--label STR]\n"
                   "                  [--golden-out FILE]\n"
                   "                  [--check FILE] [--tolerance F]\n"
                   "                  [--min-seconds F]\n");
      flags.bad = true;
      return flags;
    }
  }
  if (flags.kmin < 2 || flags.kmax > 6 || flags.kmin > flags.kmax ||
      flags.repeat < 1) {
    std::fprintf(stderr, "run_tables: bad flag values\n");
    flags.bad = true;
  }
  return flags;
}

struct Row {
  std::string name;
  int k = 0;
  int luts = 0;
  int depth = 0;
  std::string blif_hash;  // fnv1a64 of the serial BLIF, hex
  double seconds_serial = 0.0;
  double seconds_cache_cold = 0.0;
  double seconds_cache_warm = 0.0;
};

/// Times `repeat` runs of map_network and returns the minimum seconds;
/// the last result's circuit is written out as BLIF text.
template <typename MapFn>
double time_mapping(int repeat, MapFn map, std::string* blif_out,
                    int* luts_out, int* depth_out = nullptr) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    WallTimer timer;
    const core::MapResult result = map();
    const double seconds = timer.seconds();
    if (r == 0 || seconds < best) best = seconds;
    if (r == repeat - 1) {
      if (blif_out != nullptr)
        *blif_out = blif::write_blif_string(result.circuit, "bench");
      if (luts_out != nullptr) *luts_out = result.stats.num_luts;
      if (depth_out != nullptr) *depth_out = result.stats.depth;
    }
  }
  return best;
}

int check_against_baseline(const std::vector<Row>& rows, const Flags& flags) {
  std::ifstream in(flags.check);
  if (!in) {
    std::fprintf(stderr, "run_tables: cannot open baseline %s\n",
                 flags.check.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const obs::Json baseline = obs::Json::parse(buffer.str());
  const obs::Json* bench_rows = baseline.find("benchmarks");
  if (bench_rows == nullptr || !bench_rows->is_array()) {
    std::fprintf(stderr, "run_tables: baseline has no benchmarks array\n");
    return 2;
  }

  std::map<std::pair<std::string, int>, const obs::Json*> base_by_key;
  for (const obs::Json& row : bench_rows->as_array()) {
    const obs::Json* name = row.find("name");
    const obs::Json* k = row.find("k");
    if (name != nullptr && k != nullptr)
      base_by_key[{name->as_string(), static_cast<int>(k->as_int())}] = &row;
  }

  int mismatches = 0;
  struct ModeTotal {
    const char* field;
    double current = 0.0;
    double base = 0.0;
  };
  ModeTotal totals[] = {
      {"seconds_serial"}, {"seconds_cache_cold"}, {"seconds_cache_warm"}};
  int compared = 0;
  for (const Row& row : rows) {
    const auto it = base_by_key.find({row.name, row.k});
    if (it == base_by_key.end()) continue;
    ++compared;
    const obs::Json& base_row = *it->second;
    if (const obs::Json* luts = base_row.find("luts");
        luts != nullptr && luts->as_int() != row.luts) {
      std::fprintf(stderr,
                   "run_tables: LUT count mismatch vs baseline: %s K=%d "
                   "(baseline %lld, current %d)\n",
                   row.name.c_str(), row.k,
                   static_cast<long long>(luts->as_int()), row.luts);
      ++mismatches;
    }
    // Depth is exact, like the LUT count — but older baselines predate
    // the field, so only compare when the baseline row carries it.
    if (const obs::Json* depth = base_row.find("depth");
        depth != nullptr && depth->as_int() != row.depth) {
      std::fprintf(stderr,
                   "run_tables: depth mismatch vs baseline: %s K=%d "
                   "(baseline %lld, current %d)\n",
                   row.name.c_str(), row.k,
                   static_cast<long long>(depth->as_int()), row.depth);
      ++mismatches;
    }
    const double current[] = {row.seconds_serial, row.seconds_cache_cold,
                              row.seconds_cache_warm};
    for (int m = 0; m < 3; ++m) {
      totals[m].current += current[m];
      if (const obs::Json* v = base_row.find(totals[m].field);
          v != nullptr)
        totals[m].base += v->as_number();
    }
  }
  if (compared == 0) {
    std::fprintf(stderr, "run_tables: baseline shares no (name, K) rows\n");
    return 2;
  }
  if (mismatches > 0) return 1;

  int regressions = 0;
  for (const ModeTotal& t : totals) {
    if (t.base < flags.min_seconds) continue;  // below timing resolution
    const double ratio = t.current / t.base;
    std::printf("check %-18s baseline %8.4fs  current %8.4fs  ratio %.2f\n",
                t.field, t.base, t.current, ratio);
    if (ratio > 1.0 + flags.tolerance) {
      std::fprintf(stderr,
                   "run_tables: %s regressed %.0f%% (> %.0f%% tolerance)\n",
                   t.field, (ratio - 1.0) * 100.0, flags.tolerance * 100.0);
      ++regressions;
    }
  }
  return regressions > 0 ? 3 : 0;
}

int run(const Flags& flags) {
  std::vector<std::string> names = flags.benchmarks;
  if (names.empty()) names = mcnc::benchmark_names();

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

  std::vector<Row> rows;
  int blif_mismatches = 0;
  for (const std::string& name : names) {
    const sop::SopNetwork source = mcnc::generate(name);
    const opt::OptimizedDesign design = opt::optimize(source);
    for (int k = flags.kmin; k <= flags.kmax; ++k) {
      Row row;
      row.name = name;
      row.k = k;

      if (backend != nullptr) {
        if (k < backend->min_k() || k > backend->max_k()) continue;
        core::Options options;
        options.k = k;
        std::string blif;
        row.seconds_serial = time_mapping(
            flags.repeat,
            [&] { return backend->map(design.network, options); }, &blif,
            &row.luts, &row.depth);
        row.blif_hash = base::fnv1a64_hex(blif);
        std::printf("%-8s K=%d  luts %5d  depth %3d  %s %8.4fs\n",
                    name.c_str(), k, row.luts, row.depth, backend->name(),
                    row.seconds_serial);
        rows.push_back(std::move(row));
        continue;
      }

      core::Options serial;
      serial.k = k;
      std::string serial_blif;
      row.seconds_serial = time_mapping(
          flags.repeat,
          [&] { return core::map_network(design.network, serial); },
          &serial_blif, &row.luts, &row.depth);
      row.blif_hash = base::fnv1a64_hex(serial_blif);

      core::DpCache cache;
      std::string cold_blif;
      row.seconds_cache_cold = time_mapping(
          1, [&] { return core::map_network(design.network, serial, &cache); },
          &cold_blif, nullptr);
      std::string warm_blif;
      row.seconds_cache_warm = time_mapping(
          flags.repeat,
          [&] { return core::map_network(design.network, serial, &cache); },
          &warm_blif, nullptr);

      for (const auto& [mode, blif] :
           {std::pair<const char*, const std::string*>{"cache_cold",
                                                       &cold_blif},
            {"cache_warm", &warm_blif}}) {
        if (*blif != serial_blif) {
          std::fprintf(stderr,
                       "run_tables: %s K=%d: %s BLIF differs from serial\n",
                       name.c_str(), k, mode);
          ++blif_mismatches;
        }
      }

      std::printf(
          "%-8s K=%d  luts %5d  depth %3d  serial %8.4fs  cold %8.4fs  "
          "warm %8.4fs\n",
          name.c_str(), k, row.luts, row.depth, row.seconds_serial,
          row.seconds_cache_cold, row.seconds_cache_warm);
      rows.push_back(std::move(row));
    }
  }

  obs::Json doc = obs::Json::object();
  doc.set("schema", "chortle-bench/2");
  // Only recorded off the default so historical chortle baselines stay
  // byte-identical.
  if (flags.mapper != "chortle") doc.set("mapper", flags.mapper);
  if (!flags.label.empty()) doc.set("label", flags.label);
  doc.set("kmin", flags.kmin);
  doc.set("kmax", flags.kmax);
  doc.set("repeat", flags.repeat);
  obs::Json bench_rows = obs::Json::array();
  double total[3] = {0, 0, 0};
  long total_luts = 0;
  for (const Row& row : rows) {
    obs::Json entry = obs::Json::object();
    entry.set("name", row.name);
    entry.set("k", row.k);
    entry.set("luts", row.luts);
    entry.set("depth", row.depth);
    entry.set("blif_fnv1a64", row.blif_hash);
    entry.set("seconds_serial", row.seconds_serial);
    entry.set("seconds_cache_cold", row.seconds_cache_cold);
    entry.set("seconds_cache_warm", row.seconds_cache_warm);
    bench_rows.push_back(std::move(entry));
    total[0] += row.seconds_serial;
    total[1] += row.seconds_cache_cold;
    total[2] += row.seconds_cache_warm;
    total_luts += row.luts;
  }
  doc.set("benchmarks", std::move(bench_rows));
  obs::Json totals = obs::Json::object();
  totals.set("rows", static_cast<int>(rows.size()));
  totals.set("luts", static_cast<std::int64_t>(total_luts));
  totals.set("seconds_serial", total[0]);
  totals.set("seconds_cache_cold", total[1]);
  totals.set("seconds_cache_warm", total[2]);
  doc.set("totals", std::move(totals));

  {
    std::ofstream out(flags.out);
    if (!out) {
      std::fprintf(stderr, "run_tables: cannot write %s\n",
                   flags.out.c_str());
      return 1;
    }
    doc.dump(out, 2);
    out << "\n";
  }
  std::printf("total: serial %.4fs  cold %.4fs  warm %.4fs  -> %s\n",
              total[0], total[1], total[2], flags.out.c_str());

  if (!flags.golden_out.empty()) {
    std::ofstream out(flags.golden_out);
    if (!out) {
      std::fprintf(stderr, "run_tables: cannot write %s\n",
                   flags.golden_out.c_str());
      return 1;
    }
    out << "# benchmark\tk\tluts\tblif_fnv1a64\n";
    for (const Row& row : rows)
      out << row.name << "\t" << row.k << "\t" << row.luts << "\t"
          << row.blif_hash << "\n";
  }

  if (blif_mismatches > 0) return 1;
  if (!flags.check.empty()) return check_against_baseline(rows, flags);
  return 0;
}

}  // namespace
}  // namespace chortle::bench

int main(int argc, char** argv) {
  const chortle::bench::Flags flags =
      chortle::bench::parse_flags(argc, argv);
  if (flags.bad) return 2;
  return chortle::bench::run(flags);
}
