#include "sweep.hpp"

#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>

#include "bdd/equiv.hpp"
#include "blif/blif.hpp"
#include "chortle/mapper.hpp"
#include "libmap/library.hpp"
#include "libmap/matcher.hpp"
#include "mcnc/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulate.hpp"

namespace chortle::bench {

void for_each_circuit(const std::vector<std::string>& names,
                      const std::function<void(const Circuit&)>& visit,
                      obs::RunReport* report) {
  // A report-less sweep times nothing.
  const auto phase = [&](const char* name) {
    return report != nullptr ? obs::phase_sink(*report, name)
                             : ScopedTimer::Sink{};
  };
  for (const std::string& name :
       names.empty() ? mcnc::benchmark_names() : names) {
    obs::TraceSpan span("bench." + name);
    Circuit circuit{name, {}, {}};
    {
      ScopedTimer timer(phase("generate"));
      circuit.source = mcnc::generate(name);
    }
    {
      ScopedTimer timer(phase("optimize"));
      circuit.design = opt::optimize(circuit.source);
    }
    visit(circuit);
  }
}

bool verify_cover(const sop::SopNetwork& source,
                  const net::LutCircuit& circuit, const std::string& blif) {
  const sim::Design reference = sim::design_of(source);
  if (!sim::equivalent(reference, sim::design_of(circuit))) return false;
  if (bdd::check_equivalence(source, circuit).status ==
      bdd::FormalOutcome::Status::kDifferent)
    return false;
  return sim::equivalent(reference,
                         sim::design_of(blif::read_blif_string(blif).network));
}

bool write_json(const obs::Json& doc, const std::string& path,
                const char* tool) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
    return false;
  }
  doc.dump(out, 2);
  out << "\n";
  return true;
}

int check_against_baseline(const obs::Json& doc,
                           const BaselineCheck& check) {
  obs::Json baseline;
  {
    std::ifstream in(check.path);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open baseline %s\n", check.tool,
                   check.path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    try {
      baseline = obs::Json::parse(buffer.str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: cannot parse baseline %s: %s\n", check.tool,
                   check.path.c_str(), error.what());
      return 2;
    }
  }
  const obs::Json* base_rows = baseline.find("benchmarks");
  if (base_rows == nullptr || !base_rows->is_array()) {
    std::fprintf(stderr, "%s: baseline has no benchmarks array\n",
                 check.tool);
    return 2;
  }
  const auto key_of = [](const obs::Json& row) {
    const obs::Json* name = row.find("name");
    const obs::Json* k = row.find("k");
    return name != nullptr && k != nullptr
               ? std::optional(std::pair(name->as_string(), k->as_int()))
               : std::nullopt;
  };
  std::map<std::pair<std::string, std::int64_t>, const obs::Json*> base_by_key;
  for (const obs::Json& row : base_rows->as_array())
    if (const auto key = key_of(row)) base_by_key[*key] = &row;

  int mismatches = 0;
  int compared = 0;
  std::vector<double> base_total(check.timing.size(), 0.0);
  std::vector<double> current_total(check.timing.size(), 0.0);
  for (const obs::Json& row : doc.find("benchmarks")->as_array()) {
    const auto key = key_of(row);
    const auto it = key ? base_by_key.find(*key) : base_by_key.end();
    if (it == base_by_key.end()) continue;
    ++compared;
    const obs::Json& base_row = *it->second;
    // Exact fields are compared as serialized JSON, so integers and
    // strings are handled alike. Older baselines may predate a field;
    // it is only compared where the baseline row carries it.
    for (const char* field : check.exact) {
      const obs::Json* base = base_row.find(field);
      const obs::Json* current = row.find(field);
      if (base == nullptr) continue;
      const std::string want = base->dump();
      const std::string got = current != nullptr ? current->dump() : "null";
      if (want != got) {
        std::fprintf(stderr,
                     "%s: %s mismatch vs baseline: %s K=%lld "
                     "(baseline %s, current %s)\n",
                     check.tool, field, key->first.c_str(),
                     static_cast<long long>(key->second), want.c_str(),
                     got.c_str());
        ++mismatches;
      }
    }
    for (std::size_t t = 0; t < check.timing.size(); ++t) {
      if (const obs::Json* v = row.find(check.timing[t]))
        current_total[t] += v->as_number();
      if (const obs::Json* v = base_row.find(check.timing[t]))
        base_total[t] += v->as_number();
    }
  }
  if (compared == 0) {
    std::fprintf(stderr, "%s: baseline shares no (name, K) rows\n",
                 check.tool);
    return 2;
  }
  if (mismatches > 0) return 1;

  // Wall time is machine-dependent; only the sums are compared, and
  // only when the baseline's is above timing resolution.
  int regressions = 0;
  for (std::size_t t = 0; t < check.timing.size(); ++t) {
    if (base_total[t] < check.min_seconds) continue;
    const double ratio = current_total[t] / base_total[t];
    std::printf("check %-18s baseline %8.4fs  current %8.4fs  ratio %.2f\n",
                check.timing[t], base_total[t], current_total[t], ratio);
    if (ratio > 1.0 + check.tolerance) {
      std::fprintf(stderr, "%s: %s regressed %.0f%% (> %.0f%% tolerance)\n",
                   check.tool, check.timing[t], (ratio - 1.0) * 100.0,
                   check.tolerance * 100.0);
      ++regressions;
    }
  }
  return regressions > 0 ? 3 : 0;
}

namespace {

struct TableFlags {
  std::string stats_out;
  std::string trace_out;
  bool bad = false;
};

TableFlags parse_table_flags(int argc, char** argv) {
  TableFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stats-out" && i + 1 < argc) {
      flags.stats_out = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      flags.trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--stats-out FILE] [--trace-out FILE]\n",
                   argc > 0 ? argv[0] : "table");
      flags.bad = true;
      return flags;
    }
  }
  if (flags.trace_out.empty()) flags.trace_out = obs::trace_path_from_env();
  return flags;
}

}  // namespace

int run_table(int k, const char* table_name, int argc, char** argv) {
  const TableFlags flags = parse_table_flags(argc, argv);
  if (flags.bad) return 2;
  if (!flags.trace_out.empty()) obs::set_trace_enabled(true);

  obs::RunReport report(table_name);
  report.set_option("k", k);
  obs::TraceSpan table_span(std::string("bench.") + table_name);

  core::Options options;
  options.k = k;
  report.set_option("split_threshold", options.split_threshold);
  report.set_option("duplicate_fanout_logic",
                    options.duplicate_fanout_logic);

  const libmap::Library& library = [&]() -> const libmap::Library& {
    ScopedTimer timer(obs::phase_sink(report, "library"));
    return libmap::library_for(k);
  }();

  std::printf("%s: Results, K=%d (Chortle DAC-90 reproduction)\n",
              table_name, k);
  std::printf("Baseline: MIS II-style tree covering, %s library\n",
              library.is_complete() ? "complete"
                                    : "level-0-kernel (incomplete)");
  std::printf("%-8s %10s %10s %7s %10s %10s\n", "circuit", "#tab MIS",
              "#tab Chor", "%", "t(s) MIS", "t(s) Chor");

  double sum_percent = 0.0;
  int rows = 0;
  int failures = 0;
  long total_mis = 0;
  long total_chortle = 0;
  long total_depth_mis = 0;
  long total_depth_chortle = 0;
  for_each_circuit({}, [&](const Circuit& circuit) {
    const obs::MetricsSnapshot before = obs::Registry::global().snapshot();

    double mis_seconds = 0.0;
    const libmap::BaselineResult mis = [&] {
      ScopedTimer timer(
          obs::phase_sink(report, "map.baseline", &mis_seconds));
      return libmap::map_with_library(circuit.design.network, library);
    }();

    double chortle_seconds = 0.0;
    const core::MapResult chortle = [&] {
      ScopedTimer timer(
          obs::phase_sink(report, "map.chortle", &chortle_seconds));
      return core::map_network(circuit.design.network, options);
    }();

    bool mis_ok = false;
    bool chortle_ok = false;
    {
      ScopedTimer timer(obs::phase_sink(report, "verify"));
      const sim::Design reference = sim::design_of(circuit.source);
      mis_ok = sim::equivalent(reference, sim::design_of(mis.circuit));
      chortle_ok = sim::equivalent(reference, sim::design_of(chortle.circuit));
    }
    if (!mis_ok || !chortle_ok) ++failures;

    const double percent =
        100.0 * (mis.stats.num_luts - chortle.stats.num_luts) /
        static_cast<double>(mis.stats.num_luts);
    sum_percent += percent;
    ++rows;
    total_mis += mis.stats.num_luts;
    total_chortle += chortle.stats.num_luts;
    total_depth_mis += mis.stats.depth;
    total_depth_chortle += chortle.stats.depth;
    std::printf("%-8s %10d %10d %6.1f%% %10.4f %10.4f%s\n",
                circuit.name.c_str(), mis.stats.num_luts,
                chortle.stats.num_luts, percent, mis_seconds, chortle_seconds,
                mis_ok && chortle_ok ? "" : "  VERIFY-FAIL");

    const obs::MetricsSnapshot delta =
        obs::Registry::global().snapshot().since(before);
    obs::Json entry = obs::Json::object();
    entry.set("name", circuit.name);
    entry.set("luts_baseline", mis.stats.num_luts);
    entry.set("luts_chortle", chortle.stats.num_luts);
    entry.set("depth_baseline", mis.stats.depth);
    entry.set("depth_chortle", chortle.stats.depth);
    entry.set("percent_vs_baseline", percent);
    entry.set("seconds_baseline", mis_seconds);
    entry.set("seconds_chortle", chortle_seconds);
    entry.set("verified", mis_ok && chortle_ok);
    entry.set("dp_cells", delta.counter("chortle.tree.dp_cells"));
    entry.set("util_divisions", delta.counter("chortle.tree.util_divisions"));
    entry.set("decomp_candidates",
              delta.counter("chortle.tree.decomp_candidates"));
    entry.set("split_events", delta.counter("chortle.tree.split_events"));
    report.add_benchmark(std::move(entry));
  }, &report);
  std::printf("%-8s %10ld %10ld %6.1f%%\n", "total", total_mis,
              total_chortle,
              100.0 * (total_mis - total_chortle) /
                  static_cast<double>(total_mis));
  std::printf("average LUT reduction vs baseline: %.1f%%\n\n",
              sum_percent / rows);

  report.set_field("benchmarks_run", rows);
  report.set_field("verify_failures", failures);
  report.set_field("total_luts_baseline", static_cast<std::int64_t>(total_mis));
  report.set_field("total_luts_chortle",
                   static_cast<std::int64_t>(total_chortle));
  // Summed LUT depths, so delay-driven mappers are comparable from the
  // stats block alone without re-deriving per-circuit maxima.
  report.set_field("total_depth_baseline",
                   static_cast<std::int64_t>(total_depth_mis));
  report.set_field("total_depth_chortle",
                   static_cast<std::int64_t>(total_depth_chortle));
  report.set_field("average_percent_vs_baseline", sum_percent / rows);

  if (!flags.stats_out.empty() && !report.write_file(flags.stats_out))
    return 1;
  if (!flags.trace_out.empty() &&
      !obs::write_chrome_trace_file(flags.trace_out))
    return 1;
  return failures == 0 ? 0 : 1;
}

}  // namespace chortle::bench
