#include "table_common.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "base/timer.hpp"
#include "chortle/mapper.hpp"
#include "libmap/library.hpp"
#include "libmap/matcher.hpp"
#include "mcnc/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "opt/script.hpp"
#include "sim/simulate.hpp"

namespace chortle::bench {
namespace {

struct TableFlags {
  std::string stats_out;
  std::string trace_out;
  bool bad = false;
};

TableFlags parse_flags(int argc, char** argv) {
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
  const TableFlags flags = parse_flags(argc, argv);
  if (flags.bad) return 2;
  if (!flags.trace_out.empty()) obs::set_trace_enabled(true);

  obs::RunReport report(table_name);
  report.set_option("k", k);
  obs::TraceSpan table_span(std::string("bench.") + table_name);

  std::printf("%s: Results, K=%d (Chortle DAC-90 reproduction)\n",
              table_name, k);
  std::printf("Baseline: MIS II-style tree covering, %s library\n",
              k <= 3 ? "complete" : "level-0-kernel (incomplete)");
  std::printf("%-8s %10s %10s %7s %10s %10s\n", "circuit", "#tab MIS",
              "#tab Chor", "%", "t(s) MIS", "t(s) Chor");

  core::Options options;
  options.k = k;
  report.set_option("split_threshold", options.split_threshold);
  report.set_option("duplicate_fanout_logic",
                    options.duplicate_fanout_logic);

  const libmap::Library library = [&] {
    ScopedTimer timer(obs::phase_sink(report, "library"));
    return k <= 3 ? libmap::Library::complete(k)
                  : libmap::Library::level0_kernels(k);
  }();

  double sum_percent = 0.0;
  int rows = 0;
  int failures = 0;
  long total_mis = 0;
  long total_chortle = 0;
  long total_depth_mis = 0;
  long total_depth_chortle = 0;
  for (const std::string& name : mcnc::benchmark_names()) {
    obs::TraceSpan bench_span("bench." + name);
    const obs::MetricsSnapshot before = obs::Registry::global().snapshot();

    const sop::SopNetwork source = [&] {
      ScopedTimer timer(obs::phase_sink(report, "generate"));
      return mcnc::generate(name);
    }();
    const opt::OptimizedDesign design = [&] {
      ScopedTimer timer(obs::phase_sink(report, "optimize"));
      return opt::optimize(source);
    }();

    double mis_seconds = 0.0;
    const libmap::BaselineResult mis = [&] {
      ScopedTimer timer(
          obs::phase_sink(report, "map.baseline", &mis_seconds));
      return libmap::map_with_library(design.network, library);
    }();

    double chortle_seconds = 0.0;
    const core::MapResult chortle = [&] {
      ScopedTimer timer(
          obs::phase_sink(report, "map.chortle", &chortle_seconds));
      return core::map_network(design.network, options);
    }();

    bool mis_ok = false;
    bool chortle_ok = false;
    {
      ScopedTimer timer(obs::phase_sink(report, "verify"));
      mis_ok = sim::equivalent(sim::design_of(source),
                               sim::design_of(mis.circuit));
      chortle_ok = sim::equivalent(sim::design_of(source),
                                   sim::design_of(chortle.circuit));
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
    std::printf("%-8s %10d %10d %6.1f%% %10.4f %10.4f%s\n", name.c_str(),
                mis.stats.num_luts, chortle.stats.num_luts, percent,
                mis_seconds, chortle_seconds,
                mis_ok && chortle_ok ? "" : "  VERIFY-FAIL");

    const obs::MetricsSnapshot delta =
        obs::Registry::global().snapshot().since(before);
    obs::Json entry = obs::Json::object();
    entry.set("name", name);
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
  }
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
