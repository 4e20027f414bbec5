// flow_mcnc: the paper's experiment, offline and single-threaded. One
// pass takes each MCNC substitute through read_blif_string ->
// optimize -> map_network at K = 2..6 -> write_blif_string -> check
// (golden LUT count and BLIF digest, sim::equivalent against the
// source).
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>

#include "base/fnv.hpp"
#include "blif/blif.hpp"
#include "chortle/mapper.hpp"
#include "common.hpp"
#include "opt/decompose.hpp"
#include "opt/script.hpp"
#include "sim/simulate.hpp"
#include "spans.hpp"
#include "suites.hpp"

namespace perfbench {
namespace {

using namespace chortle;

struct GoldenRow {
  int luts = 0;
  std::string blif_hash;
};
using Golden = std::map<std::pair<std::string, int>, GoldenRow>;

Golden load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open golden file " + path);
  Golden golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::stringstream fields(line);
    std::string name;
    int k = 0;
    GoldenRow row;
    fields >> name >> k >> row.luts >> row.blif_hash;
    if (fields.fail()) throw std::runtime_error("bad golden row: " + line);
    golden[{name, k}] = row;
  }
  return golden;
}

/// What one pass produced, summed over the suite.
struct PassTally {
  std::int64_t luts = 0;
  std::int64_t depth = 0;
  std::int64_t checked = 0;
  std::int64_t equivalent = 0;
  std::int64_t divisors = 0;
  std::int64_t literals_out = 0;
  std::int64_t trees = 0;
  std::int64_t in_bytes = 0;
  std::int64_t out_bytes = 0;
  std::vector<double> circuit_seconds;
};

/// opt::optimize with each of its passes as its own span, in the order
/// src/opt/script.cpp runs them.
net::Network optimize_staged(const sop::SopNetwork& input,
                             SpanRecorder& spans, std::int64_t request,
                             PassTally& tally) {
  sop::SopNetwork network = input;
  {
    auto span = spans.span("opt.sweep", request);
    opt::sweep(network);
  }
  {
    auto span = spans.span("opt.simplify", request);
    opt::simplify_covers(network);
  }
  {
    auto span = spans.span("opt.extract", request);
    tally.divisors += opt::extract_divisors(network).divisors_extracted;
  }
  {
    auto span = spans.span("opt.simplify", request);
    opt::simplify_covers(network);
  }
  {
    auto span = spans.span("opt.sweep", request);
    opt::sweep(network);
  }
  tally.literals_out += network.total_literals();
  auto span = spans.span("opt.decompose", request);
  return opt::decompose_to_and_or(network);
}

/// One pass over the suite. `staged` times the optimizer pass by pass
/// (traced run); otherwise opt::optimize is called as users call it.
/// `before_circuit(index)`, when given, runs before each circuit, outside
/// its time.
PassTally run_pass(const std::vector<Request>& suite, const Golden& golden,
                   bool staged, SpanRecorder& spans, Failures& failures,
                   const std::function<void(std::size_t)>& before_circuit =
                       {}) {
  PassTally tally;
  for (std::size_t index = 0; index < suite.size(); ++index) {
    if (before_circuit) before_circuit(index);
    const Request& request = suite[index];
    const auto id = static_cast<std::int64_t>(index);
    const Clock::time_point start = Clock::now();
    auto request_span = spans.span("request", id);
    blif::BlifModel model;
    {
      auto span = spans.span("blif.parse", id);
      model = blif::read_blif_string(request.blif);
    }
    tally.in_bytes += static_cast<std::int64_t>(request.blif.size());
    net::Network network;
    if (staged) {
      network = optimize_staged(model.network, spans, id, tally);
    } else {
      opt::OptimizedDesign design = opt::optimize(model.network);
      tally.divisors += design.stats.extract.divisors_extracted;
      tally.literals_out += design.stats.literals;
      network = std::move(design.network);
    }
    const sim::Design source = [&] {
      auto span = spans.span("sim.check", id);
      return sim::design_of(model.network);
    }();
    std::string problems;
    for (int k = 2; k <= 6; ++k) {
      core::Options options;
      options.k = k;
      options.jobs = 1;
      const core::MapResult mapped = [&] {
        auto span = spans.span("chortle.map", id);
        return core::map_network(network, options);
      }();
      std::string text;
      {
        auto span = spans.span("blif.emit", id);
        text = blif::write_blif_string(mapped.circuit, "bench");
      }
      tally.out_bytes += static_cast<std::int64_t>(text.size());
      tally.trees += mapped.stats.num_trees;
      tally.luts += mapped.stats.num_luts;
      tally.depth += mapped.circuit.depth();
      const std::string where = " K=" + std::to_string(k) + ": ";
      const auto row = golden.find({request.name, k});
      if (row == golden.end()) {
        problems += where + "no golden row;";
      } else if (row->second.luts != mapped.stats.num_luts ||
                 row->second.blif_hash != base::fnv1a64_hex(text)) {
        problems += where + "LUT count or BLIF digest differs from golden;";
      }
      bool equivalent = false;
      {
        auto span = spans.span("sim.check", id);
        equivalent =
            sim::equivalent(source, sim::design_of(mapped.circuit));
      }
      ++tally.checked;
      if (equivalent) ++tally.equivalent;
      else problems += where + "mapped circuit not equivalent to source;";
    }
    tally.circuit_seconds.push_back(seconds_since(start));
    if (!problems.empty()) failures.add(request.name + problems);
  }
  return tally;
}

obs::Json layer_document(const SpanRecorder& spans, const PassTally& tally,
                         double untraced_s, double traced_s) {
  obs::Json self = obs::Json::object();
  for (const auto& [layer, seconds] : spans.self_seconds())
    self.set(layer, seconds);
  obs::Json layers = obs::Json::object();
  layers.set("opt.divisors", tally.divisors);
  layers.set("opt.literals_out", tally.literals_out);
  layers.set("chortle.trees", tally.trees);
  layers.set("blif.in_bytes", tally.in_bytes);
  layers.set("blif.out_bytes", tally.out_bytes);
  obs::Json doc = obs::Json::object();
  doc.set("self_s", std::move(self));
  doc.set("layers", std::move(layers));
  doc.set("untraced_s", untraced_s);
  doc.set("traced_s", traced_s);
  return doc;
}

}  // namespace

obs::Json run_flow(const Args& args, Clock::time_point process_start) {
  const Golden golden = load_golden(args.golden);
  const std::vector<Request> suite = mcnc_suite();
  // The set-up is rendering the suite, 35-60 ms. The host's speed moves
  // between a fast and a slow level, at which renders take about 1.7x as
  // long, in spells of seconds to minutes, so renders taken back to back
  // all land in one spell. The timed pass renders the suite again before
  // each circuit instead, and sample j is the mean of the renders before
  // circuits j, j + setup_reps, ...: every sample spans the pass, and
  // their median moves smoothly with the share of slow spells in it.
  const auto samples = static_cast<std::size_t>(args.settings.setup_reps);
  std::vector<std::vector<double>> renders(samples);
  renders[0].push_back(seconds_since(process_start));

  Failures failures;
  obs::Json result = obs::Json::object();
  result.set("workload", args.workload);
  result.set("seed", static_cast<std::int64_t>(args.seed));
  result.set("digest", digest(suite));
  result.set("suite_requests", static_cast<std::int64_t>(suite.size()));
  result.set("setup_once_s", 0.0);

  if (args.trace) {
    SpanRecorder untraced(false);
    Clock::time_point start = Clock::now();
    run_pass(suite, golden, /*staged=*/true, untraced, failures);
    const double untraced_s = seconds_since(start);
    SpanRecorder spans(true);
    start = Clock::now();
    const PassTally tally =
        run_pass(suite, golden, /*staged=*/true, spans, failures);
    const double traced_s = seconds_since(start);
    if (!spans.write_chrome_trace(args.trace_out))
      failures.add("cannot write trace " + args.trace_out);
    result.set("trace", layer_document(spans, tally, untraced_s, traced_s));
    result.set("attempted", static_cast<std::int64_t>(2 * suite.size()));
  } else {
    std::vector<double> pass_seconds;
    std::vector<double> latency_ms;
    PassTally first;
    const Clock::time_point window = Clock::now();
    SpanRecorder off(false);
    const auto render = [&](std::size_t circuit) {
      const Clock::time_point start = Clock::now();
      const std::vector<Request> again = mcnc_suite();
      renders[circuit % samples].push_back(seconds_since(start));
    };
    do {
      PassTally tally =
          run_pass(suite, golden, /*staged=*/false, off, failures, render);
      double pass_s = 0.0;
      for (const double seconds : tally.circuit_seconds) {
        pass_s += seconds;
        latency_ms.push_back(seconds * 1e3);
      }
      pass_seconds.push_back(pass_s);
      if (pass_seconds.size() == 1) first = std::move(tally);
    } while (seconds_since(window) < args.seconds);
    result.set("window_s", seconds_since(window));
    result.set("pass_s", doubles(pass_seconds));
    result.set("latency_ms", doubles(latency_ms));
    result.set("completed", static_cast<std::int64_t>(latency_ms.size()));
    result.set("attempted", static_cast<std::int64_t>(latency_ms.size()));
    result.set("luts_total", first.luts);
    result.set("depth_total", first.depth);
    obs::Json verdicts = obs::Json::object();
    verdicts.set("checked", first.checked);
    verdicts.set("equivalent", first.equivalent);
    result.set("verdicts", std::move(verdicts));
  }
  std::vector<double> setup_samples;
  for (const std::vector<double>& times : renders) {
    if (times.empty()) continue;  // the traced run renders only once
    double sum = 0.0;
    for (const double seconds : times) sum += seconds;
    setup_samples.push_back(sum / static_cast<double>(times.size()));
  }
  result.set("setup_s", doubles(setup_samples));
  result.set("failed", failures.count);
  result.set("failures", strings(failures.messages));
  result.set("peak_rss_mb", peak_rss_mb());
  return result;
}

}  // namespace perfbench
