// perfbench: runs one workload of the chortle end-to-end benchmark and
// writes its raw measurements (samples, counts, checks) as JSON. The
// metrics are derived from that document by run.py, which is the
// command to use:
//
//   python3 perfbench/run.py --workload serve_repeat --seed 1
//       --seconds 10 --trace 0
//
// Direct use: perfbench --workload W --seed N --seconds S --trace 0|1
//   --out FILE [--trace-out FILE] [--golden FILE] [--socket PATH]
//   [--digest-only]
// Each workload's connection, worker, rate and repetition counts are the
// kSettings table in common.hpp.
// Exit codes: 0 ran (the document says whether outputs were correct),
// 2 usage or set-up error.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "suites.hpp"

namespace perfbench {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void restart_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  if (!clear_refs)
    throw std::runtime_error("cannot reset the peak RSS in clear_refs");
}

obs::Json doubles(const std::vector<double>& values) {
  obs::Json array = obs::Json::array();
  for (const double value : values) array.push_back(value);
  return array;
}

obs::Json strings(const std::vector<std::string>& values) {
  obs::Json array = obs::Json::array();
  for (const std::string& value : values) array.push_back(value);
  return array;
}

int fresh_pool_passes(const Args& args) {
  return std::max(1, static_cast<int>(std::ceil(
                         args.seconds * args.settings.fresh_passes_per_s)));
}

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--digest-only") {
      args.digest_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = value == "1";
      else if (flag == "--out") args.out = value;
      else if (flag == "--trace-out") args.trace_out = value;
      else if (flag == "--golden") args.golden = value;
      else if (flag == "--socket") args.socket = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.seconds <= 0.0) usage("--seconds must be positive");
  const auto row = std::find_if(
      std::begin(kSettings), std::end(kSettings),
      [&](const Settings& s) { return args.workload == s.workload; });
  if (row == std::end(kSettings))
    usage("unknown workload \"" + args.workload + "\"");
  args.settings = *row;
  return args;
}

std::string request_digest(const Args& args) {
  if (args.workload == "flow_mcnc") return digest(mcnc_suite());
  if (args.workload == "serve_repeat") return digest(repeat_suite(args.seed));
  if (args.workload == "serve_fresh")
    return digest(fresh_pool(args.seed, fresh_pool_passes(args)));
  return digest(signoff_suite());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point process_start = Clock::now();
  const Args args = parse_args(argc, argv);
  if (args.digest_only) {
    std::printf("%s\n", request_digest(args).c_str());
    return 0;
  }
  if (args.out.empty()) usage("--out is required");
  obs::Json result;
  try {
    if (args.workload == "flow_mcnc") {
      result = run_flow(args, process_start);
    } else {
      result = run_served(args, process_start);
    }
  } catch (const std::exception& error) {
    usage(std::string("run aborted: ") + error.what());
  }
  std::ofstream out(args.out);
  result.dump(out, 1);
  out << "\n";
  if (!out) usage("cannot write " + args.out);
  return 0;
}
