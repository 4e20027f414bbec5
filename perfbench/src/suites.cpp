#include "suites.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "base/fnv.hpp"
#include "base/rng.hpp"
#include "blif/blif.hpp"
#include "common.hpp"
#include "mcnc/generators.hpp"
#include "mcnc/random_logic.hpp"

namespace perfbench {
namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream;
}

}  // namespace

std::vector<Request> mcnc_suite() {
  std::vector<Request> suite;
  for (const std::string& name : chortle::mcnc::benchmark_names()) {
    Request request;
    request.name = name;
    request.blif = chortle::blif::write_blif_string(
        chortle::mcnc::generate(name), name);
    suite.push_back(std::move(request));
  }
  return suite;
}

std::vector<Request> repeat_suite(std::uint64_t seed) {
  std::vector<Request> suite;
  for (const Request& circuit : mcnc_suite()) {
    for (int k = 4; k <= 6; ++k) {
      Request request = circuit;
      request.k = k;
      suite.push_back(std::move(request));
    }
  }
  chortle::Rng rng(mix(seed, 2));
  rng.shuffle(suite);
  return suite;
}

std::vector<Request> fresh_pool(std::uint64_t seed, int passes) {
  constexpr int kMinGates = 100;
  constexpr int kGateSpan = 700;  // gates in [100, 800)
  // The draws are serial, so the pool depends on the seed alone; the
  // rendering, most of the set-up time, runs on the machine's 4 cores.
  constexpr int kRenderThreads = 4;
  chortle::Rng rng(mix(seed, 3));
  std::vector<std::pair<Request, chortle::mcnc::RandomLogicParams>> drawn;
  drawn.reserve(static_cast<std::size_t>(passes) * kFreshPerPass);
  for (int pass = 0; pass < passes; ++pass) {
    std::vector<std::pair<Request, chortle::mcnc::RandomLogicParams>> batch;
    for (int j = 0; j < kFreshPerPass; ++j) {
      chortle::mcnc::RandomLogicParams params;
      const int stratum = kGateSpan / kFreshPerPass;
      params.num_gates = kMinGates + j * stratum +
                         static_cast<int>(rng.next_below(stratum));
      params.num_inputs = static_cast<int>(rng.next_in(16, 32));
      params.num_outputs = static_cast<int>(rng.next_in(8, 16));
      params.seed = rng.next_u64();
      Request request;
      request.name = "fresh" + std::to_string(pass * kFreshPerPass + j);
      request.k = 4 + j % 3;
      batch.emplace_back(std::move(request), params);
    }
    rng.shuffle(batch);
    for (auto& entry : batch) drawn.push_back(std::move(entry));
  }
  std::vector<Request> pool(drawn.size());
  parallel_for(drawn.size(), kRenderThreads, [&](std::size_t i) {
    pool[i] = std::move(drawn[i].first);
    pool[i].blif = chortle::blif::write_blif_string(
        chortle::mcnc::random_logic(drawn[i].second), pool[i].name);
  });
  return pool;
}

std::vector<Request> signoff_suite() {
  // Slowest BDD verify first (measured at K = 6 on the seed program).
  static const char* const kOrder[] = {"frg2",  "apex6", "apex7", "pair",
                                       "rot",   "k2",    "des",   "alu4",
                                       "frg1",  "alu2",  "9symml", "count"};
  const std::vector<Request> circuits = mcnc_suite();
  std::vector<Request> suite;
  for (const char* name : kOrder) {
    const auto it = std::find_if(
        circuits.begin(), circuits.end(),
        [&](const Request& request) { return request.name == name; });
    if (it == circuits.end())
      throw std::logic_error(std::string("no MCNC circuit ") + name);
    Request request = *it;
    request.k = 6;
    request.mapper = "portfolio";
    request.verify = true;
    suite.push_back(std::move(request));
  }
  return suite;
}

std::string digest(const std::vector<Request>& requests) {
  std::string all;
  for (const Request& request : requests) {
    all += request.name + '\n' + std::to_string(request.k) + '\n' +
           request.mapper + '\n' + (request.verify ? "verify\n" : "\n") +
           chortle::base::fnv1a64_hex(request.blif) + '\n';
  }
  return chortle::base::fnv1a64_hex(all);
}

}  // namespace perfbench
