// Golden regression suite for the mapper: tests/golden/lut_counts.tsv
// pins the exact LUT count AND the FNV-1a digest of the emitted BLIF
// for every MCNC-substitute benchmark at K = 2..6 (the paper's Table 2
// extended across the K sweep). The rows were recorded from the
// pre-bit-parallel-kernel mapper, so any kernel or DP rewrite that
// changes a single emitted byte fails here with the benchmark and K
// named. Three modes must all reproduce the goldens:
//
//   serial      no cache (the reference configuration)
//   cold cache  mapping through a fresh cross-request DP cache
//   warm cache  re-mapping through the now-populated cache
//
// Regenerate (only when an intentional quality change lands) with:
//   ./build/bench/run_tables --golden-out tests/golden/lut_counts.tsv
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/fnv.hpp"
#include "blif/blif.hpp"
#include "chortle/dp_cache.hpp"
#include "chortle/mapper.hpp"
#include "mcnc/generators.hpp"
#include "opt/script.hpp"

#ifndef CHORTLE_GOLDEN_DIR
#error "CHORTLE_GOLDEN_DIR must point at tests/golden"
#endif

namespace chortle {
namespace {

struct GoldenRow {
  int luts = 0;
  std::string blif_hash;
};

/// (benchmark, K) -> expected result.
using GoldenMap = std::map<std::pair<std::string, int>, GoldenRow>;

const GoldenMap& goldens() {
  static const GoldenMap rows = [] {
    GoldenMap map;
    const std::string path =
        std::string(CHORTLE_GOLDEN_DIR) + "/lut_counts.tsv";
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::stringstream fields(line);
      std::string name;
      int k = 0;
      GoldenRow row;
      fields >> name >> k >> row.luts >> row.blif_hash;
      EXPECT_FALSE(fields.fail()) << "malformed golden row: " << line;
      map[{name, k}] = row;
    }
    return map;
  }();
  return rows;
}

struct MappedResult {
  int luts = 0;
  std::string blif_hash;
};

MappedResult map_once(const net::Network& network, int k,
                      core::DpCache* cache) {
  core::Options options;
  options.k = k;
  const core::MapResult result =
      cache != nullptr ? core::map_network(network, options, cache)
                       : core::map_network(network, options);
  return MappedResult{
      result.stats.num_luts,
      base::fnv1a64_hex(blif::write_blif_string(result.circuit, "bench"))};
}

void expect_golden(const std::string& name, int k, const char* mode,
                   const MappedResult& got) {
  const auto it = goldens().find({name, k});
  ASSERT_NE(it, goldens().end())
      << "no golden row for benchmark=" << name << " K=" << k;
  EXPECT_EQ(got.luts, it->second.luts)
      << "LUT count diverged: benchmark=" << name << " K=" << k
      << " mode=" << mode;
  EXPECT_EQ(got.blif_hash, it->second.blif_hash)
      << "emitted BLIF diverged: benchmark=" << name << " K=" << k
      << " mode=" << mode;
}

class GoldenSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenSuite, MatchesRecordedMapping) {
  const std::string name = GetParam();
  const sop::SopNetwork source = mcnc::generate(name);
  const opt::OptimizedDesign design = opt::optimize(source);
  for (int k = 2; k <= 6; ++k) {
    expect_golden(name, k, "serial", map_once(design.network, k, nullptr));
    core::DpCache cache;
    expect_golden(name, k, "cache-cold",
                  map_once(design.network, k, &cache));
    expect_golden(name, k, "cache-warm",
                  map_once(design.network, k, &cache));
    EXPECT_GT(cache.stats().hits, 0u)
        << "warm mapping hit nothing: benchmark=" << name << " K=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mcnc, GoldenSuite, ::testing::ValuesIn(mcnc::benchmark_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// Every benchmark of the generator set must have golden rows for the
// whole K sweep — a missing row means the suite silently lost coverage.
TEST(GoldenSuite, CoversEveryBenchmarkAndK) {
  for (const std::string& name : mcnc::benchmark_names())
    for (int k = 2; k <= 6; ++k)
      EXPECT_TRUE(goldens().count({name, k}))
          << "missing golden row: benchmark=" << name << " K=" << k;
}

}  // namespace
}  // namespace chortle
