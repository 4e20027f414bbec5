// Microbenchmarks of the substrates: BLIF parsing, ISOP extraction,
// NPN canonization, kernel extraction, divisor extraction (the
// optimizer's hot pass), and bit-parallel simulation.
#include <benchmark/benchmark.h>

#include <bit>
#include <sstream>

#include "base/rng.hpp"
#include "blif/blif.hpp"
#include "mcnc/generators.hpp"
#include "opt/extract.hpp"
#include "opt/simplify.hpp"
#include "opt/sweep.hpp"
#include "sim/simulate.hpp"
#include "sop/isop.hpp"
#include "sop/kernels.hpp"
#include "truth/canonical.hpp"

using namespace chortle;

namespace {

void BM_BlifParse(benchmark::State& state) {
  const std::string text =
      blif::write_blif_string(mcnc::generate("apex7"), "apex7");
  for (auto _ : state) {
    const blif::BlifModel model = blif::read_blif_string(text);
    benchmark::DoNotOptimize(model.network.num_nodes());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_BlifParse);

void BM_BlifWrite(benchmark::State& state) {
  const sop::SopNetwork net = mcnc::generate("apex7");
  for (auto _ : state) {
    const std::string text = blif::write_blif_string(net, "apex7");
    benchmark::DoNotOptimize(text.size());
  }
}
BENCHMARK(BM_BlifWrite);

void BM_Isop(benchmark::State& state) {
  // The 9sym symmetric function: a known hard two-level case.
  truth::TruthTable fn(9);
  for (std::uint64_t m = 0; m < fn.num_minterms(); ++m) {
    const int w = std::popcount(m);
    fn.set_bit(m, w >= 3 && w <= 6);
  }
  for (auto _ : state) {
    const sop::Cover cover = sop::isop(fn);
    benchmark::DoNotOptimize(cover.num_cubes());
  }
}
BENCHMARK(BM_Isop);

void BM_NpnCanonical(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(9);
  std::vector<truth::TruthTable> tables;
  for (int i = 0; i < 64; ++i)
    tables.push_back(truth::TruthTable::from_bits(rng.next_u64(), n));
  std::size_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        truth::npn_canonical(tables[index++ % tables.size()]));
  }
}
BENCHMARK(BM_NpnCanonical)->Arg(3)->Arg(4)->Arg(5);

void BM_Kernels(benchmark::State& state) {
  const sop::SopNetwork net = mcnc::generate("9symml");
  const sop::Cover& cover = net.node(net.find("out")).cover;
  for (auto _ : state) {
    const auto kernels = sop::find_kernels(cover);
    benchmark::DoNotOptimize(kernels.size());
  }
  state.counters["cubes"] = cover.num_cubes();
}
BENCHMARK(BM_Kernels);

// opt::extract_divisors on a benchmark as opt::optimize hands it over,
// after sweep and simplify; the copy of the network is not timed.
void BM_ExtractDivisors(benchmark::State& state, const char* name) {
  sop::SopNetwork prepared = mcnc::generate(name);
  opt::sweep(prepared);
  opt::simplify_covers(prepared);
  int divisors = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sop::SopNetwork network = prepared;
    state.ResumeTiming();
    divisors = opt::extract_divisors(network).divisors_extracted;
  }
  state.counters["divisors"] = divisors;
  state.SetLabel(name);
}
BENCHMARK_CAPTURE(BM_ExtractDivisors, alu4, "alu4")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExtractDivisors, k2, "k2")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ExtractDivisors, des, "des")
    ->Unit(benchmark::kMillisecond);

void BM_Simulate(benchmark::State& state) {
  const sop::SopNetwork net = mcnc::generate("des");
  const sim::Design design = sim::design_of(net);
  Rng rng(4);
  std::vector<sim::Word> in(design.input_names.size());
  for (auto& w : in) w = rng.next_u64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(design.eval(in));
  }
  // 64 patterns per call.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Simulate);

}  // namespace

BENCHMARK_MAIN();
