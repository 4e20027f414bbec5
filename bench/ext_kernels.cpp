// Microbenchmarks for the mapper's bit-parallel kernels: PackedTable
// word ops against the heap-backed TruthTable equivalents, the
// precomputed subset-enumeration tables, the tree-DP solve itself, and
// whole-network mapping. These are the fine-grained companions to
// bench/run_tables (which records the Table 2-style BENCH_chortle.json
// baseline): when run_tables shows a regression, the kernel benchmarks
// localize it.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "base/rng.hpp"
#include "chortle/mapper.hpp"
#include "chortle/options.hpp"
#include "chortle/subset_tables.hpp"
#include "chortle/tree_mapper.hpp"
#include "chortle/work_tree.hpp"
#include "mcnc/generators.hpp"
#include "opt/script.hpp"
#include "truth/packed.hpp"
#include "truth/truth_table.hpp"

namespace {

using namespace chortle;

truth::PackedTable random_packed(Rng& rng, int vars) {
  truth::PackedTable t(vars);
  for (std::uint64_t m = 0; m < t.num_minterms(); m += 64)
    t.set_bit(m, rng.next_bool());
  for (std::uint64_t m = 0; m < t.num_minterms(); ++m)
    if (rng.next_bool()) t.set_bit(m, true);
  return t;
}

void BM_PackedAnd(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  Rng rng(7);
  truth::PackedTable a = random_packed(rng, vars);
  const truth::PackedTable b = random_packed(rng, vars);
  for (auto _ : state) {
    a &= b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_PackedAnd)->Arg(6)->Arg(10);

void BM_PackedNot(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  Rng rng(7);
  const truth::PackedTable a = random_packed(rng, vars);
  for (auto _ : state) {
    truth::PackedTable r = ~a;
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PackedNot)->Arg(6)->Arg(10);

void BM_PackedCofactor(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  Rng rng(7);
  const truth::PackedTable a = random_packed(rng, vars);
  int var = 0;
  for (auto _ : state) {
    truth::PackedTable r = a.cofactor1(var);
    var = (var + 1) % vars;
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PackedCofactor)->Arg(6)->Arg(10);

// The scalar path the packed kernels replaced, for a direct ratio.
void BM_TruthAnd(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  Rng rng(7);
  truth::TruthTable a = truth::TruthTable::var(0, vars);
  const truth::TruthTable b = truth::TruthTable::var(vars - 1, vars);
  for (auto _ : state) {
    a &= b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_TruthAnd)->Arg(6)->Arg(10);

void BM_PackedVar(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  int var = 0;
  for (auto _ : state) {
    truth::PackedTable r = truth::PackedTable::var(var, vars);
    var = (var + 1) % vars;
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PackedVar)->Arg(6)->Arg(10);

void BM_SubsetTablesLookup(benchmark::State& state) {
  const int fanin = static_cast<int>(state.range(0));
  (void)core::subset_tables(fanin);  // build outside the loop
  for (auto _ : state) {
    const core::SubsetTables* t = core::subset_tables(fanin);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_SubsetTablesLookup)->Arg(4)->Arg(10);

// One WorkNode chain of `gates` nodes, each of fanin `f`, child 0 the
// previous node and the rest leaves — the DP's bread and butter.
core::WorkTree chain_tree(int gates, int f) {
  core::WorkTree tree;
  int leaf = 0;
  for (int g = 0; g < gates; ++g) {
    core::WorkNode node;
    node.op = (g & 1) ? net::GateOp::kOr : net::GateOp::kAnd;
    for (int c = 0; c < f; ++c) {
      core::WorkChild child;
      if (c == 0 && g + 1 < gates) {
        child.node = g + 1;  // nodes indexed root-first; split below
      } else {
        child.is_leaf = true;
        child.leaf_signal = leaf++;
      }
      node.children.push_back(child);
    }
    tree.nodes.push_back(node);
  }
  tree.root = 0;
  tree.num_leaves = leaf;
  return tree;
}

void BM_TreeMapperSolve(benchmark::State& state) {
  const int f = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  core::Options options;
  options.k = k;
  const core::WorkTree tree = chain_tree(/*gates=*/8, f);
  for (auto _ : state) {
    core::TreeMapper mapper(tree, options);
    benchmark::DoNotOptimize(mapper.best_cost());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_TreeMapperSolve)
    ->Args({2, 4})
    ->Args({2, 6})
    ->Args({5, 4})
    ->Args({10, 6});

void BM_MapNetwork(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  static const opt::OptimizedDesign* design = [] {
    return new opt::OptimizedDesign(opt::optimize(mcnc::generate("des")));
  }();
  core::Options options;
  options.k = k;
  for (auto _ : state) {
    const core::MapResult result = core::map_network(design->network, options);
    benchmark::DoNotOptimize(result.stats.num_luts);
  }
}
BENCHMARK(BM_MapNetwork)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
