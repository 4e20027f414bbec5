#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>

#include "base/check.hpp"
#include "base/rng.hpp"
#include "chortle/imapper.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"
#include "mcnc/random_logic.hpp"
#include "sim/simulate.hpp"

namespace chortle::fuzz {
namespace {

int gate_count(const sop::SopNetwork& network) {
  return network.num_nodes() - static_cast<int>(network.inputs().size());
}

TEST(FuzzGenerator, IsDeterministicInTheRngState) {
  Rng a(123), b(123);
  for (int i = 0; i < 5; ++i) {
    const FuzzCase ca = sample_case(a);
    const FuzzCase cb = sample_case(b);
    EXPECT_EQ(ca.description, cb.description);
    EXPECT_EQ(ca.network.num_nodes(), cb.network.num_nodes());
    EXPECT_EQ(ca.options.k, cb.options.k);
    EXPECT_TRUE(sim::equivalent(sim::design_of(ca.network),
                                sim::design_of(cb.network)));
  }
}

TEST(FuzzGenerator, SweepsTheParameterSpace) {
  Rng rng(7);
  std::set<int> ks;
  bool saw_duplication = false, saw_fixed_decomposition = false;
  bool saw_single_output = false, saw_degenerate = false;
  int smallest = 1 << 30, largest = 0;
  for (int i = 0; i < 300; ++i) {
    const FuzzCase c = sample_case(rng);
    ks.insert(c.options.k);
    saw_duplication |= c.options.duplicate_fanout_logic;
    saw_fixed_decomposition |= !c.options.search_decompositions;
    saw_single_output |= c.network.outputs().size() == 1;
    saw_degenerate |=
        c.description.find("const_p=0 ") == std::string::npos;
    smallest = std::min(smallest, gate_count(c.network));
    largest = std::max(largest, gate_count(c.network));
  }
  EXPECT_EQ(ks, (std::set<int>{2, 3, 4, 5, 6}));
  EXPECT_TRUE(saw_duplication);
  EXPECT_TRUE(saw_fixed_decomposition);
  EXPECT_TRUE(saw_single_output);
  EXPECT_TRUE(saw_degenerate);
  EXPECT_LE(smallest, 4);
  EXPECT_GE(largest, 60);
}

TEST(FuzzOracle, PassesOnCleanSweep) {
  FuzzOptions options;
  options.runs = 20;
  options.seed = 2024;
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.runs_completed, 20);
  EXPECT_TRUE(report.ok())
      << (report.failures.empty()
              ? std::string()
              : report.failures.front().verdict.summary());
}

TEST(FuzzOracle, AcceptsDegenerateNetworks) {
  // All-constant and buffer-only networks map to circuits without LUTs;
  // the oracle must treat them as ordinary cases.
  mcnc::RandomLogicParams params;
  params.num_inputs = 3;
  params.num_gates = 6;
  params.num_outputs = 3;
  params.constant_node_probability = 0.5;
  params.buffer_node_probability = 0.5;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    params.seed = seed;
    FuzzCase fuzz_case;
    fuzz_case.network = mcnc::random_logic(params);
    const Verdict verdict = check_case(fuzz_case);
    EXPECT_TRUE(verdict.ok()) << "seed " << seed << ": "
                              << verdict.summary();
  }
}

TEST(FuzzOracle, DefaultsToEveryRegisteredMapper) {
  const FuzzCase fuzz_case;
  EXPECT_EQ(fuzz_case.backends, core::all_mappers());
  EXPECT_EQ(FuzzOptions{}.backends, core::all_mappers());
  EXPECT_NE(core::find_mapper("portfolio"), nullptr);
}

/// An unregistered backend that maps with Chortle, then flips the first
/// truth-table bit of its first LUT: the oracle must catch it by name.
class BitFlipMapper final : public core::IMapper {
 public:
  const char* name() const override { return "bitflip-stub"; }
  int min_k() const override { return 2; }
  int max_k() const override { return 6; }
  core::MapResult map(const net::Network& network,
                      const core::Options& options) const override {
    core::MapResult result = core::map_network(network, options);
    const net::LutCircuit& in = result.circuit;
    net::LutCircuit out(in.k());
    for (const std::string& name : in.input_names()) out.add_input(name);
    for (net::Lut lut : in.luts()) {
      if (out.num_luts() == 0) lut.function.set_bit(0, !lut.function.bit(0));
      out.add_lut(std::move(lut));
    }
    for (const net::LutOutput& o : in.outputs()) {
      if (o.is_const)
        out.add_const_output(o.name, o.const_value);
      else
        out.add_output(o.name, o.signal, o.negated);
    }
    result.circuit = std::move(out);
    return result;
  }
};

TEST(FuzzOracle, ChecksAnUnregisteredMapperUnderItsOwnName) {
  const BitFlipMapper stub;
  ASSERT_EQ(core::find_mapper(stub.name()), nullptr);
  int caught = 0;
  Rng rng(99);
  for (int i = 0; i < 10; ++i) {
    FuzzCase fuzz_case = sample_case(rng);
    fuzz_case.backends = {&stub};
    const Verdict verdict = check_case(fuzz_case);
    EXPECT_EQ(verdict.backends_run, 1);
    if (!verdict.ok()) ++caught;
    for (const Failure& failure : verdict.failures)
      EXPECT_EQ(failure.stage, "bitflip-stub") << verdict.summary();
  }
  EXPECT_GE(caught, 5) << "the flipped bit was almost never caught";
}

TEST(FuzzOracle, CatchesAnInjectedMiscompile) {
  // Find a case whose Chortle circuit has at least one LUT, inject a
  // single flipped truth-table bit, and the oracle must object.
  OracleOptions oracle;
  oracle.injection.enabled = true;
  int caught = 0, tried = 0;
  Rng rng(99);
  for (int i = 0; i < 10; ++i) {
    const FuzzCase fuzz_case = sample_case(rng);
    ++tried;
    const Verdict verdict = check_case(fuzz_case, oracle);
    if (verdict.ok()) continue;  // 0-LUT circuit or masked fault
    ++caught;
    EXPECT_EQ(verdict.failures.front().stage, "chortle");
  }
  EXPECT_GE(caught, tried / 2) << "the injection was almost never caught";
}

TEST(FuzzShrink, MinimizesAnInjectedFailureToAFewGates) {
  OracleOptions oracle;
  oracle.injection.enabled = true;
  Rng rng(5);
  // Draw until the injection is observable, then shrink.
  for (int i = 0; i < 20; ++i) {
    const FuzzCase fuzz_case = sample_case(rng);
    const Verdict verdict = check_case(fuzz_case, oracle);
    if (verdict.ok()) continue;

    const ShrinkResult result = shrink(fuzz_case, oracle);
    EXPECT_FALSE(result.verdict.ok());
    EXPECT_EQ(result.verdict.failures.front().stage,
              verdict.failures.front().stage);
    EXPECT_LE(gate_count(result.fuzz_case.network),
              gate_count(fuzz_case.network));
    EXPECT_LE(gate_count(result.fuzz_case.network), 10)
        << "shrunk reproducer must be at most 10 gates";
    return;
  }
  FAIL() << "no observable injected failure in 20 samples";
}

TEST(FuzzShrink, RequiresAFailingCase) {
  Rng rng(11);
  const FuzzCase fuzz_case = sample_case(rng);
  EXPECT_THROW(shrink(fuzz_case, OracleOptions{}), InvalidInput);
}

TEST(FuzzCorpus, EncodeDecodeRoundTrips) {
  Rng rng(17);
  CorpusEntry entry;
  entry.name = "round_trip";
  entry.fuzz_case = sample_case(rng);
  entry.fuzz_case.backends = {core::find_mapper("chortle"),
                              core::find_mapper("libmap")};
  entry.injection.enabled = true;
  entry.injection.lut_index = 3;
  entry.injection.bit_index = 7;
  entry.expect_failure = true;
  entry.note = "sample note";

  const CorpusEntry reread =
      decode_entry(encode_entry(entry), entry.name);
  EXPECT_EQ(reread.name, entry.name);
  EXPECT_EQ(reread.expect_failure, true);
  EXPECT_EQ(reread.note, "sample note");
  EXPECT_EQ(reread.fuzz_case.backends, entry.fuzz_case.backends);
  EXPECT_EQ(reread.fuzz_case.options.k, entry.fuzz_case.options.k);
  EXPECT_EQ(reread.fuzz_case.options.split_threshold,
            entry.fuzz_case.options.split_threshold);
  EXPECT_EQ(reread.fuzz_case.options.search_decompositions,
            entry.fuzz_case.options.search_decompositions);
  EXPECT_EQ(reread.fuzz_case.options.duplicate_fanout_logic,
            entry.fuzz_case.options.duplicate_fanout_logic);
  EXPECT_TRUE(reread.injection.enabled);
  EXPECT_EQ(reread.injection.lut_index, 3);
  EXPECT_EQ(reread.injection.bit_index, 7u);
  EXPECT_TRUE(sim::equivalent(sim::design_of(entry.fuzz_case.network),
                              sim::design_of(reread.fuzz_case.network)));
}

// A reproducer with one header line; the BLIF body is a 2-input AND.
std::string reproducer(const std::string& header) {
  return "# chortle-fuzz reproducer v1\n" + header +
         "\n.model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n"
         ".end\n";
}

TEST(FuzzCorpus, DecodesValuesStrictly) {
  EXPECT_EQ(decode_entry(reproducer("# options: k=5 split=7"), "ok")
                .fuzz_case.options.k,
            5);
  for (const char* header :
       {"# options: k=4x", "# options: kk=3", "# options: split=1O",
        "# options: search=2", "# inject: lut=-1", "# inject: bits=3"}) {
    EXPECT_THROW(decode_entry(reproducer(header), "bad"), InvalidInput)
        << header;
  }
}

TEST(FuzzCorpus, UnknownMapperListsTheRegistry) {
  const CorpusEntry entry =
      decode_entry(reproducer("# backends: portfolio,cutmap"), "ok");
  ASSERT_EQ(entry.fuzz_case.backends.size(), 2u);
  EXPECT_STREQ(entry.fuzz_case.backends[0]->name(), "portfolio");
  try {
    decode_entry(reproducer("# backends: chortle,nope"), "bad");
    FAIL() << "an unknown mapper name was accepted";
  } catch (const InvalidInput& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("'nope'"), std::string::npos) << message;
    EXPECT_NE(message.find(core::mapper_names()), std::string::npos)
        << message;
  }
}

TEST(FuzzEndToEnd, InjectedMiscompileIsShrunkWrittenAndReplaysRed) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "chortle_fuzz_corpus_test")
          .string();
  std::filesystem::remove_all(dir);

  FuzzOptions options;
  options.runs = 10;
  options.seed = 42;
  options.oracle.injection.enabled = true;
  options.corpus_dir = dir;
  const FuzzReport report = run_fuzz(options);
  ASSERT_FALSE(report.ok()) << "injection was never caught in 10 runs";

  for (const RunFailure& failure : report.failures) {
    EXPECT_LE(gate_count(failure.shrunk.network), 10);
    EXPECT_FALSE(failure.shrunk_verdict.ok());
    EXPECT_FALSE(failure.reproducer_path.empty());
  }

  // Reload from disk and replay: every reproducer must still be red.
  const std::vector<CorpusEntry> corpus = load_corpus(dir);
  ASSERT_EQ(corpus.size(), report.failures.size());
  for (const CorpusEntry& entry : corpus) {
    EXPECT_TRUE(entry.expect_failure);
    EXPECT_TRUE(entry.injection.enabled);
    const Verdict verdict = replay_entry(entry);
    EXPECT_FALSE(verdict.ok())
        << entry.name << " replayed green; the reproducer is useless";
  }
  std::filesystem::remove_all(dir);
}

TEST(FuzzFuzzer, TimeBudgetStopsEarly) {
  FuzzOptions options;
  options.runs = 100000;
  options.seed = 3;
  options.time_budget_seconds = 0.5;
  const FuzzReport report = run_fuzz(options);
  EXPECT_LT(report.runs_completed, options.runs);
  EXPECT_TRUE(report.ok());
}

}  // namespace
}  // namespace chortle::fuzz
