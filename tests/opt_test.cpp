#include <gtest/gtest.h>

#include "base/fnv.hpp"
#include "blif/blif.hpp"
#include "mcnc/generators.hpp"
#include "mcnc/random_logic.hpp"
#include "opt/decompose.hpp"
#include "opt/extract.hpp"
#include "opt/script.hpp"
#include "opt/simplify.hpp"
#include "opt/sweep.hpp"
#include "sim/simulate.hpp"

namespace chortle::opt {
namespace {

sop::SopNetwork from_blif(const std::string& text) {
  return blif::read_blif_string(text).network;
}

TEST(Sweep, PropagatesConstantsThroughTheNetwork) {
  // t = a & !a = 0; y = t | b  ->  y = b (wire), t dead.
  sop::SopNetwork net = from_blif(
      ".model m\n.inputs a b\n.outputs y\n"
      ".names a t\n# t = const 0 via empty cover\n"
      ".names t b y\n1- 1\n-1 1\n.end\n");
  const SweepStats stats = sweep(net);
  EXPECT_GE(stats.constants_propagated, 1);
  EXPECT_EQ(net.find("t"), sop::SopNetwork::kInvalidNode);  // pruned
  // y reduced to the single literal b.
  const auto& y = net.node(net.find("y")).cover;
  EXPECT_EQ(y.num_cubes(), 1);
  EXPECT_EQ(y.cube(0).size(), 1);
}

TEST(Sweep, CollapsesWireChains) {
  // w1 = a; w2 = !w1; y = w2 & b  ->  y = !a & b.
  sop::SopNetwork net = from_blif(
      ".model m\n.inputs a b\n.outputs y\n"
      ".names a w1\n1 1\n.names w1 w2\n0 1\n"
      ".names w2 b y\n11 1\n.end\n");
  const sop::SopNetwork original = net;
  const SweepStats stats = sweep(net);
  EXPECT_GE(stats.wires_collapsed, 2);
  EXPECT_EQ(stats.nodes_pruned, 2);
  const auto y = net.find("y");
  EXPECT_EQ(net.fanins(y), (std::vector<sop::SopNetwork::NodeId>{
                               net.find("a"), net.find("b")}));
  EXPECT_TRUE(sim::equivalent(sim::design_of(original),
                              sim::design_of(net)));
}

TEST(Sweep, KeepsOutputWires) {
  // An inverter that drives a primary output must survive.
  sop::SopNetwork net = from_blif(
      ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n");
  sweep(net);
  ASSERT_NE(net.find("y"), sop::SopNetwork::kInvalidNode);
  EXPECT_TRUE(sim::equivalent(
      sim::design_of(from_blif(
          ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n")),
      sim::design_of(net)));
}

TEST(Sweep, PreservesFunctionOnRandomNetworks) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    mcnc::RandomLogicParams params;
    params.num_inputs = 10;
    params.num_outputs = 6;
    params.num_gates = 60;
    params.seed = seed;
    sop::SopNetwork net = mcnc::random_logic(params);
    const sop::SopNetwork original = net;
    const SweepStats stats = sweep(net);
    EXPECT_LE(stats.literals_after, stats.literals_before);
    EXPECT_TRUE(sim::equivalent(sim::design_of(original),
                                sim::design_of(net)))
        << "seed " << seed;
  }
}

TEST(Extract, TextbookDivisor) {
  // f = ab + ac, g = db + dc share divisor (b + c).
  sop::SopNetwork net = from_blif(
      ".model m\n.inputs a b c d\n.outputs f g\n"
      ".names a b c f\n11- 1\n1-1 1\n"
      ".names d b c g\n11- 1\n1-1 1\n.end\n");
  const sop::SopNetwork original = net;
  const int before = net.total_literals();
  const ExtractStats stats = extract_divisors(net);
  EXPECT_GE(stats.divisors_extracted, 1);
  EXPECT_LT(net.total_literals(), before);
  EXPECT_TRUE(sim::equivalent(sim::design_of(original),
                              sim::design_of(net)));
  // f and g now reference the shared divisor node.
  EXPECT_NE(net.find("ext0"), sop::SopNetwork::kInvalidNode);
}

TEST(Extract, StopsWhenNothingSaves) {
  sop::SopNetwork net = from_blif(
      ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n");
  const ExtractStats stats = extract_divisors(net);
  EXPECT_EQ(stats.divisors_extracted, 0);
  EXPECT_EQ(stats.literals_before, stats.literals_after);
}

TEST(Extract, PreservesFunctionOnRandomNetworks) {
  for (std::uint64_t seed = 21; seed <= 25; ++seed) {
    mcnc::RandomLogicParams params;
    params.num_inputs = 10;
    params.num_outputs = 5;
    params.num_gates = 40;
    params.seed = seed;
    sop::SopNetwork net = mcnc::random_logic(params);
    sweep(net);
    const sop::SopNetwork swept = net;
    extract_divisors(net);
    EXPECT_TRUE(sim::equivalent(sim::design_of(swept), sim::design_of(net)))
        << "seed " << seed;
  }
}

TEST(Extract, FindsTheSharedDivisorAtEveryWordBoundary) {
  // f = a b + a c + x_1 !x_2 x_3 ..., g = d b + d c over a support of
  // `width` variables: the x's get the lowest node ids, so b and c sit
  // at the top of f's packed support, across a word boundary for 65 and
  // 129. The only saving divisor is b + c (2 literals saved in f and 2
  // in g, 2 spent on ext0).
  for (const int width : {63, 64, 65, 129}) {
    sop::SopNetwork net;
    std::vector<sop::Literal> wide;
    for (int i = 0; i < width - 3; ++i) {
      std::string name = std::to_string(i);
      name.insert(0, 1, 'x');
      wide.push_back(sop::make_literal(net.add_input(name), i % 2 == 1));
    }
    const int a = net.add_input("a");
    const int b = net.add_input("b");
    const int c = net.add_input("c");
    const int d = net.add_input("d");
    const auto pos = [](int var) { return sop::make_literal(var, false); };
    const sop::Cube bc_b{std::vector<sop::Literal>{pos(b)}};
    const sop::Cube bc_c{std::vector<sop::Literal>{pos(c)}};
    net.mark_output(net.add_node(
        "f", sop::Cover({sop::Cube({pos(a), pos(b)}),
                         sop::Cube({pos(a), pos(c)}), sop::Cube(wide)})));
    net.mark_output(net.add_node(
        "g", sop::Cover({sop::Cube({pos(d), pos(b)}),
                         sop::Cube({pos(d), pos(c)})})));
    ASSERT_EQ(static_cast<int>(net.fanins(net.find("f")).size()), width);
    const sop::SopNetwork source = net;

    const ExtractStats stats = extract_divisors(net);
    EXPECT_EQ(stats.divisors_extracted, 1) << width;
    const sop::SopNetwork::NodeId ext0 = net.find("ext0");
    ASSERT_NE(ext0, sop::SopNetwork::kInvalidNode) << width;
    EXPECT_EQ(net.node(ext0).cover, sop::Cover({bc_b, bc_c})) << width;
    // f = a ext0 + x..., g = d ext0, ext0 = b + c.
    EXPECT_EQ(stats.literals_before, width + 5) << width;
    EXPECT_EQ(stats.literals_after, width + 3) << width;
    EXPECT_EQ(net.total_literals(), width + 3) << width;
    EXPECT_TRUE(sim::equivalent(sim::design_of(source), sim::design_of(net)))
        << width;
  }
}

/// The ext nodes' covers in creation order, by node name.
std::string ext_covers_text(const sop::SopNetwork& net, int divisors) {
  std::string text;
  for (int i = 0; i < divisors; ++i) {
    const sop::SopNetwork::NodeId id = net.find("ext" + std::to_string(i));
    text += net.node(id).name;
    text += ':';
    for (const sop::Cube& cube : net.node(id).cover.cubes()) {
      for (const sop::Literal lit : cube.literals()) {
        if (sop::literal_negated(lit)) text += '!';
        text += net.node(sop::literal_var(lit)).name;
        text += ' ';
      }
      text += '|';
    }
    text += ';';
  }
  return text;
}

TEST(Extract, PinsTheDivisorSequenceOnEveryBenchmark) {
  // Divisors extracted, literals after the whole script, and an FNV-1a
  // digest of ext_covers_text as extraction leaves it, recorded with
  // the round-by-round extractor that rebuilt and re-scored every
  // candidate each round. A change in candidate order or tie-breaking
  // fails here under the circuit's name.
  struct Pin {
    const char* name;
    int divisors;
    int literals;
    const char* digest;
  };
  const Pin pins[] = {
      {"9symml", 19, 92, "c512f76508495e60"},
      {"alu2", 47, 284, "239e89f657f23468"},
      {"alu4", 87, 511, "3e56c90bace0984c"},
      {"des", 157, 1709, "f95e447e769a910f"},
      {"k2", 91, 2299, "a7aa6bd95389287d"},
      {"apex6", 0, 1951, "cbf29ce484222325"},
      {"apex7", 0, 685, "cbf29ce484222325"},
      {"count", 0, 96, "cbf29ce484222325"},
      {"frg1", 0, 326, "cbf29ce484222325"},
      {"frg2", 0, 2200, "cbf29ce484222325"},
      {"pair", 0, 576, "cbf29ce484222325"},
      {"rot", 0, 640, "cbf29ce484222325"},
  };
  for (const Pin& pin : pins) {
    sop::SopNetwork net = mcnc::generate(pin.name);
    // The passes of opt::optimize, in its order.
    sweep(net);
    simplify_covers(net);
    const ExtractStats stats = extract_divisors(net);
    EXPECT_EQ(stats.divisors_extracted, pin.divisors) << pin.name;
    EXPECT_EQ(base::fnv1a64_hex(
                  ext_covers_text(net, stats.divisors_extracted)),
              pin.digest)
        << pin.name;
    simplify_covers(net);
    sweep(net);
    EXPECT_EQ(net.total_literals(), pin.literals) << pin.name;
  }
}

TEST(Decompose, BuildsAndOrGatesWithPolarities) {
  // y = a!b + c  ->  OR(AND(a, !b), c).
  const sop::SopNetwork net = from_blif(
      ".model m\n.inputs a b c\n.outputs y\n"
      ".names a b c y\n10- 1\n--1 1\n.end\n");
  const net::Network out = decompose_to_and_or(net);
  EXPECT_EQ(out.num_gates(), 2);
  EXPECT_TRUE(sim::equivalent(sim::design_of(net), sim::design_of(out)));
}

TEST(Decompose, HandlesWiresConstantsAndNegatedOutputs) {
  // y = !a (wire), z = a + !a (const 1), w = a & !a (const 0).
  sop::SopNetwork net = from_blif(
      ".model m\n.inputs a b\n.outputs y z w\n"
      ".names a y\n0 1\n"
      ".names a z\n0 1\n1 1\n"
      ".names a aw\n1 1\n.names aw w0\n0 1\n.names a w0 w\n11 1\n.end\n");
  const net::Network out = decompose_to_and_or(net);
  EXPECT_TRUE(sim::equivalent(sim::design_of(net), sim::design_of(out)));
  // y is a negated PI reference: no gate needed.
  bool found_y = false;
  for (const net::Output& o : out.outputs()) {
    if (o.name == "y") {
      found_y = true;
      EXPECT_FALSE(o.is_const);
      EXPECT_TRUE(o.negated);
    }
    if (o.name == "z") {
      EXPECT_TRUE(o.is_const && o.const_value);
    }
    if (o.name == "w") {
      EXPECT_TRUE(o.is_const && !o.const_value);
    }
  }
  EXPECT_TRUE(found_y);
}

TEST(Decompose, SharesStructurallyIdenticalGates) {
  // Two nodes with the same cube over the same fanins share one AND.
  const sop::SopNetwork net = from_blif(
      ".model m\n.inputs a b c\n.outputs y z\n"
      ".names a b c y\n11- 1\n--1 1\n"
      ".names a b c z\n11- 1\n--0 1\n.end\n");
  const net::Network out = decompose_to_and_or(net);
  // AND(a,b) appears once, plus two OR roots.
  EXPECT_EQ(out.num_gates(), 3);
}

TEST(Script, OptimizesBenchmarksAndPreservesFunction) {
  for (const char* name : {"count", "alu2", "frg1"}) {
    const sop::SopNetwork source = mcnc::generate(name);
    const OptimizedDesign design = optimize(source);
    EXPECT_TRUE(sim::equivalent(sim::design_of(source),
                                sim::design_of(design.sop)))
        << name;
    EXPECT_TRUE(sim::equivalent(sim::design_of(source),
                                sim::design_of(design.network)))
        << name;
    EXPECT_LE(design.stats.literals, source.total_literals()) << name;
    EXPECT_GE(design.network.num_gates(), 1) << name;
  }
}

}  // namespace
}  // namespace chortle::opt
