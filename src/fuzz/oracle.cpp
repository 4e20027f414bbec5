#include "fuzz/oracle.hpp"

#include <exception>
#include <sstream>

#include "bdd/equiv.hpp"
#include "chortle/forest.hpp"
#include "chortle/mapper.hpp"
#include "obs/metrics.hpp"
#include "opt/script.hpp"
#include "sim/simulate.hpp"

namespace chortle::fuzz {
namespace {

std::string describe_mismatch(const sim::Mismatch& m) {
  std::ostringstream os;
  os << "output '" << m.output_name << "' differs under inputs ";
  for (bool bit : m.input_values) os << (bit ? '1' : '0');
  return os.str();
}

std::string describe_witness(const bdd::FormalOutcome& outcome) {
  std::ostringstream os;
  os << "output '" << outcome.output_name << "' differs under inputs ";
  for (bool bit : outcome.witness) os << (bit ? '1' : '0');
  return os.str();
}

/// A copy of `circuit` with one truth-table bit flipped (the injected
/// miscompile the oracle must catch). A circuit without LUTs is
/// returned unchanged.
net::LutCircuit with_injected_fault(const net::LutCircuit& circuit,
                                    const Injection& injection) {
  if (circuit.num_luts() == 0) return circuit;
  const int victim =
      injection.lut_index % circuit.num_luts();
  net::LutCircuit corrupted(circuit.k());
  for (const std::string& name : circuit.input_names())
    corrupted.add_input(name);
  for (int i = 0; i < circuit.num_luts(); ++i) {
    net::Lut lut = circuit.luts()[static_cast<std::size_t>(i)];
    if (i == victim) {
      const std::uint64_t bit =
          injection.bit_index % lut.function.num_minterms();
      lut.function.set_bit(bit, !lut.function.bit(bit));
    }
    corrupted.add_lut(std::move(lut));
  }
  for (const net::LutOutput& o : circuit.outputs()) {
    if (o.is_const)
      corrupted.add_const_output(o.name, o.const_value);
    else
      corrupted.add_output(o.name, o.signal, o.negated);
  }
  return corrupted;
}

class OracleRun {
 public:
  OracleRun(const FuzzCase& fuzz_case, const OracleOptions& options)
      : case_(fuzz_case), options_(options) {}

  Verdict run() {
    try {
      case_.network.check();
      case_.options.validate();
    } catch (const std::exception& error) {
      fail("case", "exception", error.what());
      return verdict_;
    }

    opt::OptimizedDesign design;
    try {
      design = opt::optimize(case_.network);
      check_against_source("optimize", sim::design_of(design.network));
      check_forest_invariants(design.network);
    } catch (const std::exception& error) {
      fail("optimize", "exception", error.what());
      return verdict_;
    }

    for (const core::IMapper* mapper : case_.backends) {
      ++verdict_.backends_run;
      OBS_COUNT("fuzz.backend_runs", 1);
      try {
        run_backend(*mapper, design.network);
      } catch (const std::exception& error) {
        fail(mapper->name(), "exception", error.what());
      }
    }
    return verdict_;
  }

 private:
  void fail(const std::string& stage, const std::string& kind,
            const std::string& detail) {
    // The counter name depends on the runtime failure kind, so this
    // goes through the registry directly rather than OBS_COUNT (whose
    // per-call-site MetricId cache assumes one fixed name).
    if constexpr (obs::kObsEnabled) {
      auto& registry = obs::Registry::global();
      registry.add(registry.counter("fuzz.disagree." + kind), 1);
    }
    verdict_.failures.push_back(Failure{stage, kind, detail});
  }

  /// Simulation (and, when feasible, BDD) comparison of `mapped`
  /// against the original source network.
  void check_against_source(const std::string& stage,
                            const sim::Design& mapped) {
    sim::EquivalenceOptions sim_options;
    sim_options.random_words = options_.sim_random_words;
    sim_options.seed = 0x5EEDull;
    const auto mismatch =
        sim::find_mismatch(sim::design_of(case_.network), mapped,
                           sim_options);
    if (mismatch) fail(stage, "sim-mismatch", describe_mismatch(*mismatch));
  }

  void check_bdd_against_source(const std::string& stage,
                                const net::LutCircuit& circuit) {
    if (static_cast<int>(case_.network.inputs().size()) >
        options_.bdd_input_limit)
      return;
    verdict_.bdd_attempted = true;
    const bdd::FormalOutcome outcome = bdd::check_equivalence(
        case_.network, circuit, options_.bdd_max_nodes);
    if (outcome.status == bdd::FormalOutcome::Status::kDifferent)
      fail(stage, "bdd-different", describe_witness(outcome));
    // kInconclusive: simulation already sampled the pair; not a failure.
  }

  /// Paper §3: the forest partition must place every live gate in
  /// exactly one tree, and every non-root tree gate must be read by
  /// exactly one fanin edge and no primary output (fanout-free trees).
  /// References are counted among live readers only — the decomposed
  /// mapper input may contain dead shared gates, which the forest
  /// rightly ignores.
  void check_forest_invariants(const net::Network& network) {
    const core::Forest forest = core::build_forest(network);
    std::vector<int> refs(static_cast<std::size_t>(network.num_nodes()), 0);
    for (net::NodeId id = 0; id < network.num_nodes(); ++id) {
      if (network.is_input(id) ||
          !forest.is_live[static_cast<std::size_t>(id)])
        continue;
      for (const net::Fanin& fanin : network.node(id).fanins)
        ++refs[static_cast<std::size_t>(fanin.node)];
    }
    for (const net::Output& output : network.outputs())
      if (!output.is_const) ++refs[static_cast<std::size_t>(output.node)];
    std::vector<int> seen(static_cast<std::size_t>(network.num_nodes()), 0);
    for (const core::Tree& tree : forest.trees) {
      if (tree.gates.empty() || tree.gates.back() != tree.root) {
        fail("forest", "structure", "tree root is not its last gate");
        return;
      }
      for (net::NodeId gate : tree.gates) {
        ++seen[static_cast<std::size_t>(gate)];
        if (gate == tree.root) continue;
        if (refs[static_cast<std::size_t>(gate)] != 1) {
          std::ostringstream os;
          os << "non-root gate " << gate << " of tree " << tree.root
             << " has " << refs[static_cast<std::size_t>(gate)]
             << " references (trees must be fanout-free)";
          fail("forest", "structure", os.str());
        }
      }
    }
    for (net::NodeId id = 0; id < network.num_nodes(); ++id) {
      if (network.is_input(id)) continue;
      const bool live = forest.is_live[static_cast<std::size_t>(id)];
      const int count = seen[static_cast<std::size_t>(id)];
      if (live != (count == 1)) {
        std::ostringstream os;
        os << "gate " << id << " is " << (live ? "live" : "dead")
           << " but appears in " << count << " trees";
        fail("forest", "structure", os.str());
      }
    }
  }

  /// Invariants every mapped circuit must satisfy regardless of backend.
  void check_structure(const std::string& stage,
                       const net::LutCircuit& circuit, int reported_luts) {
    circuit.check();
    if (circuit.k() != case_.options.k) {
      fail(stage, "structure", "circuit K does not match the requested K");
      return;
    }
    for (const net::Lut& lut : circuit.luts()) {
      if (static_cast<int>(lut.inputs.size()) > case_.options.k) {
        fail(stage, "structure",
             "LUT '" + lut.name + "' has more than K inputs");
        return;
      }
    }
    if (reported_luts != circuit.num_luts()) {
      std::ostringstream os;
      os << "reported " << reported_luts << " LUTs but the circuit has "
         << circuit.num_luts();
      fail(stage, "lut-count", os.str());
    }
  }

  void check_circuit(const std::string& stage,
                     const net::LutCircuit& circuit, int reported_luts) {
    check_structure(stage, circuit, reported_luts);
    check_against_source(stage, sim::design_of(circuit));
    check_bdd_against_source(stage, circuit);
  }

  /// Maps through the registry facade and holds the cover to the full
  /// battery, plus the guarantees that belong to one mapper by name.
  void run_backend(const core::IMapper& mapper,
                   const net::Network& mapper_input) {
    const std::string stage = mapper.name();
    const bool chortle = stage == "chortle";
    core::MapResult result = mapper.map(mapper_input, case_.options);
    if (chortle && options_.injection.enabled)
      result.circuit = with_injected_fault(result.circuit, options_.injection);
    check_circuit(stage, result.circuit, result.stats.num_luts);

    if (chortle && case_.options.duplicate_fanout_logic &&
        !options_.injection.enabled) {
      // Cost-driven duplication (§5) only ever accepts a replication
      // that the exact tree DP proves profitable, so enabling it can
      // never increase the LUT count.
      core::Options plain = case_.options;
      plain.duplicate_fanout_logic = false;
      const core::MapResult without = mapper.map(mapper_input, plain);
      if (result.stats.num_luts > without.stats.num_luts) {
        std::ostringstream os;
        os << "duplication increased LUT count: " << result.stats.num_luts
           << " > " << without.stats.num_luts;
        fail(stage, "lut-count", os.str());
      }
    }
    if (stage == "portfolio") {
      // Under the LUT objective the raced/stitched cover is never worse
      // than plain chortle, because chortle is the fallback and ties
      // break toward it. The default race has no budget, so every racer
      // runs to completion and the case stays deterministic.
      const core::MapResult plain =
          core::map_network(mapper_input, case_.options);
      if (result.stats.num_luts > plain.stats.num_luts) {
        std::ostringstream os;
        os << "portfolio (winner " << result.stats.portfolio_winner
           << ") used " << result.stats.num_luts
           << " LUTs, worse than plain chortle's " << plain.stats.num_luts;
        fail(stage, "lut-count", os.str());
      }
    }
  }

  const FuzzCase& case_;
  const OracleOptions& options_;
  Verdict verdict_;
};

}  // namespace

std::string Verdict::summary() const {
  if (failures.empty()) return "ok";
  std::ostringstream os;
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) os << "; ";
    os << failures[i].stage << "/" << failures[i].kind << ": "
       << failures[i].detail;
  }
  return os.str();
}

Verdict check_case(const FuzzCase& fuzz_case, const OracleOptions& options) {
  return OracleRun(fuzz_case, options).run();
}

}  // namespace chortle::fuzz
