#include "opt/extract.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sop/kernels.hpp"
#include "sop/packed_cover.hpp"

namespace chortle::opt {
namespace {

using sop::Cover;
using sop::Cube;
using sop::Literal;
using sop::PackedCover;
using sop::SopNetwork;
using NodeId = SopNetwork::NodeId;
using Word = PackedCover::Word;

/// Bit (var % 64) for every variable: a subset test that rejects most
/// nodes whose support cannot contain a divisor's support.
std::uint64_t signature_bit(int var) { return std::uint64_t{1} << (var % 64); }

/// The incremental extractor. Every internal node keeps its cover
/// packed and its candidate list: its kernels of at most
/// max_kernel_cubes cubes, then the common cubes (two or more literals)
/// of its cube pairs, in generation order and each once. Both are
/// rebuilt only when the node's cover changes. Candidates are interned
/// once in a table keyed by their canonical cubes; a candidate's
/// network-wide saving is computed on its first walk and from then on
/// kept exact by deltas: a rewritten node subtracts what its old cover
/// contributed and adds what its new cover contributes.
class Extractor {
 public:
  Extractor(SopNetwork& network, const ExtractOptions& options)
      : network_(network), options_(options) {}

  ExtractStats run();

 private:
  struct Candidate {
    std::uint32_t offset = 0;  // pool_: [size, literals...] per cube
    std::uint32_t length = 0;
    int cubes = 0;
    int literals = 0;
    std::uint64_t signature = 0;
    int saving = 0;   // sum of division savings; valid when known
    int holders = 0;  // node lists that hold the candidate
    int walked = -1;  // last round whose walk counted it
    int listed = -1;  // last list build that added it
    bool known = false;
  };

  struct NodeState {
    PackedCover packed;
    std::uint64_t signature = 0;
    std::vector<int> candidates;  // walk order, each once
  };

  void ensure_node_slots();
  void set_packed(NodeId id);
  void build_list(NodeId id);
  void list_add(NodeId id, std::span<const int> key);
  int intern(std::span<const int> key);
  void grow_table();
  std::span<const int> key_of(const Candidate& candidate) const {
    return {pool_.data() + candidate.offset, candidate.length};
  }
  Cover cover_of(const Candidate& candidate) const;
  /// bind() points local_ at a node's bit positions for the packing
  /// calls that follow; release() resets them to -1.
  void bind(const NodeState& node);
  void release(const NodeState& node);
  /// Packs a candidate's cubes over the bound node's support into
  /// packed_; false when the node's support does not contain the
  /// candidate's.
  bool pack(const NodeState& node, const Candidate& candidate);
  /// Division saving of a candidate at the bound node.
  int saving_at(const NodeState& node, const Candidate& candidate);
  int network_saving(const Candidate& candidate);
  int walk();
  void extract(int best, int index);

  SopNetwork& network_;
  const ExtractOptions& options_;
  std::vector<NodeState> nodes_;
  std::vector<std::vector<NodeId>> users_;  // var -> nodes that read it
  std::vector<int> local_;  // var -> bit of the bound node, else -1
  std::vector<Candidate> candidates_;
  std::vector<int> pool_;
  std::vector<int> table_;  // open-addressed candidate ids, -1 = empty
  int round_ = 0;
  int list_builds_ = 0;
  std::vector<Word> packed_;
  std::vector<Word> scratch_;
  std::vector<int> key_;
  std::vector<Literal> literals_;
  std::vector<std::vector<Literal>> kernel_cubes_;
  std::uint64_t candidates_scored_ = 0;
  std::uint64_t divisions_ = 0;
};

std::size_t hash_key(std::span<const int> key) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const int v : key) {
    hash ^= static_cast<std::uint32_t>(v);
    hash *= 0x100000001B3ull;
  }
  return static_cast<std::size_t>(hash ^ (hash >> 32));
}

void Extractor::ensure_node_slots() {
  const auto n = static_cast<std::size_t>(network_.num_nodes());
  if (nodes_.size() < n) nodes_.resize(n);
  if (users_.size() < n) users_.resize(n);
  if (local_.size() < n) local_.resize(n, -1);
}

void Extractor::set_packed(NodeId id) {
  NodeState& node = nodes_[static_cast<std::size_t>(id)];
  node.packed = PackedCover(network_.node(id).cover);
  node.signature = 0;
  for (const int var : node.packed.support()) {
    node.signature |= signature_bit(var);
    users_[static_cast<std::size_t>(var)].push_back(id);
  }
}

int Extractor::intern(std::span<const int> key) {
  if (2 * (candidates_.size() + 1) > table_.size()) grow_table();
  const std::size_t mask = table_.size() - 1;
  std::size_t slot = hash_key(key) & mask;
  for (; table_[slot] >= 0; slot = (slot + 1) & mask) {
    const int id = table_[slot];
    if (std::ranges::equal(key_of(candidates_[static_cast<std::size_t>(id)]),
                           key))
      return id;
  }
  Candidate candidate;
  candidate.offset = static_cast<std::uint32_t>(pool_.size());
  candidate.length = static_cast<std::uint32_t>(key.size());
  for (std::size_t pos = 0; pos < key.size();) {
    const int size = key[pos++];
    ++candidate.cubes;
    candidate.literals += size;
    for (int l = 0; l < size; ++l)
      candidate.signature |= signature_bit(sop::literal_var(key[pos++]));
  }
  pool_.insert(pool_.end(), key.begin(), key.end());
  const int id = static_cast<int>(candidates_.size());
  candidates_.push_back(candidate);
  table_[slot] = id;
  return id;
}

void Extractor::grow_table() {
  std::vector<int> old = std::move(table_);
  table_.assign(std::max<std::size_t>(64, 2 * old.size()), -1);
  const std::size_t mask = table_.size() - 1;
  for (const int id : old) {
    if (id < 0) continue;
    std::size_t slot =
        hash_key(key_of(candidates_[static_cast<std::size_t>(id)])) & mask;
    while (table_[slot] >= 0) slot = (slot + 1) & mask;
    table_[slot] = id;
  }
}

void Extractor::list_add(NodeId id, std::span<const int> key) {
  const int cid = intern(key);
  Candidate& candidate = candidates_[static_cast<std::size_t>(cid)];
  if (candidate.listed == list_builds_) return;
  candidate.listed = list_builds_;
  ++candidate.holders;
  nodes_[static_cast<std::size_t>(id)].candidates.push_back(cid);
}

void Extractor::build_list(NodeId id) {
  NodeState& node = nodes_[static_cast<std::size_t>(id)];
  node.candidates.clear();
  if (network_.node(id).cover.num_cubes() < 2) return;
  ++list_builds_;
  const PackedCover& packed = node.packed;
  const std::size_t width = static_cast<std::size_t>(packed.cube_words());
  sop::for_each_kernel(packed, [&](std::span<const Word> kernel,
                                   std::span<const Word>) {
    const std::size_t cubes = kernel.size() / width;
    if (cubes > static_cast<std::size_t>(options_.max_kernel_cubes)) return;
    // The key lists the cubes in Cube order, as Cover::scc_minimized
    // leaves a kernel.
    if (kernel_cubes_.size() < cubes) kernel_cubes_.resize(cubes);
    for (std::size_t k = 0; k < cubes; ++k)
      packed.unpack(kernel.subspan(k * width, width), kernel_cubes_[k]);
    std::sort(kernel_cubes_.begin(),
              kernel_cubes_.begin() + static_cast<std::ptrdiff_t>(cubes));
    key_.clear();
    for (std::size_t k = 0; k < cubes; ++k) {
      key_.push_back(static_cast<int>(kernel_cubes_[k].size()));
      key_.insert(key_.end(), kernel_cubes_[k].begin(),
                  kernel_cubes_[k].end());
    }
    list_add(id, key_);
  });
  std::vector<Word> common(width);
  for (int i = 0; i < packed.num_cubes(); ++i) {
    const std::span<const Word> a = packed.cube(i);
    for (int j = i + 1; j < packed.num_cubes(); ++j) {
      const std::span<const Word> b = packed.cube(j);
      int size = 0;
      for (std::size_t w = 0; w < width; ++w) {
        common[w] = a[w] & b[w];
        size += std::popcount(common[w]);
      }
      if (size < 2) continue;
      packed.unpack(common, literals_);
      key_.assign(1, size);
      key_.insert(key_.end(), literals_.begin(), literals_.end());
      list_add(id, key_);
    }
  }
}

Cover Extractor::cover_of(const Candidate& candidate) const {
  const std::span<const int> key = key_of(candidate);
  std::vector<Cube> cubes;
  for (std::size_t pos = 0; pos < key.size();) {
    const auto size = static_cast<std::size_t>(key[pos++]);
    cubes.emplace_back(std::vector<Literal>(
        key.begin() + static_cast<std::ptrdiff_t>(pos),
        key.begin() + static_cast<std::ptrdiff_t>(pos + size)));
    pos += size;
  }
  return Cover(std::move(cubes));
}

void Extractor::bind(const NodeState& node) {
  const std::vector<int>& support = node.packed.support();
  for (std::size_t j = 0; j < support.size(); ++j)
    local_[static_cast<std::size_t>(support[j])] = static_cast<int>(j);
}

void Extractor::release(const NodeState& node) {
  for (const int var : node.packed.support())
    local_[static_cast<std::size_t>(var)] = -1;
}

bool Extractor::pack(const NodeState& node, const Candidate& candidate) {
  if ((candidate.signature & ~node.signature) != 0) return false;
  const auto words = static_cast<std::size_t>(node.packed.words());
  const std::size_t width = 2 * words;
  packed_.assign(static_cast<std::size_t>(candidate.cubes) * width, 0);
  const std::span<const int> key = key_of(candidate);
  std::size_t pos = 0;
  for (int k = 0; k < candidate.cubes; ++k) {
    Word* const cube = packed_.data() + static_cast<std::size_t>(k) * width;
    for (int size = key[pos++]; size > 0; --size) {
      const Literal literal = key[pos++];
      const int j = local_[static_cast<std::size_t>(sop::literal_var(literal))];
      if (j < 0) return false;
      const std::size_t word =
          (sop::literal_negated(literal) ? words : 0) +
          static_cast<std::size_t>(j / 64);
      cube[word] |= Word{1} << (j % 64);
    }
  }
  return true;
}

int Extractor::saving_at(const NodeState& node, const Candidate& candidate) {
  if (!pack(node, candidate)) return 0;
  ++divisions_;
  return sop::division_saving(node.packed, packed_, scratch_);
}

int Extractor::network_saving(const Candidate& candidate) {
  // Only nodes that read every divisor variable can divide: scan the
  // readers of the rarest one.
  const std::vector<NodeId>* rarest = nullptr;
  const std::span<const int> key = key_of(candidate);
  for (std::size_t pos = 0; pos < key.size();) {
    const int size = key[pos++];
    for (int l = 0; l < size; ++l) {
      const auto& readers =
          users_[static_cast<std::size_t>(sop::literal_var(key[pos++]))];
      if (rarest == nullptr || readers.size() < rarest->size())
        rarest = &readers;
    }
  }
  int saving = 0;
  for (const NodeId id : *rarest) {
    const NodeState& node = nodes_[static_cast<std::size_t>(id)];
    bind(node);
    saving += saving_at(node, candidate);
    release(node);
  }
  return saving;
}

/// One greedy round: walks the node lists in node order, counting each
/// candidate at its first occurrence and stopping after the node at
/// which max_candidates is reached; returns the first candidate of
/// strictly greatest value (at least min_saving), or -1.
int Extractor::walk() {
  ++round_;
  int count = 0;
  int best = -1;
  int best_value = options_.min_saving - 1;
  for (NodeId id = 0; id < network_.num_nodes(); ++id) {
    if (network_.is_input(id)) continue;
    for (const int cid : nodes_[static_cast<std::size_t>(id)].candidates) {
      Candidate& candidate = candidates_[static_cast<std::size_t>(cid)];
      if (candidate.walked == round_) continue;
      candidate.walked = round_;
      ++count;
      if (!candidate.known) {
        candidate.saving = network_saving(candidate);
        candidate.known = true;
      }
      const int value = candidate.saving - candidate.literals;
      if (value > best_value) {
        best_value = value;
        best = cid;
      }
    }
    if (count >= options_.max_candidates) break;
  }
  candidates_scored_ += static_cast<std::uint64_t>(count);
  return best;
}

/// Adds divisor `best` as node ext<index>, substitutes it into every
/// node it divides, and brings the candidate state up to date.
void Extractor::extract(int best, int index) {
  const Cover divisor = cover_of(candidates_[static_cast<std::size_t>(best)]);
  const std::vector<int> divisor_support = divisor.support();
  const NodeId divisor_node =
      network_.add_node("ext" + std::to_string(index), divisor);
  ensure_node_slots();

  std::vector<std::pair<NodeId, NodeState>> changed;
  for (NodeId id = 0; id < divisor_node; ++id) {
    if (network_.is_input(id)) continue;
    const std::vector<int>& support =
        nodes_[static_cast<std::size_t>(id)].packed.support();
    if (!std::includes(support.begin(), support.end(),
                       divisor_support.begin(), divisor_support.end()))
      continue;
    const Cover& cover = network_.node(id).cover;
    const Cover rewritten =
        cover.with_divisor_replaced(divisor, divisor_node).scc_minimized();
    if (rewritten == cover) continue;
    network_.set_cover(id, rewritten);
    changed.emplace_back(id, std::move(nodes_[static_cast<std::size_t>(id)]));
  }

  // Re-pack the rewritten nodes and the new one; move their readers.
  for (auto& [id, old] : changed) {
    for (const int var : old.packed.support()) {
      auto& readers = users_[static_cast<std::size_t>(var)];
      readers.erase(std::find(readers.begin(), readers.end(), id));
    }
    set_packed(id);
  }
  set_packed(divisor_node);

  // Deltas on every known saving, one node at a time.
  const auto add_savings = [&](const NodeState& node, int sign) {
    bind(node);
    for (Candidate& candidate : candidates_)
      if (candidate.known)
        candidate.saving += sign * saving_at(node, candidate);
    release(node);
  };
  for (const auto& [id, old] : changed) {
    add_savings(old, -1);
    add_savings(nodes_[static_cast<std::size_t>(id)], +1);
  }
  add_savings(nodes_[static_cast<std::size_t>(divisor_node)], +1);

  // New candidate lists; a candidate no list holds forgets its saving.
  std::vector<int> released;
  for (auto& [id, old] : changed) {
    for (const int cid : old.candidates)
      --candidates_[static_cast<std::size_t>(cid)].holders;
    released.insert(released.end(), old.candidates.begin(),
                    old.candidates.end());
    build_list(id);
  }
  build_list(divisor_node);
  for (const int cid : released) {
    Candidate& candidate = candidates_[static_cast<std::size_t>(cid)];
    if (candidate.holders == 0) candidate.known = false;
  }
}

ExtractStats Extractor::run() {
  OBS_SPAN("opt.extract");
  ExtractStats stats;
  stats.literals_before = network_.total_literals();
  ensure_node_slots();
  for (NodeId id = 0; id < network_.num_nodes(); ++id)
    if (!network_.is_input(id)) set_packed(id);
  for (NodeId id = 0; id < network_.num_nodes(); ++id)
    if (!network_.is_input(id)) build_list(id);

  int rounds = 0;
  while (rounds < options_.max_rounds) {
    ++rounds;
    const int best = walk();
    if (best < 0) break;
    extract(best, stats.divisors_extracted++);
  }

  OBS_COUNT("opt.extract.rounds", rounds);
  OBS_COUNT("opt.extract.candidates_scored", candidates_scored_);
  OBS_COUNT("opt.extract.divisions", divisions_);
  stats.literals_after = network_.total_literals();
  return stats;
}

}  // namespace

ExtractStats extract_divisors(sop::SopNetwork& network,
                              const ExtractOptions& options) {
  return Extractor(network, options).run();
}

}  // namespace chortle::opt
