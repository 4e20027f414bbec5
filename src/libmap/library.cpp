#include "libmap/library.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <mutex>

#include "base/check.hpp"
#include "truth/canonical.hpp"

namespace chortle::libmap {
namespace {

using truth::TruthTable;

/// Re-expresses `t` over exactly its support: support variables are
/// moved (order-preserving) to slots 0..s-1 and the arity shrunk to s.
TruthTable compact(const TruthTable& t) {
  const std::vector<int> support = t.support();
  if (static_cast<int>(support.size()) == t.num_vars()) return t;
  std::vector<int> perm(static_cast<std::size_t>(t.num_vars()));
  int next_support = 0;
  int next_rest = static_cast<int>(support.size());
  for (int v = 0; v < t.num_vars(); ++v) {
    const bool in_support =
        std::binary_search(support.begin(), support.end(), v);
    perm[static_cast<std::size_t>(v)] = in_support ? next_support++
                                                   : next_rest++;
  }
  return t.permute(perm).shrink_to_support_prefix();
}

}  // namespace

void Library::add_cell(const truth::TruthTable& function) {
  const int m = function.num_vars();
  CHORTLE_CHECK(m >= 1 && m <= k_ && m <= 6);
  CHORTLE_CHECK(static_cast<int>(function.support().size()) == m);
  // Fast path: once a class is expanded, every NPN-equivalent raw table
  // is present in by_arity_, so repeat candidates skip canonization.
  if (by_arity_[static_cast<std::size_t>(m)].count(function.low_word()) != 0)
    return;
  const TruthTable canon = truth::npn_canonical(function);
  if (!classes_[static_cast<std::size_t>(m)].insert(canon.low_word()).second)
    return;  // orbit already expanded
  auto& table = by_arity_[static_cast<std::size_t>(m)];
  const unsigned num_masks = 1u << m;
  for (unsigned mask = 0; mask < num_masks; ++mask) {
    const TruthTable flipped = function.flip_inputs(mask);
    const TruthTable complemented = ~flipped;
    for (const auto& perm : truth::all_permutations(m)) {
      table.insert(flipped.permute(perm).low_word());
      table.insert(complemented.permute(perm).low_word());
    }
  }
}

Library Library::complete(int k) {
  CHORTLE_REQUIRE(k >= 2 && k <= 4,
                  "complete libraries are only practical up to K=4 "
                  "(the paper uses them for K=2,3)");
  Library lib(k, /*complete=*/true);
  // Matching short-circuits on the complete flag; the class sets are
  // still enumerated (cheap for k <= 4) for reporting.
  for (int m = 1; m <= std::min(k, 3); ++m) {
    const std::uint64_t count = std::uint64_t{1} << (1u << m);
    for (std::uint64_t bits = 0; bits < count; ++bits) {
      const TruthTable t = TruthTable::from_bits(bits, m);
      if (t.is_const() ||
          static_cast<int>(t.support().size()) != m)
        continue;
      lib.classes_[static_cast<std::size_t>(m)].insert(
          truth::npn_canonical(t).low_word());
    }
  }
  return lib;
}

Library Library::level0_kernels(int k) {
  CHORTLE_REQUIRE(k >= 2 && k <= 6, "library K out of range");
  Library lib(k, /*complete=*/false);

  // Enumerate every two-level form with m <= k literal occurrences in
  // which no literal appears in two cubes (the level-0 kernel property;
  // note xor = ab' + a'b qualifies: a and a' are different literals).
  // Duals/complements join via NPN closure in add_cell.
  for (int m = 2; m <= k; ++m) {
    // Partitions of m into cube sizes, descending.
    std::vector<std::vector<int>> partitions;
    std::vector<int> current;
    const std::function<void(int, int)> enumerate = [&](int remaining,
                                                        int max_part) {
      if (remaining == 0) {
        partitions.push_back(current);
        return;
      }
      for (int part = std::min(remaining, max_part); part >= 1; --part) {
        current.push_back(part);
        enumerate(remaining - part, part);
        current.pop_back();
      }
    };
    enumerate(m, m);

    for (const std::vector<int>& cubes : partitions) {
      // Assign each of the m literal slots a literal id (variable * 2 +
      // phase) over at most m variables, so that each SOP is produced
      // once: a cube's literals strictly increase and never share a
      // variable, no literal is used twice, and equal-size cubes (which
      // are adjacent, the partition being descending) are ordered by
      // their first literal. The library is a union of NPN orbits, so
      // which representative of an SOP is enumerated does not matter.
      std::vector<std::size_t> cube_of;  // slot -> cube index
      std::vector<std::size_t> cube_start;
      for (std::size_t c = 0; c < cubes.size(); ++c) {
        cube_start.push_back(cube_of.size());
        cube_of.insert(cube_of.end(), static_cast<std::size_t>(cubes[c]), c);
      }
      const std::size_t num_slots = cube_of.size();
      const int num_literals = 2 * m;
      std::vector<int> slots(num_slots, 0);
      std::vector<bool> used(static_cast<std::size_t>(num_literals), false);
      const std::function<void(std::size_t)> fill = [&](std::size_t slot) {
        if (slot == num_slots) {
          // Evaluate the SOP over m variables.
          TruthTable fn = TruthTable::zeros(m);
          TruthTable term = TruthTable::ones(m);
          for (std::size_t s = 0; s < num_slots; ++s) {
            const TruthTable v = TruthTable::var(slots[s] / 2, m);
            term &= (slots[s] & 1) ? ~v : v;
            if (s + 1 == num_slots || cube_of[s + 1] != cube_of[s]) {
              fn |= term;
              term = TruthTable::ones(m);
            }
          }
          const TruthTable compacted = compact(fn);
          if (compacted.num_vars() >= 1 && !compacted.is_const())
            lib.add_cell(compacted);
          return;
        }
        const std::size_t cube = cube_of[slot];
        const bool first = slot == cube_start[cube];
        const int previous = first ? -1 : slots[slot - 1];
        int lowest = previous + 1;
        if (first && cube > 0 && cubes[cube] == cubes[cube - 1])
          lowest = slots[cube_start[cube - 1]] + 1;
        for (int lit = lowest; lit < num_literals; ++lit) {
          // Literals of one variable are adjacent ids, so with increasing
          // order a repeated variable can only follow its other phase.
          if (used[static_cast<std::size_t>(lit)] ||
              (!first && lit / 2 == previous / 2))
            continue;
          used[static_cast<std::size_t>(lit)] = true;
          slots[slot] = lit;
          fill(slot + 1);
          used[static_cast<std::size_t>(lit)] = false;
        }
      };
      fill(0);
    }
  }
  return lib;
}

bool Library::matches(const truth::TruthTable& function) const {
  CHORTLE_REQUIRE(function.num_vars() <= k_,
                  "match query exceeds library input count");
  const TruthTable compacted = compact(function);
  const int m = compacted.num_vars();
  if (m == 0) return false;  // constants are not cells
  if (complete_) return true;
  return by_arity_[static_cast<std::size_t>(m)].count(
             compacted.low_word()) != 0;
}

const Library& library_for(int k) {
  static std::mutex mu;
  static std::map<int, Library> cache;
  const std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(k);
  if (it == cache.end())
    it = cache
             .emplace(k, k <= 3 ? Library::complete(k)
                                : Library::level0_kernels(k))
             .first;
  return it->second;
}

std::vector<std::size_t> Library::class_counts() const {
  std::vector<std::size_t> counts;
  for (const auto& set : classes_) counts.push_back(set.size());
  return counts;
}

std::size_t Library::expanded_size() const {
  std::size_t total = 0;
  for (const auto& set : by_arity_) total += set.size();
  return total;
}

}  // namespace chortle::libmap
