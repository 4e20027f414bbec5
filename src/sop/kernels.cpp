#include "sop/kernels.hpp"

#include <algorithm>
#include <bit>
#include <set>

namespace chortle::sop {
namespace {

using Word = PackedCover::Word;

/// Kernel recursion on packed cubes. A cover is a flat run of cubes of
/// `width` words each (positive masks, then negative masks); literal
/// 2j + phase is bit j of the positive (phase 0) or negative (phase 1)
/// mask, so literal order is local-index order, as in the Cube layout.
class KernelFinder {
 public:
  KernelFinder(int words, const KernelVisitor& visit)
      : words_(static_cast<std::size_t>(words)), width_(2 * words_),
        visit_(visit) {}

  void run(std::vector<Word> cubes) {
    std::vector<Word> cover = scc_minimized(cubes);
    std::vector<Word> common = common_cube(cover);
    remove(cover, common);
    if (cover.size() >= 2 * width_) visit_(cover, common);
    recurse(cover, common, /*min_literal=*/-1);
  }

 private:
  std::size_t count(const std::vector<Word>& cover) const {
    return cover.size() / width_;
  }
  const Word* cube(const std::vector<Word>& cover, std::size_t i) const {
    return cover.data() + i * width_;
  }

  bool contains(const Word* cube, const Word* other) const {
    return packed_contains({cube, width_}, {other, width_});
  }

  /// The cover without duplicate cubes and cubes that contain another
  /// cube (single-cube containment), in input order.
  std::vector<Word> scc_minimized(const std::vector<Word>& cover) const {
    std::vector<Word> kept;
    const std::size_t n = count(cover);
    for (std::size_t i = 0; i < n; ++i) {
      const Word* c = cube(cover, i);
      bool redundant = false;
      for (std::size_t j = 0; j < n && !redundant; ++j) {
        if (j == i || !contains(c, cube(cover, j))) continue;
        // Equal cubes: keep the first.
        redundant = j < i || !contains(cube(cover, j), c);
      }
      if (!redundant) kept.insert(kept.end(), c, c + width_);
    }
    return kept;
  }

  /// Literals shared by every cube (all-zero for the empty cover).
  std::vector<Word> common_cube(const std::vector<Word>& cover) const {
    std::vector<Word> common(width_, 0);
    if (cover.empty()) return common;
    std::copy_n(cover.begin(), width_, common.begin());
    for (std::size_t i = 1; i < count(cover); ++i)
      for (std::size_t w = 0; w < width_; ++w)
        common[w] &= cover[i * width_ + w];
    return common;
  }

  void remove(std::vector<Word>& cover, const std::vector<Word>& cube) const {
    for (std::size_t i = 0; i < cover.size(); ++i)
      cover[i] &= ~cube[i % width_];
  }

  void recurse(const std::vector<Word>& cover,
               const std::vector<Word>& co_kernel, int min_literal) {
    // Literals that occur in at least two cubes.
    std::vector<Word> once(width_, 0);
    std::vector<Word> twice(width_, 0);
    for (std::size_t i = 0; i < count(cover); ++i)
      for (std::size_t w = 0; w < width_; ++w) {
        const Word bits = cover[i * width_ + w];
        twice[w] |= once[w] & bits;
        once[w] |= bits;
      }
    std::vector<Word> quotient;
    for (std::size_t w = 0; w < words_; ++w) {
      Word vars = twice[w] | twice[words_ + w];
      while (vars != 0) {
        const int bit = std::countr_zero(vars);
        vars &= vars - 1;
        const int var = static_cast<int>(64 * w) + bit;
        for (std::size_t phase = 0; phase < 2; ++phase) {
          const std::size_t word = phase * words_ + w;
          if (((twice[word] >> bit) & 1) == 0) continue;
          const int literal = 2 * var + static_cast<int>(phase);
          if (literal <= min_literal) continue;
          const Word mask = Word{1} << bit;
          quotient.clear();
          for (std::size_t i = 0; i < count(cover); ++i) {
            const Word* c = cube(cover, i);
            if ((c[word] & mask) == 0) continue;
            quotient.insert(quotient.end(), c, c + width_);
            quotient[quotient.size() - width_ + word] &= ~mask;
          }
          std::vector<Word> kernel = scc_minimized(quotient);
          const std::vector<Word> extra = common_cube(kernel);
          // Pruning rule: if the quotient's common cube holds a literal
          // smaller than `literal` (a variable below `var`: var itself
          // cannot occur), this kernel is reached through that literal.
          if (has_variable_below(extra, var)) continue;
          remove(kernel, extra);
          std::vector<Word> deeper = co_kernel;
          deeper[word] |= mask;
          for (std::size_t k = 0; k < width_; ++k) deeper[k] |= extra[k];
          if (kernel.size() >= 2 * width_) visit_(kernel, deeper);
          recurse(kernel, deeper, literal);
        }
      }
    }
  }

  bool has_variable_below(const std::vector<Word>& cube, int var) const {
    const std::size_t full = static_cast<std::size_t>(var / 64);
    for (std::size_t w = 0; w <= full && w < words_; ++w) {
      Word bits = cube[w] | cube[words_ + w];
      if (w == full) bits &= (Word{1} << (var % 64)) - 1;
      if (bits != 0) return true;
    }
    return false;
  }

  std::size_t words_;
  std::size_t width_;
  const KernelVisitor& visit_;
};

std::vector<Cube> unpack_cubes(const PackedCover& packed,
                               std::span<const Word> cubes) {
  const auto width = static_cast<std::size_t>(packed.cube_words());
  std::vector<Cube> result;
  std::vector<Literal> literals;
  for (std::size_t pos = 0; pos < cubes.size(); pos += width) {
    packed.unpack(cubes.subspan(pos, width), literals);
    result.emplace_back(literals);
  }
  return result;
}

}  // namespace

void for_each_kernel(const PackedCover& cover, const KernelVisitor& visit) {
  std::vector<Word> cubes;
  cubes.reserve(static_cast<std::size_t>(cover.num_cubes()) *
                static_cast<std::size_t>(cover.cube_words()));
  for (int i = 0; i < cover.num_cubes(); ++i) {
    const std::span<const Word> c = cover.cube(i);
    cubes.insert(cubes.end(), c.begin(), c.end());
  }
  KernelFinder(cover.words(), visit).run(std::move(cubes));
}

std::vector<KernelEntry> find_kernels(const Cover& cover) {
  const PackedCover packed(cover);
  std::set<std::vector<Cube>> seen;
  std::vector<KernelEntry> entries;
  for_each_kernel(packed, [&](std::span<const Word> kernel,
                              std::span<const Word> co_kernel) {
    Cover canonical = Cover(unpack_cubes(packed, kernel)).scc_minimized();
    if (!seen.insert(canonical.cubes()).second) return;
    entries.push_back(
        {std::move(canonical), unpack_cubes(packed, co_kernel).front()});
  });
  return entries;
}

bool is_level0_kernel(const Cover& kernel) {
  for (const Cube& c : kernel.cubes())
    for (Literal lit : c.literals())
      if (kernel.literal_occurrences(lit) >= 2) return false;
  return true;
}

std::vector<KernelEntry> find_level0_kernels(const Cover& cover) {
  std::vector<KernelEntry> all = find_kernels(cover);
  std::vector<KernelEntry> level0;
  for (auto& entry : all)
    if (is_level0_kernel(entry.kernel)) level0.push_back(std::move(entry));
  return level0;
}

}  // namespace chortle::sop
