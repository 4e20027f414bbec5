#include "sop/packed_cover.hpp"

#include <algorithm>
#include <bit>

#include "base/check.hpp"

namespace chortle::sop {
namespace {

using Word = PackedCover::Word;

std::size_t hash_words(std::span<const Word> words) {
  std::uint64_t hash = 0x9E3779B97F4A7C15ull;
  for (const Word w : words) {
    hash ^= w + 0x9E3779B97F4A7C15ull + (hash << 6) + (hash >> 2);
    hash *= 0xFF51AFD7ED558CCDull;
  }
  return static_cast<std::size_t>(hash ^ (hash >> 29));
}

/// Local literal 2j + phase of the lowest set bit of word `w` of a
/// packed cube with `words` words per mask.
std::size_t lowest_literal(std::size_t w, Word bits, std::size_t words) {
  const std::size_t j =
      64 * (w % words) + static_cast<std::size_t>(std::countr_zero(bits));
  return 2 * j + w / words;
}

}  // namespace

PackedCover::PackedCover(const Cover& cover)
    : support_(cover.support()),
      words_(std::max<int>(1, (static_cast<int>(support_.size()) + 63) / 64)),
      num_cubes_(cover.num_cubes()),
      bits_(static_cast<std::size_t>(num_cubes_) * cube_words(), 0),
      multiplicity_(static_cast<std::size_t>(num_cubes_), 0),
      column_words_(std::max(1, (num_cubes_ + 63) / 64)),
      distinct_bits_(static_cast<std::size_t>(column_words_), 0),
      columns_(2 * support_.size() * static_cast<std::size_t>(column_words_),
               0) {
  std::size_t capacity = 4;
  while (capacity < 2 * static_cast<std::size_t>(num_cubes_)) capacity *= 2;
  slots_.assign(capacity, -1);
  for (int i = 0; i < num_cubes_; ++i) {
    const std::span<Word> out{
        bits_.data() + static_cast<std::size_t>(i) * cube_words(),
        static_cast<std::size_t>(cube_words())};
    CHORTLE_CHECK(pack(cover.cube(i).literals(), out));
    std::size_t slot = hash_words(out) & (capacity - 1);
    while (slots_[slot] >= 0 && !std::ranges::equal(cube(slots_[slot]), out))
      slot = (slot + 1) & (capacity - 1);
    if (slots_[slot] < 0) {
      slots_[slot] = i;
      distinct_bits_[static_cast<std::size_t>(i / 64)] |= Word{1} << (i % 64);
      const auto words = static_cast<std::size_t>(words_);
      for (std::size_t w = 0; w < out.size(); ++w)
        for (Word bits = out[w]; bits != 0; bits &= bits - 1)
          columns_[lowest_literal(w, bits, words) *
                       static_cast<std::size_t>(column_words_) +
                   static_cast<std::size_t>(i / 64)] |= Word{1} << (i % 64);
    }
    ++multiplicity_[static_cast<std::size_t>(slots_[slot])];
  }
}

int PackedCover::find(std::span<const Word> packed) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t slot = hash_words(packed) & mask; slots_[slot] >= 0;
       slot = (slot + 1) & mask)
    if (std::ranges::equal(cube(slots_[slot]), packed)) return slots_[slot];
  return -1;
}

void PackedCover::containing(std::span<const Word> packed,
                             std::span<Word> out) const {
  const auto column_words = static_cast<std::size_t>(column_words_);
  const auto words = static_cast<std::size_t>(words_);
  std::copy(distinct_bits_.begin(), distinct_bits_.end(), out.begin());
  for (std::size_t w = 0; w < packed.size(); ++w)
    for (Word bits = packed[w]; bits != 0; bits &= bits - 1) {
      const Word* column =
          columns_.data() + lowest_literal(w, bits, words) * column_words;
      for (std::size_t k = 0; k < column_words; ++k) out[k] &= column[k];
    }
}

int PackedCover::local_index(int var) const {
  const auto it = std::lower_bound(support_.begin(), support_.end(), var);
  if (it == support_.end() || *it != var) return -1;
  return static_cast<int>(it - support_.begin());
}

bool PackedCover::pack(std::span<const Literal> literals,
                       std::span<Word> out) const {
  for (const Literal lit : literals) {
    const int j = local_index(literal_var(lit));
    if (j < 0) return false;
    const int offset = literal_negated(lit) ? words_ : 0;
    out[static_cast<std::size_t>(offset + j / 64)] |= Word{1} << (j % 64);
  }
  return true;
}

void PackedCover::unpack(std::span<const Word> packed,
                         std::vector<Literal>& out) const {
  out.clear();
  for (int w = 0; w < words_; ++w) {
    const Word neg = packed[static_cast<std::size_t>(words_ + w)];
    Word any = packed[static_cast<std::size_t>(w)] | neg;
    while (any != 0) {
      const int bit = std::countr_zero(any);
      any &= any - 1;
      const int var = support_[static_cast<std::size_t>(64 * w + bit)];
      out.push_back(make_literal(var, ((neg >> bit) & 1) != 0));
    }
  }
}

int division_saving(const PackedCover& cover, std::span<const Word> divisor,
                    std::vector<Word>& scratch) {
  // A quotient cube q is disjoint from every divisor literal, and q * d
  // is a cube of F for every divisor cube d, so each distinct q comes
  // from exactly one distinct cube of F that contains the first divisor
  // cube d_0. Repeated cubes of F count as Cover::divide counts them: q
  // occurs min over d of mult(q * d) times in Q, and every copy of
  // each q * d leaves R.
  const auto width = static_cast<std::size_t>(cover.cube_words());
  const std::size_t cubes = divisor.size() / width;
  scratch.resize(3 * width + static_cast<std::size_t>(cover.column_words()));
  const std::span<Word> all{scratch.data(), width};
  const std::span<Word> quotient{scratch.data() + width, width};
  const std::span<Word> product{scratch.data() + 2 * width, width};
  const std::span<Word> holders{scratch.data() + 3 * width,
                                scratch.size() - 3 * width};
  const std::span<const Word> first = divisor.first(width);
  const int first_size = packed_size(first);
  cover.containing(first, holders);
  if (cubes == 1) {
    int copies = 0;
    for (std::size_t hw = 0; hw < holders.size(); ++hw)
      for (Word bits = holders[hw]; bits != 0; bits &= bits - 1)
        copies += cover.multiplicity(static_cast<int>(64 * hw) +
                                     std::countr_zero(bits));
    return copies * (first_size - 1);
  }
  std::fill(all.begin(), all.end(), Word{0});
  for (std::size_t k = 0; k < cubes; ++k)
    for (std::size_t w = 0; w < width; ++w) all[w] |= divisor[k * width + w];
  int saving = 0;
  for (std::size_t hw = 0; hw < holders.size(); ++hw)
    for (Word bits = holders[hw]; bits != 0; bits &= bits - 1) {
      const int i = static_cast<int>(64 * hw) + std::countr_zero(bits);
      const std::span<const Word> cube = cover.cube(i);
      bool disjoint = true;
      for (std::size_t w = 0; w < width; ++w) {
        quotient[w] = cube[w] & ~first[w];
        if ((quotient[w] & all[w]) != 0) disjoint = false;
      }
      if (!disjoint) continue;
      const int quotient_size = packed_size(quotient);
      int copies = cover.multiplicity(i);
      int removed = copies * (quotient_size + first_size);
      bool divides = true;
      for (std::size_t k = 1; k < cubes && divides; ++k) {
        const std::span<const Word> d = divisor.subspan(k * width, width);
        for (std::size_t w = 0; w < width; ++w)
          product[w] = quotient[w] | d[w];
        const int j = cover.find(product);
        divides = j >= 0;
        if (!divides) break;
        copies = std::min(copies, cover.multiplicity(j));
        removed += cover.multiplicity(j) * (quotient_size + packed_size(d));
      }
      if (divides) saving += removed - copies * (quotient_size + 1);
    }
  return saving;
}

int packed_size(std::span<const Word> cube) {
  int size = 0;
  for (const Word w : cube) size += std::popcount(w);
  return size;
}

bool packed_contains(std::span<const Word> cube,
                     std::span<const Word> divisor) {
  for (std::size_t w = 0; w < cube.size(); ++w)
    if ((cube[w] & divisor[w]) != divisor[w]) return false;
  return true;
}

}  // namespace chortle::sop
