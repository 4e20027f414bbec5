// A cover packed over its own sorted support, for the inner loops of
// divisor extraction. Bit j of a cube stands for support()[j]; a cube is
// a positive and a negative mask of words() 64-bit words each (the
// kitty::cube layout, widened to as many words as the support needs):
// bit j set in the positive mask means literal x_j, in the negative mask
// !x_j. The cover also indexes its distinct cubes with their
// multiplicities, so weak division can look a product cube up directly,
// and keeps one column per literal: a bit per cube, set on the first
// occurrence of each distinct cube holding the literal, so the cubes
// that contain a given cube are an AND of columns.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sop/cover.hpp"

namespace chortle::sop {

class PackedCover {
 public:
  using Word = std::uint64_t;

  PackedCover() = default;
  explicit PackedCover(const Cover& cover);

  /// Sorted variable ids; bit j of every mask stands for support()[j].
  const std::vector<int>& support() const { return support_; }
  /// Words per mask; a packed cube is 2 * words() words (positive
  /// mask, then negative mask).
  int words() const { return words_; }
  int cube_words() const { return 2 * words_; }

  /// Cubes in the cover's order, duplicates included.
  int num_cubes() const { return num_cubes_; }
  std::span<const Word> cube(int i) const {
    return {bits_.data() + static_cast<std::size_t>(i) * cube_words(),
            static_cast<std::size_t>(cube_words())};
  }

  /// Occurrences of cube i in the cover (meaningful for the first
  /// occurrence of each distinct cube).
  int multiplicity(int i) const {
    return multiplicity_[static_cast<std::size_t>(i)];
  }
  /// Index of the first cube equal to the packed `cube`, or -1.
  int find(std::span<const Word> cube) const;
  /// Words of a cube bit set: one bit per cube index.
  int column_words() const { return column_words_; }
  /// Sets `out` (column_words() words) to the bit set of the distinct
  /// cubes that contain every literal of the packed `cube`.
  void containing(std::span<const Word> cube, std::span<Word> out) const;

  /// ORs the cube of `literals` into `out` (cube_words() words); false
  /// when a literal's variable is outside support().
  bool pack(std::span<const Literal> literals, std::span<Word> out) const;
  /// The literals of a packed cube, ascending.
  void unpack(std::span<const Word> cube, std::vector<Literal>& out) const;

 private:
  /// Position of `var` in support(), or -1 when it is not there.
  int local_index(int var) const;

  std::vector<int> support_;
  int words_ = 1;
  int num_cubes_ = 0;
  std::vector<Word> bits_;
  std::vector<int> multiplicity_;
  std::vector<int> slots_;  // open-addressed cube index, -1 = empty
  int column_words_ = 1;
  std::vector<Word> distinct_bits_;  // first occurrences
  std::vector<Word> columns_;  // column of literal 2j + phase at
                               // (2j + phase) * column_words_
};

/// Literal saving of weak (algebraic) division of `cover` by the
/// divisor whose cubes are packed, one after another, over cover's
/// support: lits(F) - (lits(R) + lits(Q) + |Q|) for the quotient Q and
/// remainder R that Cover::divide returns, or 0 when Q is empty. The
/// divisor's cubes must be distinct. `scratch` is reused storage.
int division_saving(const PackedCover& cover,
                    std::span<const PackedCover::Word> divisor,
                    std::vector<PackedCover::Word>& scratch);

/// Popcount over a packed cube (its literal count).
int packed_size(std::span<const PackedCover::Word> cube);
/// True iff every literal of `divisor` appears in `cube`.
bool packed_contains(std::span<const PackedCover::Word> cube,
                     std::span<const PackedCover::Word> divisor);

}  // namespace chortle::sop
