// Kernel extraction in the algebraic model (Brayton & McMullen).
// A kernel of a cover F is a cube-free quotient F / c for some cube c
// (the co-kernel). Level-0 kernels have no kernels but themselves.
//
// Used twice in this project:
//  * the MIS-substitute optimizer extracts kernel divisors to reduce
//    literal count, and
//  * the baseline mapper's incomplete K=4/5 libraries are built from
//    "all level-0 kernels with K or fewer literals and their duals"
//    exactly as described in §4.1 of the paper.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "sop/cover.hpp"
#include "sop/packed_cover.hpp"

namespace chortle::sop {

struct KernelEntry {
  Cover kernel;    // cube-free
  Cube co_kernel;  // F / co_kernel == kernel (one witness; not unique)
};

/// Receives a kernel as its cubes packed over the cover's support (in
/// no particular order) and one witness co-kernel as a packed cube.
using KernelVisitor =
    std::function<void(std::span<const PackedCover::Word> kernel,
                       std::span<const PackedCover::Word> co_kernel)>;

/// Runs the kernel recursion of find_kernels on packed cubes and visits
/// every kernel in find_kernels order, but without removing repeats:
/// a kernel reached through several co-kernels is visited each time.
void for_each_kernel(const PackedCover& cover, const KernelVisitor& visit);

/// All kernels of `cover`, including the cover itself when cube-free.
/// Duplicate kernels (same cover reached via different co-kernels) are
/// reported once.
std::vector<KernelEntry> find_kernels(const Cover& cover);

/// True iff `kernel` is level-0: no literal appears in two or more cubes.
bool is_level0_kernel(const Cover& kernel);

/// Only the level-0 kernels of `cover`.
std::vector<KernelEntry> find_level0_kernels(const Cover& cover);

}  // namespace chortle::sop
