// Reconvergent-fanout ablation (paper §4.2 / §5): the paper reports
// that the only cases where MIS II beats Chortle are networks with
// reconvergent fanout ("such as XOR, which Chortle cannot find") and
// lists handling it as future work. This bench quantifies how much a
// tree-covering mapper gains when its matcher may merge cut leaves by
// signal (nonlinear/functional matching) instead of treating every
// leaf occurrence as a distinct LUT pin (linear DAGON-style matching,
// the default baseline and Chortle's own cost model).
#include <cstdio>
#include <string>

#include "chortle/mapper.hpp"
#include "libmap/library.hpp"
#include "libmap/matcher.hpp"
#include "mcnc/generators.hpp"
#include "opt/script.hpp"

using namespace chortle;

int main() {
  std::printf("Reconvergent-fanout ablation (paper 4.2/5)\n");
  std::printf("%-8s", "circuit");
  for (int k = 2; k <= 5; ++k) std::printf("   K=%d tree  K=%d recon  gain", k, k);
  std::printf("\n");

  libmap::MatchOptions structural;
  libmap::MatchOptions reconvergent;
  reconvergent.merge_reconvergent_leaves = true;

  long tree_total[6] = {0};
  long recon_total[6] = {0};
  for (const std::string& name : mcnc::benchmark_names()) {
    const opt::OptimizedDesign design = opt::optimize(mcnc::generate(name));
    std::printf("%-8s", name.c_str());
    for (int k = 2; k <= 5; ++k) {
      const libmap::Library& lib = libmap::library_for(k);
      const int tree =
          libmap::map_with_library(design.network, lib, structural)
              .stats.num_luts;
      const int recon =
          libmap::map_with_library(design.network, lib, reconvergent)
              .stats.num_luts;
      tree_total[k] += tree;
      recon_total[k] += recon;
      std::printf("  %9d  %9d %5.1f%%", tree, recon,
                  100.0 * (tree - recon) / static_cast<double>(tree));
    }
    std::printf("\n");
  }
  std::printf("%-8s", "total");
  for (int k = 2; k <= 5; ++k)
    std::printf("  %9ld  %9ld %5.1f%%", tree_total[k], recon_total[k],
                100.0 * (tree_total[k] - recon_total[k]) /
                    static_cast<double>(tree_total[k]));
  std::printf("\n\nExpected shape: large gains on XOR/MUX-structured "
              "circuits (count, rot, pair, des, alu*), small gains on "
              "control logic; the gain shrinks as K grows because wide "
              "LUTs absorb the duplicated leaves anyway.\n");
  return 0;
}
