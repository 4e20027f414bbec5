// Reproduces Table 1 of the paper: Chortle vs the MIS II-style
// baseline on the MCNC-89 benchmark substitutes at K=2.
#include "sweep.hpp"

int main(int argc, char** argv) {
  return chortle::bench::run_table(2, "Table 1", argc, argv);
}
