// Reproduces Table 4 of the paper: Chortle vs the MIS II-style
// baseline on the MCNC-89 benchmark substitutes at K=5.
#include "sweep.hpp"

int main(int argc, char** argv) {
  return chortle::bench::run_table(5, "Table 4", argc, argv);
}
