// Reproduces Table 2 of the paper: Chortle vs the MIS II-style
// baseline on the MCNC-89 benchmark substitutes at K=3.
#include "sweep.hpp"

int main(int argc, char** argv) {
  return chortle::bench::run_table(3, "Table 2", argc, argv);
}
