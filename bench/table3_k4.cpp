// Reproduces Table 3 of the paper: Chortle vs the MIS II-style
// baseline on the MCNC-89 benchmark substitutes at K=4.
#include "sweep.hpp"

int main(int argc, char** argv) {
  return chortle::bench::run_table(4, "Table 3", argc, argv);
}
