// Shared harness for the paper's Tables 1-4: for one value of K, run
// every MCNC-substitute benchmark through the optimization script, map
// it with the MIS-II-style baseline and with Chortle, verify both
// mappings functionally, and print the table in the paper's layout
// (circuit, #tables for each mapper, % difference, runtimes).
//
// Observability flags (also see DESIGN.md §8):
//   --stats-out PATH   write a chortle-run-report/1 JSON document
//   --trace-out PATH   enable tracing, write Chrome trace-event JSON
// Setting CHORTLE_TRACE=PATH in the environment is equivalent to
// --trace-out PATH (the flag wins when both are present).
#pragma once

namespace chortle::bench {

/// Runs and prints one results table. Returns 0 on success, 1 if any
/// mapping failed verification, 2 on a bad command line.
int run_table(int k, const char* table_name, int argc = 0,
              char** argv = nullptr);

}  // namespace chortle::bench
