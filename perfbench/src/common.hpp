// Shared pieces of the benchmark program: command-line settings, the
// raw result document, and small helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

namespace obs = chortle::obs;
using Clock = std::chrono::steady_clock;

/// The load shape of one workload: one row per workload, the only place
/// these numbers live. BENCHMARK.json's "why" strings repeat the
/// connection, worker and rate figures for readers.
struct Settings {
  const char* workload;
  int conns;               // client connections of the served workloads
  int workers;             // server workers (and replay threads)
  int setup_reps;          // set-up samples per run; setup_s is their median
  double open_rps;         // serve_repeat open-loop offered rate, 1/s
  int open_requests;       // serve_repeat open-loop request count
  int fresh_passes_per_s;  // serve_fresh pool: passes per timed second
  int trace_passes;        // served passes sent in the traced run
};

inline constexpr Settings kSettings[] = {
    // workload       conns workers reps  open_rps open_n fresh trace
    {"flow_mcnc",     1,    1,      3,    0.0,     0,     0,    1},
    {"serve_repeat",  4,    4,      9,    250.0,   1500,  0,    20},
    {"serve_fresh",   4,    4,      9,    0.0,     0,     20,   10},
    {"serve_signoff", 2,    2,      5,    0.0,     0,     0,    1},
};

/// Load comes from 1 to 4 connections into 1 to 4 workers, and every
/// repetition count is at least 1.
constexpr bool within_load_shape() {
  for (const Settings& row : kSettings)
    if (row.conns < 1 || row.conns > 4 || row.workers < 1 ||
        row.workers > 4 || row.setup_reps < 1 || row.trace_passes < 1)
      return false;
  return true;
}
static_assert(within_load_shape(), "a kSettings row is out of range");

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;        // raw result document (JSON)
  std::string trace_out;  // Chrome trace of the traced run
  std::string golden;     // tests/golden/lut_counts.tsv
  std::string socket;     // Unix socket path of the in-process server
  Settings settings{};    // the workload's row of kSettings
  bool digest_only = false;
};

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// serve_fresh's pool, in passes: enough for the timed window at
/// fresh_passes_per_s, whose 720 req/s is about twice the measured rate.
int fresh_pool_passes(const Args& args);

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mb();

/// Returns freed heap to the system and restarts the peak that
/// peak_rss_mb() reads from the current resident size.
void restart_peak_rss();

/// Collects failed requests: each counts once in `failed` and the first
/// few messages are kept for the report.
struct Failures {
  std::int64_t count = 0;
  std::vector<std::string> messages;
  void add(const std::string& message) {
    ++count;
    note(message);
  }
  /// Keeps the message without counting a failed request.
  void note(const std::string& message) {
    if (messages.size() < 20) messages.push_back(message);
  }
};

/// Runs `body(i)` for i in [0, n) on `threads` threads; the first
/// exception a body throws is rethrown after every thread has joined.
template <typename Body>
void parallel_for(std::size_t n, int threads, Body body);

obs::Json doubles(const std::vector<double>& values);
obs::Json strings(const std::vector<std::string>& values);

/// Entry points of the two workload families; each returns the raw
/// result document that run.py turns into metrics.
obs::Json run_flow(const Args& args, Clock::time_point process_start);
obs::Json run_served(const Args& args, Clock::time_point process_start);

}  // namespace perfbench

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

template <typename Body>
void perfbench::parallel_for(std::size_t n, int threads, Body body) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      try {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
          body(i);
      } catch (...) {
        next.store(n);
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}
