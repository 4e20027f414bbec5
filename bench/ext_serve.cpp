// Load generator for the mapping service (extension: no paper analogue
// — the paper's Chortle is a one-shot batch tool). Starts an in-process
// Server on a Unix socket and drives it through four phases:
//
//   closed_loop     C clients x R back-to-back requests — saturation
//                   throughput and latency under full load.
//   open_loop       the same request count at a paced arrival rate
//                   (70% of the measured saturation rate), latency
//                   measured from the *scheduled* arrival time so a
//                   slow server cannot hide behind coordinated
//                   omission.
//   idle_adversary  closed loop again, but with workers+4 idle
//                   keep-alive connections (each parked after 4 bytes
//                   of preamble — a slowloris) held open throughout.
//                   Under blocking per-connection workers these pinned
//                   the whole pool and the phase deadlocked; under the
//                   event loop they cost a buffer each and throughput
//                   must stay in family with the unencumbered run.
//   stampede        a SECOND cold-cache server, S barrier-synced
//                   clients all mapping the same netlist at once:
//                   demonstrates single-flight request coalescing —
//                   tree solves < tree lookups, responses
//                   byte-identical (hard failure if not).
//
//   ext_serve [clients] [requests-per-client] [workers] [k]
//             [--idle-conns N] [--json-out PATH] [--check BASELINE]
//             [--tolerance X] [--stats-out PATH]
//             [--server-stats-out PATH] [-h | --help]
//
// Each positional must be a positive integer; anything else (a typo,
// an unknown flag) prints usage and exits 2. --help prints usage and
// exits 0.
//
// Defaults: 4 clients x 8 requests, 4 workers, k = 4, idle-conns =
// workers + 4. --json-out writes the chortle-serve-bench/1 document
// below; --check compares its closed-loop saturation throughput and
// p99 latency against a committed baseline (failing beyond
// --tolerance, default 0.5 — generous because CI machines are noisy);
// --stats-out writes a chortle-run-report/1 with the client-side
// histogram; --server-stats-out the raw chortle-serve-stats/1 snapshot
// pulled over the wire. Set CHORTLE_TRACE=PATH for a Chrome trace.
//
//   {
//     "schema": "chortle-serve-bench/1",
//     "config": {"clients":C,"requests_per_client":R,"workers":W,
//                "k":K,"idle_conns":N},
//     "phases": {
//       "closed_loop":    {"requests":N,"seconds":s,"throughput_rps":x,
//                          "latency":{...hdr...}},
//       "open_loop":      {"requests":N,"offered_rps":x,
//                          "achieved_rps":x,"latency":{...}},
//       "idle_adversary": {"idle_conns":N,"requests":N,"seconds":s,
//                          "throughput_rps":x,"latency":{...}},
//       "stampede":       {"requests":N,"tree_lookups":N,"solves":N,
//                          "hits":N,"coalesced":N,
//                          "byte_identical":true}
//     }
//   }
//
// Run under TSan (the tsan CI configuration builds bench/ too) this
// doubles as the concurrency acceptance check: >= 4 in-flight
// requests, an event loop racing workers, no reports.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "blif/blif.hpp"
#include "mcnc/generators.hpp"
#include "obs/histogram.hpp"
#include "obs/report.hpp"
#include "obs/serve_stats.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace chortle;
using Clock = std::chrono::steady_clock;

namespace {

/// stages.request quantiles out of a chortle-serve-stats/1 document;
/// zeros when the server reported no completed requests.
struct ServerQuantiles {
  double p50 = 0.0, p99 = 0.0, p999 = 0.0, max = 0.0;
  bool present = false;
};

ServerQuantiles server_quantiles(const obs::Json& stats) {
  ServerQuantiles q;
  const obs::Json* stages = stats.find("stages");
  const obs::Json* request =
      stages != nullptr ? stages->find("request") : nullptr;
  if (request == nullptr) return q;
  const auto number = [&](const char* name) {
    const obs::Json* value = request->find(name);
    return value != nullptr && value->is_number() ? value->as_number() : 0.0;
  };
  q.p50 = number("p50");
  q.p99 = number("p99");
  q.p999 = number("p999");
  q.max = number("max");
  q.present = true;
  return q;
}

struct PhaseResult {
  obs::Histogram::Snapshot latency;
  double wall = 0.0;
  std::map<std::string, int> failures;
  int cache_hits = 0;
  int cache_misses = 0;

  double throughput() const {
    return wall > 0.0 ? static_cast<double>(latency.count) / wall : 0.0;
  }
};

/// Drives `clients` x `requests` map requests at the server. With
/// `offered_rps` > 0 each client paces its share on an absolute
/// schedule and latency is measured from the scheduled arrival, not
/// the actual send (open-loop, no coordinated omission); otherwise
/// back-to-back (closed loop).
PhaseResult run_phase(const std::string& socket_path,
                      const std::vector<std::string>& blifs, int clients,
                      int requests, int k, double offered_rps,
                      const std::string& id_prefix) {
  obs::Histogram latency;
  std::mutex mutex;
  PhaseResult result;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client = serve::Client::connect_unix(socket_path);
      const double interval_s =
          offered_rps > 0.0 ? static_cast<double>(clients) / offered_rps : 0.0;
      for (int r = 0; r < requests; ++r) {
        // Stagger starting points so concurrent clients hit different
        // benchmarks first and the cache warms from several angles.
        const std::size_t pick =
            (static_cast<std::size_t>(c) * 3 + static_cast<std::size_t>(r)) %
            blifs.size();
        serve::MapRequest request;
        request.id = id_prefix + "c" + std::to_string(c) + "r" +
                     std::to_string(r);
        request.k = k;
        request.blif = blifs[pick];
        Clock::time_point t0 = Clock::now();
        if (interval_s > 0.0) {
          const Clock::time_point scheduled =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              (static_cast<double>(r) + 0.5) * interval_s));
          std::this_thread::sleep_until(scheduled);
          t0 = scheduled;  // open loop: queueing delay counts as latency
        }
        const serve::MapResponse response = client.map(request);
        const double seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        latency.record(seconds);
        std::lock_guard<std::mutex> lock(mutex);
        if (response.ok()) {
          result.cache_hits += response.cache_hits;
          result.cache_misses += response.cache_misses;
        } else {
          ++result.failures[response.status];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.wall = std::chrono::duration<double>(Clock::now() - start).count();
  result.latency = latency.snapshot();
  return result;
}

/// An idle keep-alive adversary: connects and parks after 4 bytes of
/// frame preamble. Under the old per-connection-worker design each of
/// these pinned a worker inside a blocking read; under the event loop
/// each costs one socket and a 4-byte buffer.
int open_idle_connection(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  (void)!::send(fd, "CSv1", 4, MSG_NOSIGNAL);  // partial preamble, then stall
  return fd;
}

obs::Json phase_json(const PhaseResult& phase) {
  obs::Json json = obs::Json::object();
  json.set("requests", static_cast<std::int64_t>(phase.latency.count));
  json.set("seconds", phase.wall);
  json.set("throughput_rps", phase.throughput());
  json.set("latency", obs::hdr_snapshot_to_json(phase.latency));
  return json;
}

void print_phase(const char* name, const PhaseResult& phase) {
  std::printf("%-15s %5llu req in %7.3f s  %8.1f req/s   "
              "p50 %7.2f  p99 %7.2f  p999 %7.2f ms\n",
              name, static_cast<unsigned long long>(phase.latency.count),
              phase.wall, phase.throughput(), phase.latency.p50() * 1e3,
              phase.latency.p99() * 1e3, phase.latency.p999() * 1e3);
  for (const auto& [status, count] : phase.failures)
    std::printf("%-15s FAILURE %s x %d\n", name, status.c_str(), count);
}

double number_in(const obs::Json& doc, const char* phase, const char* leaf,
                 bool in_latency) {
  const obs::Json* phases = doc.find("phases");
  const obs::Json* section = phases != nullptr ? phases->find(phase) : nullptr;
  if (section != nullptr && in_latency) section = section->find("latency");
  const obs::Json* value = section != nullptr ? section->find(leaf) : nullptr;
  return value != nullptr && value->is_number() ? value->as_number() : 0.0;
}

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: ext_serve [clients] [requests-per-client] "
               "[workers] [k] [--idle-conns N] [--json-out PATH] "
               "[--check BASELINE] [--tolerance X] [--stats-out PATH] "
               "[--server-stats-out PATH] [-h | --help]\n");
}

/// The whole of `text` as a positive int, or 0 when it is not one.
int parse_positive(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE || value <= 0 ||
      value > INT_MAX)
    return 0;
  return static_cast<int>(value);
}

}  // namespace

int main(int argc, char** argv) {
  int positional[4] = {4, 8, 4, 4};  // clients, requests, workers, k
  int npos = 0;
  int idle_conns = -1;
  std::string json_out;
  std::string check_baseline;
  double tolerance = 0.5;
  std::string stats_out;
  std::string server_stats_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--stats-out" && has_value) {
      stats_out = argv[++i];
    } else if (arg == "--server-stats-out" && has_value) {
      server_stats_out = argv[++i];
    } else if (arg == "--json-out" && has_value) {
      json_out = argv[++i];
    } else if (arg == "--check" && has_value) {
      check_baseline = argv[++i];
    } else if (arg == "--tolerance" && has_value) {
      tolerance = std::atof(argv[++i]);
    } else if (arg == "--idle-conns" && has_value) {
      idle_conns = std::atoi(argv[++i]);
    } else if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else if (const int value = parse_positive(arg); npos < 4 && value > 0) {
      positional[npos++] = value;
    } else {
      usage(stderr);
      return 2;
    }
  }
  const int clients = positional[0];
  const int requests = positional[1];
  const int workers = positional[2];
  const int k = positional[3];
  if (idle_conns < 0) idle_conns = workers + 4;

  const std::string trace_out = obs::trace_path_from_env();
  if (!trace_out.empty()) obs::set_trace_enabled(true);

  obs::RunReport report("ext_serve");
  report.set_option("clients", clients);
  report.set_option("requests_per_client", requests);
  report.set_option("workers", workers);
  report.set_option("k", k);
  report.set_option("idle_conns", idle_conns);

  // Pre-render the benchmark BLIF once; the bench measures the service,
  // not the generators.
  std::vector<std::string> blifs;
  for (const std::string& name : mcnc::benchmark_names())
    blifs.push_back(blif::write_blif_string(mcnc::generate(name), name));

  serve::ServerConfig config;
  config.unix_path =
      "/tmp/chortle_bench_" + std::to_string(::getpid()) + ".sock";
  config.workers = workers;
  config.queue_capacity = static_cast<std::size_t>(clients) * 2;
  serve::Server server(config);
  server.start();

  std::printf("ext_serve: %d clients x %d requests, %d workers, k=%d, %zu "
              "benchmarks, %d idle adversaries\n",
              clients, requests, workers, k, blifs.size(), idle_conns);

  // Warmup (unmeasured): one pass over every benchmark so the cold DP
  // solves land here, not inside the measured phases — otherwise the
  // closed-loop p99 is just the slowest cold solve, whose run-to-run
  // variance would swamp the --check gate. Cold-cache behaviour is
  // measured deliberately in the stampede phase instead.
  run_phase(config.unix_path, blifs, 1, static_cast<int>(blifs.size()), k,
            0.0, "wu-");

  // Phase 1 — closed loop: back-to-back requests, saturation throughput.
  const PhaseResult closed = run_phase(config.unix_path, blifs, clients,
                                       requests, k, 0.0, "cl-");
  print_phase("closed_loop", closed);

  // Phase 2 — open loop at 70% of the measured saturation rate. The
  // warmed cache makes this the steady-state latency picture.
  const double offered = std::max(closed.throughput() * 0.7, 1.0);
  const PhaseResult open = run_phase(config.unix_path, blifs, clients,
                                     requests, k, offered, "ol-");
  print_phase("open_loop", open);
  std::printf("%-15s offered %.1f req/s\n", "open_loop", offered);

  // Phase 3 — the keep-alive adversary mix: more idle connections than
  // workers, parked mid-preamble for the whole phase. The old blocking
  // design never finished this phase.
  std::vector<int> idle_fds;
  for (int i = 0; i < idle_conns; ++i) {
    const int fd = open_idle_connection(config.unix_path);
    if (fd >= 0) idle_fds.push_back(fd);
  }
  const PhaseResult adversary = run_phase(config.unix_path, blifs, clients,
                                          requests, k, 0.0, "ia-");
  print_phase("idle_adversary", adversary);
  for (const int fd : idle_fds) ::close(fd);

  // Pull the server's own view over the wire before draining — the same
  // STATS frame chortle_client --stats uses, validated on receipt.
  obs::Json server_stats;
  {
    serve::Client client = serve::Client::connect_unix(config.unix_path);
    server_stats = client.stats();
  }
  const core::DpCache::Stats cache = server.cache_stats();
  server.shutdown();

  const ServerQuantiles reported = server_quantiles(server_stats);
  if (reported.present)
    std::printf("server-reported request latency: p50 %.2f  p99 %.2f  "
                "p999 %.2f  max %.2f ms\n",
                reported.p50 * 1e3, reported.p99 * 1e3, reported.p999 * 1e3,
                reported.max * 1e3);
  std::printf("dp cache  %llu hits  %llu misses  %llu coalesced  "
              "%llu evictions  %zu bytes resident\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.coalesced),
              static_cast<unsigned long long>(cache.evictions), cache.bytes);

  // Phase 4 — stampede on a second, cold-cache server: every client
  // maps the SAME netlist, released together. Single-flight coalescing
  // must keep the solve count under the lookup count, and every
  // response must be byte-identical.
  serve::ServerConfig stampede_config;
  stampede_config.unix_path =
      "/tmp/chortle_stampede_" + std::to_string(::getpid()) + ".sock";
  stampede_config.workers = workers;
  stampede_config.queue_capacity = 64;
  serve::Server stampede_server(stampede_config);
  stampede_server.start();
  const int stampede_clients = std::max(clients, workers * 2);
  // The largest netlist: the longest solve gives concurrent identical
  // requests the widest window to pile onto one in-flight DP.
  const std::string& stampede_blif = *std::max_element(
      blifs.begin(), blifs.end(),
      [](const std::string& a, const std::string& b) {
        return a.size() < b.size();
      });
  std::vector<std::string> stampede_responses(
      static_cast<std::size_t>(stampede_clients));
  std::vector<std::string> stampede_status(
      static_cast<std::size_t>(stampede_clients));
  int stampede_coalesced = 0;
  {
    std::vector<serve::Client> connections;
    connections.reserve(static_cast<std::size_t>(stampede_clients));
    for (int c = 0; c < stampede_clients; ++c)
      connections.push_back(
          serve::Client::connect_unix(stampede_config.unix_path));
    std::atomic<int> barrier{0};
    std::mutex mutex;
    std::vector<std::thread> threads;
    for (int c = 0; c < stampede_clients; ++c) {
      threads.emplace_back([&, c] {
        barrier.fetch_add(1);
        while (barrier.load() < stampede_clients) std::this_thread::yield();
        serve::MapRequest request;
        request.id = "st-" + std::to_string(c);
        request.k = k;
        request.blif = stampede_blif;
        const serve::MapResponse response = connections[
            static_cast<std::size_t>(c)].map(request);
        stampede_status[static_cast<std::size_t>(c)] = response.status;
        stampede_responses[static_cast<std::size_t>(c)] = response.blif;
        const std::lock_guard<std::mutex> lock(mutex);
        stampede_coalesced += response.cache_coalesced;
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const core::DpCache::Stats stampede_cache = stampede_server.cache_stats();
  stampede_server.shutdown();

  bool stampede_ok = true;
  for (int c = 0; c < stampede_clients; ++c) {
    if (stampede_status[static_cast<std::size_t>(c)] != "ok") {
      std::printf("STAMPEDE FAILURE client %d: status %s\n", c,
                  stampede_status[static_cast<std::size_t>(c)].c_str());
      stampede_ok = false;
    } else if (stampede_responses[static_cast<std::size_t>(c)] !=
               stampede_responses[0]) {
      std::printf("STAMPEDE FAILURE client %d: response differs\n", c);
      stampede_ok = false;
    }
  }
  const std::uint64_t lookups = stampede_cache.hits + stampede_cache.misses +
                                stampede_cache.coalesced;
  if (stampede_ok && stampede_cache.misses >= lookups && lookups > 0) {
    std::printf("STAMPEDE FAILURE: every lookup solved fresh "
                "(no sharing at all)\n");
    stampede_ok = false;
  }
  std::printf("stampede  %d identical requests: %llu tree lookups, "
              "%llu solves, %llu hits, %llu coalesced (request-side %d), "
              "responses byte-identical: %s\n",
              stampede_clients, static_cast<unsigned long long>(lookups),
              static_cast<unsigned long long>(stampede_cache.misses),
              static_cast<unsigned long long>(stampede_cache.hits),
              static_cast<unsigned long long>(stampede_cache.coalesced),
              stampede_coalesced, stampede_ok ? "yes" : "NO");

  int exit_code = stampede_ok ? 0 : 1;
  for (const PhaseResult* phase : {&closed, &open, &adversary})
    if (!phase->failures.empty()) exit_code = 1;

  // ------------------------------------------------ artifacts + gate
  obs::Json bench = obs::Json::object();
  bench.set("schema", "chortle-serve-bench/1");
  {
    obs::Json cfg = obs::Json::object();
    cfg.set("clients", clients);
    cfg.set("requests_per_client", requests);
    cfg.set("workers", workers);
    cfg.set("k", k);
    cfg.set("idle_conns", static_cast<std::int64_t>(idle_fds.size()));
    bench.set("config", std::move(cfg));
  }
  {
    obs::Json phases = obs::Json::object();
    phases.set("closed_loop", phase_json(closed));
    obs::Json open_json = phase_json(open);
    open_json.set("offered_rps", offered);
    open_json.set("achieved_rps", open.throughput());
    phases.set("open_loop", open_json);
    obs::Json adversary_json = phase_json(adversary);
    adversary_json.set("idle_conns",
                       static_cast<std::int64_t>(idle_fds.size()));
    phases.set("idle_adversary", adversary_json);
    obs::Json stampede_json = obs::Json::object();
    stampede_json.set("requests", stampede_clients);
    stampede_json.set("tree_lookups", static_cast<std::int64_t>(lookups));
    stampede_json.set("solves",
                      static_cast<std::int64_t>(stampede_cache.misses));
    stampede_json.set("hits", static_cast<std::int64_t>(stampede_cache.hits));
    stampede_json.set("coalesced",
                      static_cast<std::int64_t>(stampede_cache.coalesced));
    stampede_json.set("byte_identical", stampede_ok);
    phases.set("stampede", stampede_json);
    bench.set("phases", std::move(phases));
  }
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << bench.dump(2) << "\n";
    if (!out) {
      std::fprintf(stderr, "ext_serve: cannot write %s\n", json_out.c_str());
      exit_code = 1;
    }
  }
  if (!check_baseline.empty()) {
    std::ifstream in(check_baseline);
    std::stringstream buffer;
    buffer << in.rdbuf();
    obs::Json baseline;
    bool baseline_ok = false;
    if (!in) {
      std::fprintf(stderr, "ext_serve: cannot read baseline %s\n",
                   check_baseline.c_str());
    } else {
      try {
        baseline = obs::Json::parse(buffer.str());
        baseline_ok = true;
      } catch (const std::exception& error) {
        std::fprintf(stderr, "ext_serve: bad baseline %s: %s\n",
                     check_baseline.c_str(), error.what());
      }
    }
    if (!baseline_ok) {
      exit_code = 1;
    } else {
      const double base_rps =
          number_in(baseline, "closed_loop", "throughput_rps", false);
      const double base_p99 = number_in(baseline, "closed_loop", "p99", true);
      const double got_rps = closed.throughput();
      const double got_p99 = closed.latency.p99();
      if (base_rps > 0.0 && got_rps < base_rps * (1.0 - tolerance)) {
        std::printf("CHECK FAILURE closed_loop throughput %.1f req/s < "
                    "baseline %.1f * (1 - %.2f)\n",
                    got_rps, base_rps, tolerance);
        exit_code = 1;
      }
      if (base_p99 > 0.0 && got_p99 > base_p99 * (1.0 + tolerance)) {
        std::printf("CHECK FAILURE closed_loop p99 %.2f ms > "
                    "baseline %.2f * (1 + %.2f)\n",
                    got_p99 * 1e3, base_p99 * 1e3, tolerance);
        exit_code = 1;
      }
      if (exit_code == 0)
        std::printf("CHECK OK vs %s (tolerance %.2f): throughput %.1f vs "
                    "%.1f req/s, p99 %.2f vs %.2f ms\n",
                    check_baseline.c_str(), tolerance, got_rps, base_rps,
                    got_p99 * 1e3, base_p99 * 1e3);
    }
  }
  if (!stats_out.empty()) {
    report.set_field("client_latency",
                     obs::hdr_snapshot_to_json(closed.latency));
    report.set_field("throughput_rps", closed.throughput());
    if (!report.write_file(stats_out)) exit_code = 1;
  }
  if (!server_stats_out.empty()) {
    std::ofstream out(server_stats_out);
    out << server_stats.dump(2) << "\n";
    if (!out) {
      std::fprintf(stderr, "ext_serve: cannot write %s\n",
                   server_stats_out.c_str());
      exit_code = 1;
    }
  }
  if (!trace_out.empty() && !obs::write_chrome_trace_file(trace_out))
    exit_code = 1;
  return exit_code;
}
