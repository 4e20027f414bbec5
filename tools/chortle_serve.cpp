// chortle_serve: the long-lived mapping daemon. Speaks the frame
// protocol of src/serve/protocol.hpp over a Unix socket and/or a
// localhost TCP port, shares one tree-DP cache across all requests,
// and drains gracefully on SIGTERM/SIGINT.
//
//   chortle_serve (--unix PATH | --port N) [--workers N] [--queue N]
//                 [--max-conns N] [--idle-timeout-ms N] [--cache-mb N]
//                 [--stats-out PATH] [--stats-log-s N]
//
//   --unix PATH      listen on a Unix-domain socket at PATH
//   --port N         listen on 127.0.0.1:N (0 = ephemeral; the chosen
//                    port is printed on the READY line)
//   --workers N      concurrently *solving* requests (default 4);
//                    connections are multiplexed by the event loop and
//                    not bounded by this
//   --queue N        admission queue bound (complete requests waiting
//                    for a worker); beyond it requests are rejected
//                    with "busy" (default 16)
//   --max-conns N    open-socket budget; beyond it fresh connections
//                    are rejected with "busy" (default 1024)
//   --idle-timeout-ms N  close connections idle (or stalled mid-frame)
//                    this long; <= 0 never (default 60000)
//   --cache-mb N     DP-cache budget in MiB (default 256)
//   --stats-out P    write a chortle-run-report/1 with one row per
//                    served request on shutdown
//   --stats-log-s N  every N seconds, log a one-line summary of the
//                    live stats snapshot (served/ok, queue, cache hit
//                    rate, request p50/p99) to stderr
//
// Set CHORTLE_TRACE=PATH to record the server's per-request stage
// spans as a Chrome trace written on shutdown; merge it with a
// client-side trace via obs_check --merge-traces.
//
// Prints "READY ..." on stdout once listening (scripts wait for it or
// for the socket file), then serves until SIGTERM/SIGINT.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include <unistd.h>

#include "base/logging.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace {

// Self-pipe: the handler only writes one byte; the main thread blocks
// on the read end and runs the actual drain outside signal context.
int signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 's';
  (void)!::write(signal_pipe[1], &byte, 1);
}

void usage() {
  std::fprintf(stderr,
               "usage: chortle_serve (--unix PATH | --port N) [--workers N] "
               "[--queue N] [--max-conns N] [--idle-timeout-ms N] "
               "[--cache-mb N] [--stats-out PATH] "
               "[--stats-log-s N]\n");
}

double number_at(const chortle::obs::Json& doc, const char* outer,
                 const char* inner) {
  const chortle::obs::Json* section = doc.find(outer);
  if (section == nullptr) return 0.0;
  const chortle::obs::Json* value = section->find(inner);
  return value != nullptr && value->is_number() ? value->as_number() : 0.0;
}

/// One compact stderr line per period: enough to watch a deployment
/// without attaching a client for the full STATS snapshot.
void log_stats_line(const chortle::serve::Server& server) {
  const chortle::obs::Json doc = server.stats_json();
  const chortle::obs::Json* uptime = doc.find("uptime_seconds");
  const chortle::obs::Json* queue = doc.find("queue_depth");
  const chortle::obs::Json* in_flight = doc.find("in_flight");
  const chortle::obs::Json* conns = doc.find("open_connections");
  const chortle::obs::Json* stages = doc.find("stages");
  const chortle::obs::Json* request =
      stages != nullptr ? stages->find("request") : nullptr;
  double p50 = 0.0, p99 = 0.0;
  if (request != nullptr) {
    const chortle::obs::Json* v50 = request->find("p50");
    const chortle::obs::Json* v99 = request->find("p99");
    if (v50 != nullptr && v50->is_number()) p50 = v50->as_number();
    if (v99 != nullptr && v99->is_number()) p99 = v99->as_number();
  }
  std::fprintf(
      stderr,
      "chortle_serve: stats uptime=%.0fs served=%.0f ok=%.0f busy=%.0f "
      "conns=%.0f in_flight=%.0f queue=%.0f cache_hit_rate=%.2f "
      "p50=%.4fs p99=%.4fs\n",
      uptime != nullptr && uptime->is_number() ? uptime->as_number() : 0.0,
      number_at(doc, "requests", "served"), number_at(doc, "requests", "ok"),
      number_at(doc, "requests", "rejected_busy"),
      conns != nullptr && conns->is_number() ? conns->as_number() : 0.0,
      in_flight != nullptr && in_flight->is_number() ? in_flight->as_number()
                                                     : 0.0,
      queue != nullptr && queue->is_number() ? queue->as_number() : 0.0,
      number_at(doc, "dp_cache", "hit_rate"), p50, p99);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace chortle;
  serve::ServerConfig config;
  std::string stats_out;
  int stats_log_s = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--unix" && has_value) {
      config.unix_path = argv[++i];
    } else if (arg == "--port" && has_value) {
      config.tcp_port = std::atoi(argv[++i]);
    } else if (arg == "--workers" && has_value) {
      config.workers = std::atoi(argv[++i]);
    } else if (arg == "--queue" && has_value) {
      config.queue_capacity =
          static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--max-conns" && has_value) {
      config.max_connections =
          static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--idle-timeout-ms" && has_value) {
      config.idle_timeout_ms = std::atol(argv[++i]);
    } else if (arg == "--cache-mb" && has_value) {
      config.cache_bytes =
          static_cast<std::size_t>(std::atol(argv[++i])) << 20;
    } else if (arg == "--stats-out" && has_value) {
      stats_out = argv[++i];
    } else if (arg == "--stats-log-s" && has_value) {
      stats_log_s = std::atoi(argv[++i]);
    } else if (arg == "-h" || arg == "--help") {
      usage();
      return 0;
    } else {
      usage();
      return 2;
    }
  }
  if (config.unix_path.empty() && config.tcp_port < 0) {
    usage();
    return 2;
  }

  try {
    if (::pipe(signal_pipe) != 0) {
      std::perror("chortle_serve: pipe");
      return 1;
    }
    struct sigaction action {};
    action.sa_handler = on_signal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    ::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill us

    const std::string trace_out = obs::trace_path_from_env();
    if (!trace_out.empty()) obs::set_trace_enabled(true);

    serve::Server server(config);
    server.start();

    // Periodic stats line: a plain thread sleeping on a condition
    // variable so shutdown wakes it immediately instead of waiting out
    // the period.
    std::mutex logger_mu;
    std::condition_variable logger_cv;
    bool logger_stop = false;
    std::thread stats_logger;
    if (stats_log_s > 0)
      stats_logger = std::thread([&] {
        std::unique_lock<std::mutex> lock(logger_mu);
        while (!logger_cv.wait_for(lock, std::chrono::seconds(stats_log_s),
                                   [&] { return logger_stop; }))
          log_stats_line(server);
      });

    std::printf("READY%s%s\n",
                config.unix_path.empty()
                    ? ""
                    : (" unix:" + config.unix_path).c_str(),
                config.tcp_port < 0
                    ? ""
                    : (" tcp:127.0.0.1:" + std::to_string(server.tcp_port()))
                          .c_str());
    std::fflush(stdout);

    char byte;
    while (::read(signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    std::fprintf(stderr, "chortle_serve: draining...\n");
    if (stats_logger.joinable()) {
      {
        const std::lock_guard<std::mutex> lock(logger_mu);
        logger_stop = true;
      }
      logger_cv.notify_all();
      stats_logger.join();
    }
    server.shutdown();

    const serve::Server::Counters counts = server.counters();
    std::fprintf(stderr,
                 "chortle_serve: served %llu requests (%llu ok, %llu "
                 "deadline, %llu invalid, %llu busy-rejected)\n",
                 static_cast<unsigned long long>(counts.served),
                 static_cast<unsigned long long>(counts.ok),
                 static_cast<unsigned long long>(counts.deadline_errors),
                 static_cast<unsigned long long>(counts.invalid_requests),
                 static_cast<unsigned long long>(counts.rejected_busy));
    if (!stats_out.empty() && !server.write_report(stats_out)) return 1;
    if (!trace_out.empty() && !obs::write_chrome_trace_file(trace_out))
      return 1;
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "chortle_serve: %s\n", error.what());
    return 1;
  }
}
