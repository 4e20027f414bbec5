// The long-lived mapping server behind tools/chortle_serve.
//
// Threading model (DESIGN.md "Service architecture"):
//
//   event loop (all sockets) ──> bounded request queue ──> N workers
//                    ^                                          │
//                    └───────── completion queue ───────────────┘
//
// One event-loop thread owns every socket: it accepts connections,
// does non-blocking incremental frame reads into per-connection
// buffers (serve/protocol.hpp FrameAssembler), and hands only
// *complete requests* to the worker pool. Workers never touch a
// socket — they map the request and hand the encoded response bytes
// back through a completion queue; the event loop flushes them with
// non-blocking writes. Parallelism is therefore request-level, not
// connection-level: an idle keep-alive peer costs a socket and a
// buffer instead of a thread, a slow peer dribbling a frame
// (slowloris) cannot occupy a worker, and in-flight requests from many
// connections interleave freely across the pool. Responses on one
// connection stay in request order: at most one request per connection
// is in flight, later pipelined frames wait buffered.
//
// Backpressure: when the pending-request queue is full a fresh request
// is answered "busy" and the connection closed; when the open-socket
// budget is exhausted a fresh connection is rejected the same way.
// Connections idle (or stalled mid-frame) longer than the idle timeout
// are closed.
//
// All workers share one DpCache; concurrent identical trees coalesce
// into a single DP solve (DpCache::find_or_solve), so a stampede of
// clients mapping the same netlist costs one solve.
//
// Deadlines: a request's "deadline_ms" starts counting at the moment a
// worker picks the complete request up. An already-expired deadline
// returns a "deadline" error without any mapping work; one expiring
// mid-solve cancels the DP cooperatively (base::CancelToken polled in
// the tree_mapper loops) and returns the same error.
//
// Graceful drain: shutdown() stops accepting, lets every dispatched
// and already-buffered request finish, flushes the responses, then
// joins all threads. Idle keep-alive connections are closed
// immediately at drain.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "chortle/dp_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "serve/protocol.hpp"

namespace chortle::serve {

struct ServerConfig {
  /// Unix-domain listener path (empty: no unix listener). A stale
  /// socket file is unlinked on bind (a regular file at the path is
  /// refused) and the socket is unlinked again on shutdown.
  std::string unix_path;
  /// TCP listener on 127.0.0.1 (-1: none; 0: ephemeral — see
  /// Server::tcp_port() for the resolved port).
  int tcp_port = -1;
  /// Request workers == maximum concurrently *solving* requests.
  /// Connections are multiplexed by the event loop and not bounded by
  /// this.
  int workers = 4;
  /// Pending-request queue bound (complete requests waiting for a
  /// worker); beyond it requests get "busy".
  std::size_t queue_capacity = 16;
  /// Open-connection bound; beyond it fresh connections get "busy".
  std::size_t max_connections = 1024;
  /// Close connections with no traffic (including a stalled partial
  /// frame or a stalled response flush) for this long; <= 0: never.
  std::int64_t idle_timeout_ms = 60000;
  /// DpCache byte budget shared by all workers.
  std::size_t cache_bytes = std::size_t{256} << 20;
};

class Server {
 public:
  struct Counters {
    std::uint64_t accepted = 0;        // connections accepted
    std::uint64_t served = 0;          // responses written (any status)
    std::uint64_t ok = 0;
    std::uint64_t rejected_busy = 0;   // busy responses (queue or
                                       // connection budget exhausted)
    std::uint64_t deadline_errors = 0;
    std::uint64_t invalid_requests = 0;
    std::uint64_t internal_errors = 0;
    std::uint64_t stats_requests = 0;  // STATS frames answered
    std::uint64_t idle_closed = 0;     // connections reaped by timeout
    // Portfolio-backend requests (proto >= 3, --mapper=portfolio).
    std::uint64_t portfolio_requests = 0;
    std::uint64_t portfolio_won = 0;        // a racer beat the fallback
    std::uint64_t portfolio_cancelled = 0;  // racer tasks cut at close
    std::uint64_t portfolio_stitched_trees = 0;
  };

  explicit Server(ServerConfig config);
  /// Calls shutdown() if still running.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and spawns the event loop and workers. Throws
  /// std::runtime_error when a listener cannot be set up; every
  /// resource acquired before the failure (wake pipe, an
  /// already-bound listener and its socket file) is released.
  void start();

  /// Graceful drain (idempotent): stop accepting, finish dispatched
  /// and already-buffered requests, flush responses, join every
  /// thread.
  void shutdown();

  /// Resolved TCP port (meaningful after start() with tcp_port >= 0).
  int tcp_port() const { return resolved_tcp_port_; }

  Counters counters() const;
  core::DpCache::Stats cache_stats() const { return cache_.stats(); }
  /// Sockets currently owned by the event loop (includes idle
  /// keep-alive peers).
  std::size_t open_connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }
  /// Requests currently being mapped by workers (tests use this to
  /// wait for a worker to pick a request up).
  std::size_t in_flight_requests() const {
    return in_flight_requests_.load(std::memory_order_relaxed);
  }
  /// Complete requests waiting for a worker.
  std::size_t queue_depth() const;

  /// Live chortle-serve-stats/1 snapshot (what a STATS frame returns
  /// and the periodic stats log line summarizes). Metrics are scoped to
  /// this Server instance: deltas since start(), not process totals.
  obs::Json stats_json() const;

  /// chortle-run-report/1 with one "benchmarks" row per served request;
  /// false (with a WARN log) when the file cannot be written.
  bool write_report(const std::string& path);

 private:
  friend class EventLoop;

  /// One complete request handed from the event loop to the workers.
  /// The enqueue stamp feeds the queue_wait stage (span + histogram).
  struct RequestJob {
    std::uint64_t conn_id = 0;
    Frame frame;
    std::uint64_t enqueued_micros = 0;
  };
  /// One encoded response handed back from a worker to the event loop
  /// (which may discover the connection died meanwhile and drop it).
  /// The request's trace context rides along so the flush can be
  /// recorded as a serve.write span under the right trace.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::string bytes;
    obs::RequestContext context;
  };

  void event_loop();
  void worker_loop();
  /// `enqueued_micros` is when the complete request entered the
  /// pending queue; the gap to `pickup_micros` is the queue_wait stage.
  MapResponse process_request(const Frame& frame,
                              std::uint64_t enqueued_micros,
                              std::uint64_t pickup_micros);
  void record_request(const MapResponse& response);
  /// Freezes counters, cache stats, and this server's metric deltas
  /// into report_ so a report written (or a drain finishing) now
  /// carries the final tallies.
  void flush_stats_to_report();
  /// Nudges the event loop out of poll() (completion ready, shutdown).
  void wake();

  ServerConfig config_;
  core::DpCache cache_;
  int unix_listener_ = -1;
  int tcp_listener_ = -1;
  int resolved_tcp_port_ = -1;
  int wake_pipe_[2] = {-1, -1};

  std::thread event_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> joined_{false};
  std::atomic<std::size_t> open_connections_{0};
  std::atomic<std::size_t> in_flight_requests_{0};
  std::atomic<std::uint64_t> next_request_id_{0};
  std::chrono::steady_clock::time_point start_time_{};

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<RequestJob> queue_;  // complete requests awaiting a worker
  std::size_t queue_high_water_ = 0;  // guarded by queue_mu_

  std::mutex completion_mu_;
  std::vector<Completion> completions_;  // drained by the event loop

  mutable std::mutex counters_mu_;
  Counters counters_;

  std::mutex report_mu_;
  obs::RunReport report_;
  obs::MetricId latency_histogram_;
  // Per-stage HDR latency histograms (p50/p90/p99/p999 in STATS).
  obs::MetricId stage_queue_wait_;
  obs::MetricId stage_parse_;
  obs::MetricId stage_solve_;
  obs::MetricId stage_emit_;
  obs::MetricId stage_write_;
  obs::MetricId stage_request_;
  /// Registry state at start(); stats_json()/reports use since() deltas
  /// so several Server instances in one process stay separable.
  obs::MetricsSnapshot baseline_;
};

}  // namespace chortle::serve
