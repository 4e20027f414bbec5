#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "base/cancel.hpp"
#include "base/logging.hpp"
#include "base/timer.hpp"
#include "bdd/equiv.hpp"
#include "blif/blif.hpp"
#include "chortle/imapper.hpp"
#include "chortle/mapper.hpp"
#include "chortle/options.hpp"
#include "obs/serve_stats.hpp"
#include "obs/trace.hpp"
#include "opt/decompose.hpp"
#include "opt/script.hpp"
#include "portfolio/portfolio.hpp"

namespace chortle::serve {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("unix socket path too long: " + path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  // Only a stale *socket* from a previous run is removed. A regular
  // file (or anything else) at the configured path is somebody's data —
  // a mistyped --unix must not destroy it.
  struct stat st {};
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode))
      throw std::runtime_error("refusing to replace non-socket file: " + path);
    ::unlink(path.c_str());
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw_errno("bind(" + path + ")");
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    ::unlink(path.c_str());
    throw_errno("listen(" + path + ")");
  }
  return fd;
}

int listen_tcp(int port, int* resolved_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw_errno("bind(127.0.0.1:" + std::to_string(port) + ")");
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw_errno("listen(tcp)");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    *resolved_port = ntohs(addr.sin_port);
  return fd;
}

/// Best-effort echo of the request's identity (id, protocol revision,
/// trace context) into an error response built from a frame that
/// failed validation — a proto-2 peer still gets its id and trace id
/// back, so client-side correlation survives a rejected request. Field
/// extraction is lenient: anything malformed is simply not echoed
/// (a malformed trace id in particular is *replaced*, never smuggled
/// through into trace files).
void echo_request_identity(const obs::Json& header, MapResponse& response) {
  if (const obs::Json* id = header.find("id"); id != nullptr && id->is_string())
    response.id = id->as_string();
  const obs::Json* proto = header.find("proto");
  if (proto == nullptr || !proto->is_number() || proto->as_int() < 2) return;
  // Negotiate down: a proto-2 peer must get a proto-2 response, never
  // a revision it did not ask for.
  response.proto = static_cast<int>(std::min<std::int64_t>(
      proto->as_int(), kProtocolVersion));
  obs::RequestContext context;
  if (const obs::Json* field = header.find("trace_id");
      field != nullptr && field->is_string())
    if (const auto value = obs::parse_hex_id(field->as_string()))
      context.trace_id = *value;
  if (const obs::Json* field = header.find("span_id");
      field != nullptr && field->is_string())
    if (const auto value = obs::parse_hex_id(field->as_string()))
      context.span_id = *value;
  response.context = context.valid() ? context
                                     : obs::RequestContext::generate();
}

std::string encode_busy_frame() {
  MapResponse response;
  response.status = "busy";
  response.error = "server busy; retry later";
  return encode_frame(encode_response_header(response), "");
}

}  // namespace

// ------------------------------------------------------- event loop

/// The non-blocking I/O core: one thread owning every socket. All
/// state here (the connection table above all) is confined to the
/// event thread; workers communicate exclusively through the pending
/// and completion queues on the owning Server.
class EventLoop {
 public:
  explicit EventLoop(Server& server) : server_(server) {}

  void run();

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    FrameAssembler assembler;
    std::string out;           // encoded responses awaiting flush
    std::size_t out_off = 0;
    bool in_flight = false;    // one dispatched request, response pending
    bool close_after_flush = false;
    bool saw_eof = false;      // peer half-closed; flush then drop
    Clock::time_point last_activity;
    // Response-write timing (map responses only): stamped when the
    // completion lands, observed when the flush drains.
    bool timing_write = false;
    std::uint64_t write_start_micros = 0;
    obs::RequestContext write_context;
  };

  void enter_drain();
  void accept_ready(int listener);
  void read_ready(std::uint64_t conn_id);
  void write_ready(std::uint64_t conn_id);
  void consume_completions();
  /// Parses and dispatches buffered complete frames until the
  /// connection has a request in flight (or must close).
  void pump(Conn& conn);
  /// Non-blocking flush of the out buffer. False: the peer is gone and
  /// the connection must be closed.
  bool flush(Conn& conn);
  void append_response(Conn& conn, std::string bytes);
  void reap_idle(Clock::time_point now);
  void close_conn(std::uint64_t conn_id);
  void publish_gauges();

  Server& server_;
  std::unordered_map<std::uint64_t, Conn> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::size_t outstanding_jobs_ = 0;  // dispatched minus completed
  bool draining_ = false;
};

void EventLoop::publish_gauges() {
  server_.open_connections_.store(conns_.size(), std::memory_order_relaxed);
  OBS_GAUGE_SET("serve.open_connections",
                static_cast<std::int64_t>(conns_.size()));
}

void EventLoop::close_conn(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::close(it->second.fd);
  conns_.erase(it);
  publish_gauges();
}

void EventLoop::append_response(Conn& conn, std::string bytes) {
  if (conn.out.empty()) conn.out_off = 0;
  conn.out += bytes;
  conn.last_activity = Clock::now();
}

bool EventLoop::flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t put =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;  // EPIPE/ECONNRESET: peer is gone
    }
    if (put == 0) return true;
    conn.out_off += static_cast<std::size_t>(put);
    conn.last_activity = Clock::now();
  }
  if (!conn.out.empty()) {
    conn.out.clear();
    conn.out_off = 0;
    if (conn.timing_write) {
      conn.timing_write = false;
      const std::uint64_t end = obs::trace_now_micros();
      obs::Registry::global().observe(
          server_.stage_write_,
          static_cast<double>(end - conn.write_start_micros) * 1e-6);
      obs::record_span("serve.write", conn.write_start_micros, end,
                       conn.write_context);
    }
  }
  return true;
}

void EventLoop::pump(Conn& conn) {
  while (!conn.in_flight && !conn.close_after_flush) {
    std::optional<Frame> frame;
    try {
      frame = conn.assembler.next();
    } catch (const std::exception& error) {
      // Malformed frame: framing on the stream is lost. Answer (the
      // peer may still be reading) and drop the connection.
      MapResponse response;
      response.status = "invalid";
      response.error = error.what();
      server_.record_request(response);
      append_response(conn, encode_frame(encode_response_header(response),
                                         ""));
      conn.close_after_flush = true;
      return;
    }
    if (!frame.has_value()) return;  // mid-frame; wait for more bytes
    if (is_stats_request(*frame)) {
      {
        const std::lock_guard<std::mutex> lock(server_.counters_mu_);
        ++server_.counters_.stats_requests;
      }
      OBS_COUNT("serve.stats_requests", 1);
      append_response(conn, encode_frame(encode_stats_response_header(),
                                         server_.stats_json().dump()));
      continue;
    }
    // Admission: a complete map request enters the bounded pending
    // queue, or is rejected "busy" right here — backpressure at the
    // request level, decided by the event loop so no worker is ever
    // pinned by it.
    bool admitted = false;
    {
      const std::lock_guard<std::mutex> lock(server_.queue_mu_);
      if (server_.queue_.size() < server_.config_.queue_capacity) {
        server_.queue_.push_back(Server::RequestJob{
            conn.id, std::move(*frame), obs::trace_now_micros()});
        server_.queue_high_water_ =
            std::max(server_.queue_high_water_, server_.queue_.size());
        admitted = true;
      }
    }
    if (!admitted) {
      {
        const std::lock_guard<std::mutex> lock(server_.counters_mu_);
        ++server_.counters_.rejected_busy;
      }
      OBS_COUNT("serve.rejected_busy", 1);
      MapResponse busy;
      busy.status = "busy";
      busy.error = "admission queue full; retry later";
      echo_request_identity(frame->header, busy);
      append_response(conn,
                      encode_frame(encode_response_header(busy), ""));
      conn.close_after_flush = true;
      return;
    }
    conn.in_flight = true;
    ++outstanding_jobs_;
    server_.queue_cv_.notify_one();
  }
}

void EventLoop::consume_completions() {
  std::vector<Server::Completion> batch;
  {
    const std::lock_guard<std::mutex> lock(server_.completion_mu_);
    batch.swap(server_.completions_);
  }
  for (Server::Completion& done : batch) {
    --outstanding_jobs_;
    const auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;  // peer vanished mid-solve
    Conn& conn = it->second;
    conn.in_flight = false;
    conn.timing_write = true;
    conn.write_start_micros = obs::trace_now_micros();
    conn.write_context = done.context;
    append_response(conn, std::move(done.bytes));
    if (conn.saw_eof)
      conn.close_after_flush = true;  // no further requests on the stream
    else
      pump(conn);  // a pipelined next request may already be buffered
    // Drain contract: requests buffered complete before shutdown are
    // still served (pump above), but once a connection owes nothing
    // more it goes.
    if (draining_ && !conn.in_flight) conn.close_after_flush = true;
    if (!flush(conn)) {
      close_conn(done.conn_id);
      continue;
    }
    if (conn.out.empty() && conn.close_after_flush) close_conn(done.conn_id);
  }
}

void EventLoop::accept_ready(int listener) {
  while (true) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;
    }
    set_nonblocking(fd);
    {
      const std::lock_guard<std::mutex> lock(server_.counters_mu_);
      ++server_.counters_.accepted;
    }
    OBS_COUNT("serve.accepted", 1);
    if (conns_.size() >= server_.config_.max_connections) {
      // Connection budget exhausted: a best-effort busy frame, then
      // close. Bounded sockets instead of unbounded accumulation.
      {
        const std::lock_guard<std::mutex> lock(server_.counters_mu_);
        ++server_.counters_.rejected_busy;
      }
      OBS_COUNT("serve.rejected_busy", 1);
      const std::string busy = encode_busy_frame();
      (void)!::send(fd, busy.data(), busy.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    const std::uint64_t id = next_conn_id_++;
    Conn conn;
    conn.fd = fd;
    conn.id = id;
    conn.last_activity = Clock::now();
    conns_.emplace(id, std::move(conn));
    publish_gauges();
  }
}

void EventLoop::read_ready(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  char buffer[65536];
  while (true) {
    const ssize_t got = ::read(conn.fd, buffer, sizeof buffer);
    if (got > 0) {
      conn.assembler.append(std::string_view(buffer,
                                             static_cast<std::size_t>(got)));
      conn.last_activity = Clock::now();
      if (static_cast<std::size_t>(got) < sizeof buffer) break;
      continue;  // possibly more pending; poll is level-triggered anyway
    }
    if (got == 0) {
      conn.saw_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(conn_id);  // hard I/O error
    return;
  }
  pump(conn);
  if (!flush(conn)) {
    close_conn(conn_id);
    return;
  }
  // Half-closed peer with nothing left to do (no in-flight response,
  // nothing to flush): a clean EOF, drop the connection. A partial
  // frame at EOF is unanswerable (framing never completed) and is
  // dropped the same way.
  if (conn.saw_eof && !conn.in_flight && conn.out.empty())
    close_conn(conn_id);
  else if (conn.out.empty() && conn.close_after_flush)
    close_conn(conn_id);
}

void EventLoop::write_ready(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (!flush(conn)) {
    close_conn(conn_id);
    return;
  }
  if (conn.out.empty() && conn.close_after_flush) close_conn(conn_id);
}

void EventLoop::reap_idle(Clock::time_point now) {
  // In drain mode stalled flushes are reaped on a fixed grace so a
  // peer that stopped reading cannot wedge shutdown forever.
  const std::int64_t timeout_ms =
      draining_ ? (server_.config_.idle_timeout_ms > 0
                       ? std::min<std::int64_t>(
                             server_.config_.idle_timeout_ms, 30000)
                       : 30000)
                : server_.config_.idle_timeout_ms;
  if (timeout_ms <= 0) return;
  std::vector<std::uint64_t> victims;
  for (const auto& [id, conn] : conns_) {
    if (conn.in_flight) continue;  // a worker owes it a response
    const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now - conn.last_activity)
                          .count();
    if (idle > timeout_ms) victims.push_back(id);
  }
  for (const std::uint64_t id : victims) {
    {
      const std::lock_guard<std::mutex> lock(server_.counters_mu_);
      ++server_.counters_.idle_closed;
    }
    OBS_COUNT("serve.idle_closed", 1);
    close_conn(id);
  }
}

void EventLoop::enter_drain() {
  draining_ = true;
  close_if_open(server_.unix_listener_);
  close_if_open(server_.tcp_listener_);
  // Serve what is already here — dispatched requests and complete
  // frames sitting in buffers — but read no new bytes. Everything
  // else closes as soon as its responses are flushed.
  std::vector<std::uint64_t> idle;
  for (auto& [id, conn] : conns_) {
    pump(conn);  // dispatch frames that were already buffered complete
    if (!flush(conn)) {
      idle.push_back(id);
      continue;
    }
    if (conn.in_flight) continue;  // completion path closes it later
    if (conn.out.empty())
      idle.push_back(id);  // idle keep-alive (or mid-frame): drop now
    else
      conn.close_after_flush = true;
  }
  for (const std::uint64_t id : idle) close_conn(id);
}

void EventLoop::run() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0: none)
  while (true) {
    if (server_.stopping_.load() && !draining_) enter_drain();
    if (draining_ && outstanding_jobs_ == 0 && conns_.empty()) break;

    fds.clear();
    fd_conn.clear();
    fds.push_back({server_.wake_pipe_[0], POLLIN, 0});
    fd_conn.push_back(0);
    if (!draining_) {
      for (const int listener :
           {server_.unix_listener_, server_.tcp_listener_}) {
        if (listener < 0) continue;
        fds.push_back({listener, POLLIN, 0});
        fd_conn.push_back(0);
      }
    }
    for (const auto& [id, conn] : conns_) {
      short events = 0;
      // Reading pauses while a request is in flight (TCP backpressure
      // instead of unbounded buffering) and stops for good on EOF or a
      // pending close.
      if (!conn.in_flight && !conn.close_after_flush && !conn.saw_eof &&
          !draining_)
        events |= POLLIN;
      if (conn.out_off < conn.out.size()) events |= POLLOUT;
      if (events == 0) continue;
      fds.push_back({conn.fd, events, 0});
      fd_conn.push_back(id);
    }

    int timeout_ms = -1;
    if (draining_)
      timeout_ms = 50;
    else if (server_.config_.idle_timeout_ms > 0)
      timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
          server_.config_.idle_timeout_ms / 4, 10, 1000));
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms) < 0) {
      if (errno == EINTR) continue;
      LOG_ERROR << "chortle_serve: poll failed: " << std::strerror(errno);
      break;
    }

    if ((fds[0].revents & POLLIN) != 0) {
      char drain[4096];
      while (::read(server_.wake_pipe_[0], drain, sizeof drain) > 0) {
      }
    }
    // Completions are consumed every iteration (not only on a wake
    // byte): the wake pipe can drop writes when full, the queue never.
    consume_completions();

    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (fd_conn[i] == 0) {
        accept_ready(fds[i].fd);
        continue;
      }
      const std::uint64_t id = fd_conn[i];
      if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) {
        close_conn(id);
        continue;
      }
      if ((fds[i].revents & POLLOUT) != 0) write_ready(id);
      if ((fds[i].revents & (POLLIN | POLLHUP)) != 0) read_ready(id);
    }
    reap_idle(Clock::now());
  }
  for (auto& [id, conn] : conns_) ::close(conn.fd);
  conns_.clear();
  publish_gauges();
}

// ------------------------------------------------------------ server

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_bytes),
      report_("chortle_serve"),
      latency_histogram_(obs::Registry::global().histogram(
          "serve.request.seconds", obs::Registry::latency_bounds())),
      stage_queue_wait_(
          obs::Registry::global().hdr("serve.stage.queue_wait")),
      stage_parse_(obs::Registry::global().hdr("serve.stage.parse")),
      stage_solve_(obs::Registry::global().hdr("serve.stage.solve")),
      stage_emit_(obs::Registry::global().hdr("serve.stage.emit")),
      stage_write_(obs::Registry::global().hdr("serve.stage.write")),
      stage_request_(obs::Registry::global().hdr("serve.stage.request")) {
  report_.set_option("workers", config_.workers);
  report_.set_option("queue_capacity",
                     static_cast<std::int64_t>(config_.queue_capacity));
  report_.set_option("max_connections",
                     static_cast<std::int64_t>(config_.max_connections));
  report_.set_option("cache_bytes",
                     static_cast<std::int64_t>(config_.cache_bytes));
}

Server::~Server() { shutdown(); }

void Server::start() {
  CHORTLE_REQUIRE(!started_.load(), "server already started");
  // Make "portfolio" resolvable via find_mapper before any worker can
  // dispatch a request (registration is startup-time only).
  portfolio::ensure_registered();
  CHORTLE_REQUIRE(!config_.unix_path.empty() || config_.tcp_port >= 0,
                  "server needs a unix path or a TCP port");
  CHORTLE_REQUIRE(config_.workers >= 1 && config_.workers <= 512,
                  "workers must be in [1, 512]");
  CHORTLE_REQUIRE(config_.max_connections >= 1,
                  "max_connections must be >= 1");
  if (::pipe(wake_pipe_) != 0) throw_errno("pipe");
  try {
    set_nonblocking(wake_pipe_[0]);
    set_nonblocking(wake_pipe_[1]);
    if (!config_.unix_path.empty())
      unix_listener_ = listen_unix(config_.unix_path);
    if (config_.tcp_port >= 0)
      tcp_listener_ = listen_tcp(config_.tcp_port, &resolved_tcp_port_);
    for (const int listener : {unix_listener_, tcp_listener_})
      if (listener >= 0) set_nonblocking(listener);
  } catch (...) {
    // A later step failed (e.g. the TCP bind): release everything the
    // earlier steps acquired, including an already-bound unix listener
    // and its socket file, so a retry (or another process) can bind.
    close_if_open(wake_pipe_[0]);
    close_if_open(wake_pipe_[1]);
    if (unix_listener_ >= 0) {
      close_if_open(unix_listener_);
      ::unlink(config_.unix_path.c_str());
    }
    close_if_open(tcp_listener_);
    throw;
  }
  start_time_ = std::chrono::steady_clock::now();
  // Metrics are process-global; remember where this server starts so
  // stats and reports show its own deltas (tests run several servers).
  baseline_ = obs::Registry::global().snapshot();
  started_.store(true);
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  event_thread_ = std::thread([this] { event_loop(); });
  LOG_INFO << "chortle_serve: listening"
           << (unix_listener_ >= 0 ? " unix:" + config_.unix_path : "")
           << (tcp_listener_ >= 0
                   ? " tcp:127.0.0.1:" + std::to_string(resolved_tcp_port_)
                   : "")
           << " (" << config_.workers << " workers, queue "
           << config_.queue_capacity << ", max "
           << config_.max_connections << " connections)";
}

void Server::shutdown() {
  if (!started_.load() || joined_.exchange(true)) return;
  stopping_.store(true);
  // Wake the event loop; it drains in-flight work, flushes responses,
  // closes every socket (listeners included), then exits.
  wake();
  queue_cv_.notify_all();
  if (event_thread_.joinable()) event_thread_.join();
  // The pending queue is empty once the event loop has exited (it
  // waits for every dispatched request's completion); the workers are
  // idle and exit at the next wakeup.
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  close_if_open(wake_pipe_[0]);
  close_if_open(wake_pipe_[1]);
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
  // Freeze the final tallies into the run report now that every request
  // has finished — a write_report() after drain (or none at all, if the
  // harness only reads counters) sees the complete picture instead of
  // whatever the registry holds when serialization happens to run.
  flush_stats_to_report();
  LOG_INFO << "chortle_serve: drained and stopped";
}

void Server::wake() {
  if (wake_pipe_[1] >= 0) (void)!::write(wake_pipe_[1], "x", 1);
}

void Server::event_loop() { EventLoop(*this).run(); }

std::size_t Server::queue_depth() const {
  const std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

void Server::worker_loop() {
  while (true) {
    RequestJob job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load() || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    in_flight_requests_.fetch_add(1, std::memory_order_relaxed);
    OBS_GAUGE_SET("serve.in_flight_requests",
                  static_cast<std::int64_t>(in_flight_requests_.load()));
    const std::uint64_t pickup_micros = obs::trace_now_micros();
    const MapResponse response =
        process_request(job.frame, job.enqueued_micros, pickup_micros);
    Completion done;
    done.conn_id = job.conn_id;
    done.context = response.context;
    try {
      done.bytes = encode_frame(encode_response_header(response),
                                response.blif);
    } catch (const std::exception& error) {
      // Response larger than the protocol allows: degrade to an
      // internal error the peer can still decode.
      MapResponse failure;
      failure.id = response.id;
      failure.proto = response.proto;
      failure.context = response.context;
      failure.status = "internal";
      failure.error = error.what();
      done.bytes = encode_frame(encode_response_header(failure), "");
    }
    in_flight_requests_.fetch_sub(1, std::memory_order_relaxed);
    OBS_GAUGE_SET("serve.in_flight_requests",
                  static_cast<std::int64_t>(in_flight_requests_.load()));
    {
      const std::lock_guard<std::mutex> lock(completion_mu_);
      completions_.push_back(std::move(done));
    }
    wake();
  }
}

MapResponse Server::process_request(const Frame& frame,
                                    std::uint64_t enqueued_micros,
                                    std::uint64_t pickup_micros) {
  WallTimer timer;
  MapResponse response;
  MapRequest request;
  WallTimer header_timer;
  try {
    request = parse_map_request(frame);
  } catch (const std::exception& error) {
    // Mirror the other error paths: a proto-2 peer gets its id, proto,
    // and trace context echoed even when the request fails validation,
    // so client-side correlation keeps working.
    echo_request_identity(frame.header, response);
    response.status = "invalid";
    response.error = error.what();
    response.seconds = timer.seconds();
    record_request(response);
    return response;
  }
  const std::string assigned_id =
      request.id.empty()
          ? "r" + std::to_string(
                      next_request_id_.fetch_add(1, std::memory_order_relaxed))
          : request.id;
  response.id = assigned_id;
  // Adopt the client's trace context or mint one, so server-side spans
  // always correlate even for clients that sent none. Echoed to
  // revision-2 peers; invisible to v1 peers.
  const obs::RequestContext context = request.context.valid()
                                          ? request.context
                                          : obs::RequestContext::generate();
  response.proto = std::min(request.proto, kProtocolVersion);
  response.context = context;
  StageSeconds stages;
  stages.parse = header_timer.seconds();
  if (enqueued_micros > 0 && pickup_micros >= enqueued_micros) {
    stages.queue_wait =
        static_cast<double>(pickup_micros - enqueued_micros) * 1e-6;
    obs::Registry::global().observe(stage_queue_wait_, stages.queue_wait);
    // Retroactive span: the wait ended before this worker could open
    // the request's context, so it is recorded after the fact.
    obs::record_span("serve.queue_wait", enqueued_micros, pickup_micros,
                     context);
  }
  obs::TraceSpan request_span("serve.request", context);

  // The deadline clock starts now — queue wait is already behind us,
  // mapping is in front. deadline_ms <= 0 is expired on arrival and
  // must not reach any mapping work.
  base::CancelToken token =
      request.deadline_ms >= 0
          ? base::CancelToken::after(
                std::chrono::milliseconds(request.deadline_ms))
          : base::CancelToken();
  try {
    token.check("serve.request");
    blif::BlifModel model;
    net::Network network;
    {
      obs::TraceSpan parse_span("serve.parse", context);
      WallTimer stage_timer;
      model = blif::read_blif_string(request.blif);
      network = request.optimize ? opt::optimize(model.network).network
                                 : opt::decompose_to_and_or(model.network);
      stages.parse += stage_timer.seconds();
    }
    core::Options options;
    options.k = request.k;
    options.split_threshold = request.split_threshold;
    options.search_decompositions = request.search_decompositions;
    if (request.deadline_ms >= 0) options.cancel = &token;
    const core::IMapper* mapper = core::find_mapper(request.mapper);
    if (mapper == nullptr)
      throw InvalidInput("unknown mapper \"" + request.mapper +
                         "\" (expected " + core::mapper_names() + ")");
    const core::MapResult mapped = [&] {
      obs::TraceSpan solve_span("serve.solve", context);
      WallTimer stage_timer;
      const auto solve = [&]() -> core::MapResult {
        if (request.mapper == "chortle") {
          // The historical path, DP cache included — byte-identical to
          // every pre-revision-3 response.
          return core::map_network(network, options, &cache_);
        }
        if (request.mapper == "portfolio") {
        // The race: chortle-fallback first (uncancellable), then the
        // other backends under the request's deadline and budget. A
        // deadline that fires mid-race yields the fallback cover, not
        // a "deadline" error — the token stays out of options.cancel's
        // Cancelled path because the fallback never polls it.
          portfolio::PortfolioConfig race =
              portfolio::default_portfolio().config();
          race.objective = portfolio::parse_objective(request.objective);
          race.budget_ms = request.portfolio_budget_ms;
          return portfolio::default_portfolio().map_with(network, options,
                                                         race, nullptr);
        }
        return mapper->map(network, options);
      };
      core::MapResult result = solve();
      stages.solve = stage_timer.seconds();
      return result;
    }();
    response.luts = mapped.stats.num_luts;
    response.trees = mapped.stats.num_trees;
    response.depth = mapped.stats.depth;
    response.cache_hits = mapped.stats.cache_hits;
    response.cache_misses = mapped.stats.cache_misses;
    response.cache_coalesced = mapped.stats.cache_coalesced;
    response.mapper = request.mapper;
    response.portfolio_winner = mapped.stats.portfolio_winner;
    response.portfolio_cancelled = mapped.stats.portfolio_cancelled;
    response.portfolio_stitched_trees = mapped.stats.portfolio_stitched_trees;
    {
      obs::TraceSpan emit_span("serve.emit", context);
      WallTimer stage_timer;
      response.blif =
          blif::write_blif_string(mapped.circuit, model.name + "_luts");
      stages.emit = stage_timer.seconds();
    }
    response.status = "ok";
    if (request.verify) {
      token.check("serve.verify");
      const bdd::FormalOutcome outcome =
          bdd::check_equivalence(model.network, mapped.circuit);
      switch (outcome.status) {
        case bdd::FormalOutcome::Status::kEquivalent:
          response.verified = "equivalent";
          break;
        case bdd::FormalOutcome::Status::kDifferent:
          response.verified = "different";
          response.status = "internal";
          response.error = "equivalence check found a counterexample at "
                           "output " + outcome.output_name;
          response.blif.clear();
          break;
        case bdd::FormalOutcome::Status::kInconclusive:
          // Still served: the mapping is believed correct, the oracle
          // just ran out of node budget. The caller sees which.
          response.verified = "inconclusive";
          break;
      }
    }
  } catch (const base::Cancelled& error) {
    const int proto = response.proto;
    response = MapResponse{};
    response.id = assigned_id;
    response.proto = proto;
    response.context = context;
    response.status = "deadline";
    response.error = error.what();
  } catch (const InvalidInput& error) {
    const int proto = response.proto;
    response = MapResponse{};
    response.id = assigned_id;
    response.proto = proto;
    response.context = context;
    response.status = "invalid";
    response.error = error.what();
  } catch (const std::exception& error) {
    const int proto = response.proto;
    response = MapResponse{};
    response.id = assigned_id;
    response.proto = proto;
    response.context = context;
    response.status = "internal";
    response.error = error.what();
  }
  obs::Registry& registry = obs::Registry::global();
  registry.observe(stage_parse_, stages.parse);
  if (stages.solve > 0.0) registry.observe(stage_solve_, stages.solve);
  if (stages.emit > 0.0) registry.observe(stage_emit_, stages.emit);
  response.has_stages = true;
  response.stages = stages;
  response.seconds = timer.seconds();
  record_request(response);
  return response;
}

void Server::record_request(const MapResponse& response) {
  obs::Registry::global().observe(latency_histogram_, response.seconds);
  obs::Registry::global().observe(stage_request_, response.seconds);
  OBS_COUNT("serve.requests", 1);
  {
    const std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.served;
    if (response.status == "ok") ++counters_.ok;
    else if (response.status == "deadline") ++counters_.deadline_errors;
    else if (response.status == "invalid") ++counters_.invalid_requests;
    else ++counters_.internal_errors;
    if (response.mapper == "portfolio") {
      ++counters_.portfolio_requests;
      if (!response.portfolio_winner.empty() &&
          response.portfolio_winner != "chortle")
        ++counters_.portfolio_won;
      counters_.portfolio_cancelled +=
          static_cast<std::uint64_t>(response.portfolio_cancelled);
      counters_.portfolio_stitched_trees +=
          static_cast<std::uint64_t>(response.portfolio_stitched_trees);
    }
  }
  if (response.status == "deadline") OBS_COUNT("serve.deadline_errors", 1);

  obs::Json row = obs::Json::object();
  row.set("id", response.id);
  row.set("status", response.status);
  if (!response.error.empty()) row.set("error", response.error);
  row.set("luts", response.luts);
  row.set("trees", response.trees);
  row.set("depth", response.depth);
  row.set("cache_hits", response.cache_hits);
  row.set("cache_misses", response.cache_misses);
  if (response.cache_coalesced > 0)
    row.set("cache_coalesced", response.cache_coalesced);
  row.set("seconds", response.seconds);
  if (!response.verified.empty()) row.set("verified", response.verified);
  if (!response.mapper.empty() && response.mapper != "chortle")
    row.set("mapper", response.mapper);
  if (!response.portfolio_winner.empty()) {
    row.set("portfolio_winner", response.portfolio_winner);
    row.set("portfolio_cancelled", response.portfolio_cancelled);
    row.set("portfolio_stitched_trees", response.portfolio_stitched_trees);
  }
  const std::lock_guard<std::mutex> lock(report_mu_);
  report_.add_benchmark(std::move(row));
  report_.add_phase("serve.request", response.seconds);
}

Server::Counters Server::counters() const {
  const std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

namespace {

obs::Json cache_stats_json(const core::DpCache::Stats& cache) {
  obs::Json json = obs::Json::object();
  json.set("hits", cache.hits);
  json.set("misses", cache.misses);
  json.set("insertions", cache.insertions);
  json.set("evictions", cache.evictions);
  json.set("coalesced", cache.coalesced);
  json.set("entries", static_cast<std::int64_t>(cache.entries));
  json.set("bytes", static_cast<std::int64_t>(cache.bytes));
  return json;
}

obs::Json counters_json(const Server::Counters& counts) {
  obs::Json json = obs::Json::object();
  json.set("accepted", counts.accepted);
  json.set("served", counts.served);
  json.set("ok", counts.ok);
  json.set("rejected_busy", counts.rejected_busy);
  json.set("deadline_errors", counts.deadline_errors);
  json.set("invalid_requests", counts.invalid_requests);
  json.set("internal_errors", counts.internal_errors);
  json.set("stats_requests", counts.stats_requests);
  json.set("idle_closed", counts.idle_closed);
  // Extra keys are fine by the chortle-serve-stats/1 validator: it
  // requires its known fields and ignores additions.
  json.set("portfolio_requests", counts.portfolio_requests);
  json.set("portfolio_won", counts.portfolio_won);
  json.set("portfolio_cancelled", counts.portfolio_cancelled);
  json.set("portfolio_stitched_trees", counts.portfolio_stitched_trees);
  return json;
}

/// Registry metric name -> chortle-serve-stats/1 stage key. The three
/// cache entries are per-tree DP-cache lookup outcomes recorded by the
/// mapper, not per-request stages, but they answer the same question
/// ("where does latency go?") so they live in the same section.
constexpr std::pair<const char*, const char*> kStageMetrics[] = {
    {"serve.stage.queue_wait", "queue_wait"},
    {"serve.stage.parse", "parse"},
    {"serve.stage.solve", "solve"},
    {"serve.stage.emit", "emit"},
    {"serve.stage.write", "write"},
    {"serve.stage.request", "request"},
    {"map.cache_hit.seconds", "cache_hit"},
    {"map.cache_miss.seconds", "cache_miss"},
    {"map.cache_coalesced.seconds", "cache_coalesced"},
    {"portfolio.race.seconds", "portfolio_race"},
};

}  // namespace

obs::Json Server::stats_json() const {
  obs::Json doc = obs::Json::object();
  doc.set("schema", obs::kServeStatsSchema);
  doc.set("uptime_seconds",
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_time_)
              .count());
  doc.set("in_flight", static_cast<std::int64_t>(in_flight_requests()));
  doc.set("open_connections",
          static_cast<std::int64_t>(open_connections()));
  {
    const std::lock_guard<std::mutex> lock(queue_mu_);
    doc.set("queue_depth", static_cast<std::int64_t>(queue_.size()));
    doc.set("queue_high_water",
            static_cast<std::int64_t>(queue_high_water_));
  }
  obs::Json config = obs::Json::object();
  config.set("workers", config_.workers);
  config.set("queue_capacity",
             static_cast<std::int64_t>(config_.queue_capacity));
  config.set("max_connections",
             static_cast<std::int64_t>(config_.max_connections));
  config.set("idle_timeout_ms", config_.idle_timeout_ms);
  // Each request maps on one worker thread; chortle-serve-stats/1 still
  // carries the field, so it is written as the constant 1.
  config.set("map_jobs", 1);
  config.set("cache_bytes", static_cast<std::int64_t>(config_.cache_bytes));
  doc.set("config", std::move(config));
  doc.set("requests", counters_json(counters()));

  const core::DpCache::Stats cache = cache_.stats();
  obs::Json cache_json = cache_stats_json(cache);
  const std::uint64_t lookups = cache.hits + cache.misses;
  cache_json.set("hit_rate",
                 lookups == 0
                     ? 0.0
                     : static_cast<double>(cache.hits) /
                           static_cast<double>(lookups));
  doc.set("dp_cache", std::move(cache_json));

  const obs::MetricsSnapshot delta =
      obs::Registry::global().snapshot().since(baseline_);
  obs::Json stages = obs::Json::object();
  for (const auto& [metric, stage] : kStageMetrics) {
    const auto it = delta.hdr.find(metric);
    // Skip stages this server never exercised — the delta keeps an
    // empty entry for every metric another server in the process has
    // registered, and an all-zero section would just mislead.
    if (it == delta.hdr.end() || it->second.count == 0) continue;
    stages.set(stage, obs::hdr_snapshot_to_json(it->second));
  }
  doc.set("stages", std::move(stages));
  return doc;
}

void Server::flush_stats_to_report() {
  const core::DpCache::Stats cache = cache_.stats();
  const Counters counts = counters();
  obs::MetricsSnapshot delta =
      obs::Registry::global().snapshot().since(baseline_);
  const std::lock_guard<std::mutex> lock(report_mu_);
  report_.set_field("dp_cache", cache_stats_json(cache));
  report_.set_field("requests", counters_json(counts));
  report_.capture_metrics(std::move(delta));
}

bool Server::write_report(const std::string& path) {
  flush_stats_to_report();
  const std::lock_guard<std::mutex> lock(report_mu_);
  return report_.write_file(path);
}

}  // namespace chortle::serve
