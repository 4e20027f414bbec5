// serve_repeat, serve_fresh and serve_signoff: an in-process
// serve::Server on a Unix socket, driven through serve::Client (CSv1,
// proto 3) by `conns` connections that share one request queue; a
// connection sends its next request only when its previous one is
// answered (closed loop). serve_repeat and serve_fresh loop
// continuously for the run's seconds; serve_signoff sends its 12-request
// suite pass after pass. serve_repeat adds an open-loop phase at a fixed
// offered rate.
//
// The traced run sends a few passes for the per-stage server timings,
// then replays the same request sequence in-process through the calls
// Server::process_request makes, once untraced and once inside spans.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "base/fnv.hpp"
#include "bdd/equiv.hpp"
#include "blif/blif.hpp"
#include "chortle/dp_cache.hpp"
#include "chortle/imapper.hpp"
#include "chortle/mapper.hpp"
#include "common.hpp"
#include "opt/decompose.hpp"
#include "portfolio/portfolio.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/simulate.hpp"
#include "spans.hpp"
#include "suites.hpp"

namespace perfbench {
namespace {

using namespace chortle;

/// serve_fresh's luts_total and depth_total sum over this many passes:
/// enough netlists that the seed moves the sums by well under 1%.
constexpr std::size_t kFreshTotalsPasses = 40;

/// The distinct requests of a workload and the order they are sent in:
/// request i of the run is key_at(i). `wire` is the only copy of the
/// inputs the process holds.
struct Workload {
  std::vector<std::string> names;         // per key: circuit or netlist
  std::vector<serve::MapRequest> wire;    // per key, as sent
  std::vector<serve::MapRequest> warmup;  // sent before anything is timed
  std::string digest;                     // of the ordered request set
  std::size_t per_pass = 0;  // requests in one pass over the suite
  bool fresh = false;        // every request its own netlist
  /// Output bytes are kept from the first pass and checked after the
  /// window (serve_signoff: re-sending its suite would cost another
  /// verified pass). The other workloads keep only hashes and re-send
  /// each distinct request for the check.
  bool keep_outputs = false;
  std::size_t key_at(std::size_t i) const {
    return fresh ? i : i % per_pass;
  }
  /// How many requests the run can send before repeating a fresh key.
  std::size_t limit() const { return fresh ? wire.size() : SIZE_MAX; }
  std::vector<std::size_t> first_keys(std::size_t count) const {
    std::vector<std::size_t> keys;
    for (std::size_t i = 0; i < std::min(count, limit()); ++i)
      keys.push_back(key_at(i));
    return keys;
  }
  /// MiB of input BLIF the benchmark itself holds during the run; part
  /// of peak_rss_mb.
  double input_mb() const {
    std::size_t bytes = 0;
    for (const serve::MapRequest& request : wire) bytes += request.blif.size();
    for (const serve::MapRequest& request : warmup)
      bytes += request.blif.size();
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  }
};

serve::MapRequest to_wire(Request&& request) {
  serve::MapRequest wire;
  wire.id = request.name + "-k" + std::to_string(request.k);
  wire.k = request.k;
  wire.mapper = request.mapper;
  wire.objective = "luts";
  wire.verify = request.verify;
  wire.proto = serve::kProtocolVersion;
  wire.blif = std::move(request.blif);
  return wire;
}

Workload make_workload(const Args& args, int fresh_passes) {
  Workload workload;
  std::vector<Request> distinct;
  std::vector<Request> warmup;
  if (args.workload == "serve_repeat") {
    distinct = repeat_suite(args.seed);
    warmup = distinct;  // fills the DP cache: every tree hits
  } else if (args.workload == "serve_fresh") {
    distinct = fresh_pool(args.seed, fresh_passes);
    // A pass drawn from another stream: warms the server, not the keys.
    warmup = fresh_pool(args.seed ^ 0x5A5A5A5A5A5A5A5Aull, 1);
    workload.fresh = true;
  } else {
    distinct = signoff_suite();
    warmup = {distinct.back()};  // starts the race pool
    workload.keep_outputs = true;
  }
  workload.digest = digest(distinct);
  workload.per_pass = workload.fresh ? kFreshPerPass : distinct.size();
  for (Request& request : distinct) {
    workload.names.push_back(request.name);
    workload.wire.push_back(to_wire(std::move(request)));
  }
  for (Request& request : warmup)
    workload.warmup.push_back(to_wire(std::move(request)));
  return workload;
}

struct Reply {
  std::size_t key = 0;
  std::string status;
  std::string error;
  std::string verified;
  int luts = 0;
  int depth = 0;
  double sent_s = 0.0;     // send time, from the start of the closed loop
  double latency_s = 0.0;  // client-observed
  double server_s = 0.0;   // the response's "seconds"
  serve::StageSeconds stages;
  std::uint64_t hash = 0;
  std::string blif;  // kept only when the caller asks for it
};

Reply exchange(serve::Client& client, const serve::MapRequest& request,
               std::size_t key, bool keep_blif, Clock::time_point start) {
  Reply reply;
  reply.key = key;
  try {
    serve::MapResponse response = client.map(request);
    reply.latency_s = seconds_since(start);
    reply.status = response.status;
    reply.error = response.error;
    reply.verified = response.verified;
    reply.luts = response.luts;
    reply.depth = response.depth;
    reply.server_s = response.seconds;
    reply.stages = response.stages;
    reply.hash = base::fnv1a64(response.blif);
    if (keep_blif) reply.blif = std::move(response.blif);
  } catch (const std::exception& error) {
    reply.latency_s = seconds_since(start);
    reply.status = "transport";
    reply.error = error.what();
  }
  return reply;
}

struct ClosedLoop {
  std::vector<Reply> replies;  // in request order
  bool ran_out = false;        // the fresh pool ended before the window
};

struct OpenLoop {
  std::vector<Reply> replies;
  std::vector<double> late_s;  // actual send minus scheduled send
  double window_s = 0.0;
};

/// A started server plus one connected client per connection.
class Harness {
 public:
  explicit Harness(const Args& args) : server_(config(args)) {
    server_.start();
    for (int c = 0; c < args.settings.conns; ++c)
      clients_.push_back(serve::Client::connect_unix(args.socket));
  }

  /// Sends `keys` once each, closed loop; output bytes are kept when the
  /// workload keeps outputs.
  std::vector<Reply> pass(const Workload& workload,
                          const std::vector<std::size_t>& keys) {
    std::vector<Reply> replies(keys.size());
    std::atomic<std::size_t> next{0};
    run_clients([&](serve::Client& client) {
      for (std::size_t i = next.fetch_add(1); i < keys.size();
           i = next.fetch_add(1))
        replies[i] = exchange(client, workload.wire[keys[i]], keys[i],
                              workload.keep_outputs, Clock::now());
    });
    return replies;
  }

  /// Sends `keys` once each and hands every reply, output bytes
  /// included, to `body` on the connection's thread, which drops it.
  /// `body` must not throw.
  template <typename Body>
  void stream(const Workload& workload, const std::vector<std::size_t>& keys,
              Body body) {
    std::atomic<std::size_t> next{0};
    run_clients([&](serve::Client& client) {
      for (std::size_t i = next.fetch_add(1); i < keys.size();
           i = next.fetch_add(1))
        body(exchange(client, workload.wire[keys[i]], keys[i], true,
                      Clock::now()));
    });
  }

  /// Continuous closed loop for `seconds`: request i is key_at(i); a
  /// connection sends its next request when its previous one returns.
  /// Only hashes of the outputs are kept.
  ClosedLoop closed_loop(const Workload& workload, double seconds) {
    std::mutex mu;
    std::map<std::size_t, Reply> replies;  // by request index; guarded by mu
    std::atomic<std::size_t> next{0};
    std::atomic<bool> ran_out{false};
    const Clock::time_point start = Clock::now();
    run_clients([&](serve::Client& client) {
      while (seconds_since(start) < seconds) {
        const std::size_t i = next.fetch_add(1);
        if (i >= workload.limit()) {
          ran_out = true;
          break;
        }
        const Clock::time_point sent = Clock::now();
        Reply reply = exchange(client, workload.wire[workload.key_at(i)],
                               workload.key_at(i), false, sent);
        reply.sent_s = std::chrono::duration<double>(sent - start).count();
        const std::lock_guard<std::mutex> lock(mu);
        replies.emplace(i, std::move(reply));
      }
    });
    ClosedLoop loop;
    for (auto& [index, reply] : replies)
      loop.replies.push_back(std::move(reply));
    loop.ran_out = ran_out;
    return loop;
  }

  /// Sends the requests unmeasured (warm-up).
  void send(const std::vector<serve::MapRequest>& requests) {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> ok{true};
    run_clients([&](serve::Client& client) {
      for (std::size_t i = next.fetch_add(1); i < requests.size();
           i = next.fetch_add(1))
        if (exchange(client, requests[i], 0, false, Clock::now()).status !=
            "ok")
          ok = false;
    });
    if (!ok) throw std::runtime_error("warm-up request failed");
  }

  /// Request i is due at start + i / rate; latency counts from then.
  OpenLoop open_loop(const Workload& workload,
                     const std::vector<std::size_t>& keys, double rate) {
    OpenLoop result;
    result.replies.resize(keys.size());
    result.late_s.resize(keys.size());
    std::atomic<std::size_t> next{0};
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(10);
    run_clients([&](serve::Client& client) {
      for (std::size_t i = next.fetch_add(1); i < keys.size();
           i = next.fetch_add(1)) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rate));
        std::this_thread::sleep_until(due);
        result.late_s[i] =
            std::chrono::duration<double>(Clock::now() - due).count();
        result.replies[i] = exchange(client, workload.wire[keys[i]],
                                     keys[i], false, due);
      }
    });
    result.window_s = seconds_since(start);
    return result;
  }

 private:
  static serve::ServerConfig config(const Args& args) {
    serve::ServerConfig config;
    config.unix_path = args.socket;
    config.workers = args.settings.workers;
    return config;
  }

  template <typename Body>
  void run_clients(Body body) {
    std::vector<std::thread> threads;
    for (serve::Client& client : clients_)
      threads.emplace_back([&body, &client] { body(client); });
    for (std::thread& thread : threads) thread.join();
  }

  serve::Server server_;
  std::vector<serve::Client> clients_;  // closed before the server drains
};

/// The registry's first K = 6 libmap call builds the level-0 kernel
/// library (libmap::Library::level0_kernels(6)) that the portfolio race
/// then shares. The netlist is one AND gate, so the call is the build.
void build_libmap_library() {
  const blif::BlifModel model = blif::read_blif_string(
      ".model tiny\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n");
  core::Options options;
  options.k = 6;
  core::find_mapper("libmap")->map(opt::decompose_to_and_or(model.network),
                                   options);
}

/// Correctness of served replies: status ok, the same bytes for the same
/// key throughout the run (against `reference`, the first reply's hash
/// per key), and every distinct output sim-equivalent to its source.
/// Each failed reply counts once in Failures.
struct Checker {
  const Workload& workload;
  int threads;
  std::map<std::size_t, std::uint64_t> reference;  // key -> hash
  std::map<std::size_t, std::string> kept;  // key -> output (keep_outputs)
  std::set<std::size_t> wrong_keys;         // an output check failed

  /// Records the first hash (and kept bytes) per key; drops the bytes.
  void observe(std::vector<Reply>& replies) {
    for (Reply& reply : replies) {
      if (reply.status == "ok" && !reference.count(reply.key)) {
        reference[reply.key] = reply.hash;
        if (!reply.blif.empty()) kept[reply.key] = std::move(reply.blif);
      }
      std::string().swap(reply.blif);
    }
  }

  /// Why `blif`, an output for `key`, is wrong; empty when it is right.
  std::string problem(std::size_t key, const std::string& blif) const {
    const auto ref = reference.find(key);
    if (ref != reference.end() && ref->second != base::fnv1a64(blif))
      return "response bytes differ within the run";
    try {
      const sop::SopNetwork source =
          blif::read_blif_string(workload.wire[key].blif).network;
      const sop::SopNetwork mapped = blif::read_blif_string(blif).network;
      if (!sim::equivalent(sim::design_of(source), sim::design_of(mapped)))
        return "output not equivalent to source";
    } catch (const std::exception& error) {
      return std::string("output unreadable: ") + error.what();
    }
    return {};
  }

  /// Outside any timed window: checks each distinct output once, the
  /// kept ones in place and the others as `harness` serves them again,
  /// so that no more than one output per connection is held at a time.
  void check_outputs(Harness& harness, Failures& failures) {
    std::map<std::size_t, std::string> problems;
    std::vector<std::size_t> keys;
    for (const auto& [key, hash] : reference)
      if (!kept.count(key)) keys.push_back(key);
    std::mutex mu;
    harness.stream(workload, keys, [&](const Reply& reply) {
      std::string why = reply.status == "ok"
                            ? problem(reply.key, reply.blif)
                            : "re-sent request: " + reply.status + " " +
                                  reply.error;
      const std::lock_guard<std::mutex> lock(mu);
      problems[reply.key] = std::move(why);
    });
    std::vector<std::pair<std::size_t, const std::string*>> todo;
    for (const auto& [key, blif] : kept) todo.emplace_back(key, &blif);
    std::vector<std::string> found(todo.size());
    parallel_for(todo.size(), threads, [&](std::size_t i) {
      found[i] = problem(todo[i].first, *todo[i].second);
    });
    for (std::size_t i = 0; i < todo.size(); ++i)
      problems[todo[i].first] = std::move(found[i]);
    for (const auto& [key, why] : problems) {
      if (why.empty()) continue;
      wrong_keys.insert(key);
      failures.note(workload.names[key] + ": " + why);
    }
    kept.clear();
  }

  void count_failed(const std::vector<Reply>& replies,
                    Failures& failures) const {
    for (const Reply& reply : replies) {
      const std::string& name = workload.names[reply.key];
      const auto ref = reference.find(reply.key);
      if (reply.status != "ok") {
        failures.add(name + ": " + reply.status + " " + reply.error);
      } else if (ref == reference.end() || ref->second != reply.hash) {
        failures.add(name + ": response bytes differ within the run");
      } else if (wrong_keys.count(reply.key)) {
        ++failures.count;
      }
    }
  }
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

// ------------------------------------------------------------ replay

/// What replaying one request produced.
struct Replayed {
  std::uint64_t hash = 0;  // of the emitted BLIF
  int trees = 0;           // chortle trees (0 for the portfolio)
  std::int64_t in_bytes = 0;
  std::int64_t out_bytes = 0;
  int stitched = 0;
  int cancelled = 0;
  bdd::FormalOutcome::Status verdict = bdd::FormalOutcome::Status::kEquivalent;
};

/// One request the way Server::process_request serves it.
Replayed replay_one(const serve::MapRequest& request, std::int64_t id,
                    SpanRecorder& spans, core::DpCache& cache) {
  auto root = spans.span("request", id);
  blif::BlifModel model;
  {
    auto span = spans.span("blif.parse", id);
    model = blif::read_blif_string(request.blif);
  }
  net::Network network;
  {
    auto span = spans.span("opt.decompose", id);
    network = opt::decompose_to_and_or(model.network);
  }
  core::Options options;
  options.k = request.k;
  options.jobs = 1;
  portfolio::PortfolioStats race_stats;
  const core::MapResult mapped = [&] {
    if (request.mapper == "chortle") {
      auto span = spans.span("chortle.map", id);
      return core::map_network(network, options, &cache);
    }
    auto span = spans.span("portfolio.map", id);
    const portfolio::PortfolioMapper& racer = portfolio::default_portfolio();
    portfolio::PortfolioConfig race = racer.config();
    race.objective = portfolio::parse_objective("luts");
    return racer.map_with(network, options, race, &race_stats);
  }();
  std::string text;
  {
    auto span = spans.span("blif.emit", id);
    text = blif::write_blif_string(mapped.circuit, model.name + "_luts");
  }
  Replayed out;
  if (request.verify) {
    auto span = spans.span("bdd.verify", id);
    out.verdict = bdd::check_equivalence(model.network, mapped.circuit).status;
  }
  out.hash = base::fnv1a64(text);
  if (request.mapper == "chortle") out.trees = mapped.stats.num_trees;
  out.in_bytes = static_cast<std::int64_t>(request.blif.size());
  out.out_bytes = static_cast<std::int64_t>(text.size());
  out.stitched = race_stats.stitched_trees;
  out.cancelled = race_stats.cancelled;
  return out;
}

struct Replay {
  double seconds = 0.0;  // wall time of the replay proper
  core::DpCache::Stats before;  // cache after the warm-up
  core::DpCache::Stats after;
  std::vector<Replayed> requests;
};

/// Replays `keys` on `threads` threads against a fresh DP cache warmed
/// the way the server's was.
Replay replay(const Workload& workload, const std::vector<std::size_t>& keys,
              int threads, SpanRecorder& spans) {
  core::DpCache cache;
  SpanRecorder off(false);
  parallel_for(workload.warmup.size(), threads, [&](std::size_t i) {
    replay_one(workload.warmup[i], -1, off, cache);
  });
  Replay run;
  run.before = cache.stats();
  run.requests.resize(keys.size());
  const Clock::time_point start = Clock::now();
  parallel_for(keys.size(), threads, [&](std::size_t i) {
    run.requests[i] = replay_one(workload.wire[keys[i]],
                                 static_cast<std::int64_t>(i), spans, cache);
  });
  run.seconds = seconds_since(start);
  run.after = cache.stats();
  return run;
}

obs::Json stage_samples(const std::vector<Reply>& replies) {
  std::vector<double> queue_wait, parse, solve, emit, unstaged, transport;
  for (const Reply& reply : replies) {
    if (reply.status != "ok") continue;
    const serve::StageSeconds& s = reply.stages;
    queue_wait.push_back(s.queue_wait);
    parse.push_back(s.parse);
    solve.push_back(s.solve);
    emit.push_back(s.emit);
    unstaged.push_back(reply.server_s - s.parse - s.solve - s.emit);
    transport.push_back(reply.latency_s - reply.server_s - s.queue_wait);
  }
  obs::Json doc = obs::Json::object();
  doc.set("serve.queue_wait_s", median(queue_wait));
  doc.set("serve.parse_s", median(parse));
  doc.set("serve.solve_s", median(solve));
  doc.set("serve.emit_s", median(emit));
  doc.set("serve.unstaged_s", median(unstaged));
  doc.set("serve.transport_s", median(transport));
  return doc;
}

void run_traced(const Args& args, const Workload& workload,
                double library_build_s, Failures& failures,
                obs::Json& result) {
  // Served passes: per-stage server timings from the responses.
  const std::vector<std::size_t> keys = workload.first_keys(
      args.settings.trace_passes * workload.per_pass);
  Checker checker{workload, args.settings.workers, {}, {}, {}};
  std::vector<Reply> replies;
  {
    Harness harness(args);
    harness.send(workload.warmup);
    replies = harness.pass(workload, keys);
    checker.observe(replies);
    checker.check_outputs(harness, failures);
  }
  checker.count_failed(replies, failures);

  // In-process replay of the same sequence, untraced then traced; each
  // replayed output must be the served one, byte for byte.
  SpanRecorder off(false);
  const Replay untraced = replay(workload, keys, args.settings.workers, off);
  SpanRecorder spans(true);
  const Replay traced = replay(workload, keys, args.settings.workers, spans);
  for (const Replay* run : {&untraced, &traced}) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const Replayed& out = run->requests[i];
      const std::string& name = workload.names[keys[i]];
      const auto ref = checker.reference.find(keys[i]);
      if (ref != checker.reference.end() && ref->second != out.hash)
        failures.add(name + ": in-process replay differs from served bytes");
      else if (out.verdict == bdd::FormalOutcome::Status::kDifferent)
        failures.add(name + ": replay verify found a counterexample");
    }
  }
  std::int64_t trees = 0, in_bytes = 0, out_bytes = 0, stitched = 0,
               cancelled = 0, inconclusive = 0;
  for (const Replayed& out : traced.requests) {
    trees += out.trees;
    in_bytes += out.in_bytes;
    out_bytes += out.out_bytes;
    stitched += out.stitched;
    cancelled += out.cancelled;
    if (out.verdict == bdd::FormalOutcome::Status::kInconclusive)
      ++inconclusive;
  }

  // Each racer of the portfolio, timed solo on the same networks.
  if (args.workload == "serve_signoff") {
    for (std::size_t key = 0; key < workload.wire.size(); ++key) {
      const serve::MapRequest& request = workload.wire[key];
      const net::Network network = opt::decompose_to_and_or(
          blif::read_blif_string(request.blif).network);
      core::Options options;
      options.k = request.k;
      const std::pair<const char*, const char*> racers[] = {
          {"cutmap", "cutmap.map"},
          {"flowmap", "flowmap.map"},
          {"libmap", "libmap.map"}};
      for (const auto& [mapper, layer] : racers) {
        auto span = spans.span(layer, static_cast<std::int64_t>(key));
        core::find_mapper(mapper)->map(network, options);
      }
    }
  }

  if (!spans.write_chrome_trace(args.trace_out))
    failures.add("cannot write trace " + args.trace_out);
  obs::Json self = obs::Json::object();
  for (const auto& [layer, seconds] : spans.self_seconds())
    self.set(layer, seconds);
  obs::Json layers = stage_samples(replies);
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<std::int64_t>(a - b);
  };
  const core::DpCache::Stats& before = traced.before;
  const core::DpCache::Stats& after = traced.after;
  const std::int64_t hits = delta(after.hits, before.hits);
  const std::int64_t misses = delta(after.misses, before.misses);
  layers.set("chortle.trees", trees);
  layers.set("chortle.cache_hit_ratio",
             hits + misses > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(hits + misses)
                               : 0.0);
  layers.set("chortle.cache_misses", misses);
  layers.set("chortle.cache_evictions",
             delta(after.evictions, before.evictions));
  layers.set("chortle.cache_bytes", static_cast<std::int64_t>(after.bytes));
  layers.set("blif.in_bytes", in_bytes);
  layers.set("blif.out_bytes", out_bytes);
  layers.set("portfolio.stitched_trees", stitched);
  layers.set("portfolio.cancelled", cancelled);
  layers.set("bdd.inconclusive", inconclusive);
  layers.set("libmap.library_build_s", library_build_s);
  obs::Json trace = obs::Json::object();
  trace.set("self_s", std::move(self));
  trace.set("layers", std::move(layers));
  trace.set("untraced_s", untraced.seconds);
  trace.set("traced_s", traced.seconds);
  result.set("trace", std::move(trace));
  result.set("attempted",
             static_cast<std::int64_t>(replies.size() + 2 * keys.size()));
  result.set("failed", failures.count);
}

/// The timed run: repeated set-up, the closed loop (and serve_repeat's
/// open loop), then every check.
void run_timed(const Args& args, const Workload& workload,
               double setup_once_s, Failures& failures, obs::Json& result) {
  const bool signoff = args.workload == "serve_signoff";
  const Settings& settings = args.settings;
  // Repeatable set-up: server start, connections, warm-up pass.
  std::vector<double> setup_samples;
  std::unique_ptr<Harness> harness;
  for (int rep = 0; rep < settings.setup_reps; ++rep) {
    harness.reset();
    const Clock::time_point start = Clock::now();
    harness = std::make_unique<Harness>(args);
    harness->send(workload.warmup);
    setup_samples.push_back(seconds_since(start));
  }
  // peak_rss_mb counts from here: the running server and its inputs,
  // not the heap the torn-down set-ups left behind, whose fragmentation
  // moved the peak 20% from run to run.
  restart_peak_rss();

  // Closed loop: serve_signoff pass after pass (one pass is the suite),
  // the others continuously. A continuous loop's pass time runs from
  // the send of a pass's first request to the send of the next pass's
  // first; every pass holds the same work (the same 36 requests, or one
  // fresh netlist per size stratum), so their median is steady against
  // a short stall where a single window total is not.
  Checker checker{workload, settings.workers, {}, {}, {}};
  std::vector<Reply> replies;
  std::vector<double> pass_seconds;
  bool ran_out = false;
  const Clock::time_point window = Clock::now();
  if (signoff) {
    do {
      const Clock::time_point start = Clock::now();
      std::vector<Reply> pass =
          harness->pass(workload, workload.first_keys(workload.per_pass));
      pass_seconds.push_back(seconds_since(start));
      checker.observe(pass);
      for (Reply& reply : pass) replies.push_back(std::move(reply));
    } while (seconds_since(window) < args.seconds);
  } else {
    ClosedLoop loop = harness->closed_loop(workload, args.seconds);
    replies = std::move(loop.replies);
    ran_out = loop.ran_out;
    const std::size_t per_pass = workload.per_pass;
    for (std::size_t end = per_pass; end < replies.size(); end += per_pass)
      pass_seconds.push_back(replies[end].sent_s -
                             replies[end - per_pass].sent_s);
    if (pass_seconds.empty())
      throw std::runtime_error("the closed loop finished no whole pass");
    checker.observe(replies);
  }
  const double window_s = seconds_since(window);
  std::vector<double> latency_ms;
  for (const Reply& reply : replies) latency_ms.push_back(reply.latency_s * 1e3);
  const std::size_t completed = replies.size();

  // luts_total and depth_total cover a fixed request set, the first
  // totals_count requests; if the timed loop ended before them, the rest
  // are sent now, untimed.
  const std::size_t totals_count =
      std::min(workload.limit(),
               (workload.fresh ? kFreshTotalsPasses : 1) * workload.per_pass);
  if (completed < totals_count) {
    std::vector<std::size_t> rest;
    for (std::size_t i = completed; i < totals_count; ++i)
      rest.push_back(workload.key_at(i));
    std::vector<Reply> late = harness->pass(workload, rest);
    checker.observe(late);
    for (Reply& reply : late) replies.push_back(std::move(reply));
  }

  OpenLoop open;
  if (settings.open_requests > 0 && settings.open_rps > 0.0) {
    std::vector<std::size_t> keys;
    for (int i = 0; i < settings.open_requests; ++i)
      keys.push_back(workload.key_at(static_cast<std::size_t>(i)));
    open = harness->open_loop(workload, keys, settings.open_rps);
  }

  // Checks, outside every timed window.
  checker.check_outputs(*harness, failures);
  harness.reset();
  checker.count_failed(replies, failures);
  checker.count_failed(open.replies, failures);

  std::int64_t luts = 0;
  std::int64_t depth = 0;
  std::map<std::string, std::int64_t> verdicts;
  std::set<std::string> inconclusive;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const Reply& reply = replies[i];
    if (i < totals_count) {
      luts += reply.luts;
      depth += reply.depth;
    }
    if (!reply.verified.empty()) ++verdicts[reply.verified];
    if (reply.verified == "inconclusive")
      inconclusive.insert(workload.names[reply.key]);
  }
  obs::Json verdict_doc = obs::Json::object();
  if (signoff) {
    std::int64_t checked = 0;
    for (const auto& [verdict, count] : verdicts) checked += count;
    verdict_doc.set("checked", checked);
    verdict_doc.set("equivalent", verdicts["equivalent"]);
    verdict_doc.set("inconclusive", verdicts["inconclusive"]);
    verdict_doc.set("different", verdicts["different"]);
  } else {
    const auto checked = static_cast<std::int64_t>(checker.reference.size());
    verdict_doc.set("checked", checked);
    verdict_doc.set("equivalent",
                    checked - static_cast<std::int64_t>(
                                  checker.wrong_keys.size()));
  }

  result.set("setup_s", doubles(setup_samples));
  result.set("setup_once_s", setup_once_s);
  result.set("window_s", window_s);
  result.set("seconds", args.seconds);
  result.set("pool_ran_out", ran_out);
  result.set("pass_s", doubles(pass_seconds));
  result.set("latency_ms", doubles(latency_ms));
  result.set("completed", static_cast<std::int64_t>(completed));
  result.set("totals_requests", static_cast<std::int64_t>(totals_count));
  result.set("luts_total", luts);
  result.set("depth_total", depth);
  result.set("verdicts", std::move(verdict_doc));
  result.set("inconclusive",
             strings({inconclusive.begin(), inconclusive.end()}));
  if (!open.replies.empty()) {
    std::vector<double> open_ms;
    std::vector<double> late_ms;
    for (const Reply& reply : open.replies)
      open_ms.push_back(reply.latency_s * 1e3);
    for (const double late : open.late_s) late_ms.push_back(late * 1e3);
    obs::Json doc = obs::Json::object();
    doc.set("offered_rps", settings.open_rps);
    doc.set("window_s", open.window_s);
    doc.set("latency_ms", doubles(open_ms));
    doc.set("late_ms", doubles(late_ms));
    result.set("open", std::move(doc));
  }
  result.set("attempted",
             static_cast<std::int64_t>(replies.size() + open.replies.size()));
  result.set("failed", failures.count);
}

}  // namespace

obs::Json run_served(const Args& args, Clock::time_point process_start) {
  portfolio::ensure_registered();
  const bool signoff = args.workload == "serve_signoff";
  // One-time set-up: inputs, and the lazy K = 6 libmap library that the
  // first portfolio race would otherwise pay for.
  const int pool_passes =
      args.trace ? args.settings.trace_passes : fresh_pool_passes(args);
  const Workload workload = make_workload(args, pool_passes);
  double library_build_s = 0.0;
  if (signoff) {
    const Clock::time_point start = Clock::now();
    build_libmap_library();
    library_build_s = seconds_since(start);
  }
  const double setup_once_s = seconds_since(process_start);

  Failures failures;
  obs::Json result = obs::Json::object();
  result.set("workload", args.workload);
  result.set("seed", static_cast<std::int64_t>(args.seed));
  result.set("digest", workload.digest);
  result.set("suite_requests", static_cast<std::int64_t>(workload.per_pass));
  result.set("input_mb", workload.input_mb());
  if (args.trace)
    run_traced(args, workload, library_build_s, failures, result);
  else
    run_timed(args, workload, setup_once_s, failures, result);
  result.set("failures", strings(failures.messages));
  result.set("peak_rss_mb", peak_rss_mb());
  return result;
}

}  // namespace perfbench
