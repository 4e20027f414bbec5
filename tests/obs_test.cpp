#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "base/check.hpp"
#include "base/timer.hpp"
#include "blif/blif.hpp"
#include "chortle/mapper.hpp"
#include "mcnc/generators.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "opt/extract.hpp"
#include "opt/script.hpp"

namespace chortle {
namespace {

using obs::Json;

// ---------------------------------------------------------------- JSON

TEST(Json, RoundTripsEveryKind) {
  Json doc = Json::object();
  doc.set("null", Json());
  doc.set("yes", true);
  doc.set("int", std::int64_t{-42});
  doc.set("big", std::uint64_t{1} << 53);
  doc.set("pi", 3.25);
  doc.set("text", "a\"b\\c\n\t\x01z");
  Json list = Json::array();
  list.push_back(1);
  list.push_back("two");
  doc.set("list", std::move(list));

  std::ostringstream out;
  doc.dump(out, 2);
  const Json back = Json::parse(out.str());
  EXPECT_TRUE(back.find("null")->is_null());
  EXPECT_TRUE(back.find("yes")->as_bool());
  EXPECT_EQ(back.find("int")->as_int(), -42);
  EXPECT_EQ(back.find("big")->as_int(), std::int64_t{1} << 53);
  EXPECT_DOUBLE_EQ(back.find("pi")->as_number(), 3.25);
  EXPECT_EQ(back.find("text")->as_string(), "a\"b\\c\n\t\x01z");
  EXPECT_EQ(back.find("list")->as_array().size(), 2u);
  EXPECT_EQ(back.find("list")->as_array()[1].as_string(), "two");
  EXPECT_EQ(back.find("missing"), nullptr);
}

TEST(Json, PreservesKeyOrder) {
  const Json doc = Json::parse(R"({"z":1,"a":2,"m":3})");
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.as_object()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(Json, ParsesEscapesAndSurrogatePairs) {
  const Json doc = Json::parse(R"("\u0041\u00e9\ud83d\ude00")");
  EXPECT_EQ(doc.as_string(), "A\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), InvalidInput);
  EXPECT_THROW(Json::parse("{"), InvalidInput);
  EXPECT_THROW(Json::parse("[1,]"), InvalidInput);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), InvalidInput);
  EXPECT_THROW(Json::parse("\"unterminated"), InvalidInput);
  EXPECT_THROW(Json::parse("01"), InvalidInput);
  EXPECT_THROW(Json::parse("1 2"), InvalidInput);
  EXPECT_THROW(Json::parse("nul"), InvalidInput);
  EXPECT_THROW(Json::parse("\"\\ud83d\""), InvalidInput);  // lone surrogate
}

// ------------------------------------------------------------- metrics

TEST(Metrics, CountersAccumulateAcrossThreads) {
  obs::Registry registry;
  const obs::MetricId id = registry.counter("test.hits");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) registry.add(id);
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.snapshot().counter("test.hits"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, GaugesKeepLastValueAndHistogramsBucketize) {
  obs::Registry registry;
  const obs::MetricId gauge = registry.gauge("test.depth");
  registry.set_gauge(gauge, 7);
  registry.set_gauge(gauge, -3);

  const obs::MetricId hist =
      registry.histogram("test.lat", {0.001, 0.1, 10.0});
  registry.observe(hist, 0.0005);  // bucket 0
  registry.observe(hist, 0.05);    // bucket 1
  registry.observe(hist, 1.0);     // bucket 2
  registry.observe(hist, 99.0);    // overflow bucket

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.gauges.at("test.depth"), -3);
  const obs::HistogramSnapshot& h = snap.histograms.at("test.lat");
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.buckets,
            (std::vector<std::uint64_t>{1, 1, 1, 1}));
  EXPECT_DOUBLE_EQ(h.min, 0.0005);
  EXPECT_DOUBLE_EQ(h.max, 99.0);
  EXPECT_NEAR(h.sum, 100.0505, 1e-9);
}

TEST(Metrics, SnapshotMergeAndSince) {
  obs::Registry registry;
  const obs::MetricId id = registry.counter("test.n");
  const obs::MetricId hist =
      registry.histogram("test.h", registry.latency_bounds());
  registry.add(id, 5);
  registry.observe(hist, 0.01);
  const obs::MetricsSnapshot before = registry.snapshot();

  registry.add(id, 7);
  registry.observe(hist, 0.02);
  const obs::MetricsSnapshot after = registry.snapshot();
  const obs::MetricsSnapshot delta = after.since(before);
  EXPECT_EQ(delta.counter("test.n"), 7u);
  EXPECT_EQ(delta.histograms.at("test.h").count, 1u);

  obs::MetricsSnapshot merged = before;
  merged.merge(delta);
  EXPECT_EQ(merged.counter("test.n"), after.counter("test.n"));
  EXPECT_EQ(merged.histograms.at("test.h").count, 2u);
}

TEST(Metrics, RegisteringSameNameDifferentKindThrows) {
  obs::Registry registry;
  (void)registry.counter("test.dual");
  EXPECT_THROW((void)registry.gauge("test.dual"), InvalidInput);
  // Same kind find-or-creates the same id.
  EXPECT_EQ(registry.counter("test.dual"), registry.counter("test.dual"));
}

TEST(Metrics, ResetZeroesEverything) {
  obs::Registry& registry = obs::Registry::global();
  OBS_COUNT("test.reset_probe", 3);
  registry.reset();
  EXPECT_EQ(registry.snapshot().counter("test.reset_probe"), 0u);
}

TEST(Metrics, HdrHistogramsRecordSinceAndMerge) {
  obs::Registry registry;
  const obs::MetricId id = registry.hdr("test.hdr.lat");
  registry.observe(id, 0.001);
  registry.observe(id, 0.002);
  const obs::MetricsSnapshot before = registry.snapshot();
  ASSERT_EQ(before.hdr.count("test.hdr.lat"), 1u);
  EXPECT_EQ(before.hdr.at("test.hdr.lat").count, 2u);

  registry.observe(id, 4.0);
  const obs::MetricsSnapshot after = registry.snapshot();
  const obs::MetricsSnapshot delta = after.since(before);
  EXPECT_EQ(delta.hdr.at("test.hdr.lat").count, 1u);
  EXPECT_GT(delta.hdr.at("test.hdr.lat").p50(), 1.0);

  obs::MetricsSnapshot merged = before;
  merged.merge(delta);
  EXPECT_EQ(merged.hdr.at("test.hdr.lat").count, 3u);

  // The hdr kind participates in name/kind conflict detection, and
  // find-or-create returns a stable id.
  EXPECT_THROW((void)registry.counter("test.hdr.lat"), InvalidInput);
  EXPECT_EQ(registry.hdr("test.hdr.lat"), id);
}

TEST(Metrics, SnapshotSectionsAreSortedByName) {
  // Registration order is adversarial; std::map keys must come out
  // sorted so serialized snapshots are diffable run-to-run.
  obs::Registry registry;
  registry.add(registry.counter("z.last"), 1);
  registry.add(registry.counter("a.first"), 1);
  registry.add(registry.counter("m.middle"), 1);
  registry.observe(registry.hdr("z.hdr"), 0.1);
  registry.observe(registry.hdr("a.hdr"), 0.1);
  const obs::MetricsSnapshot snap = registry.snapshot();
  std::vector<std::string> counter_names;
  for (const auto& [name, value] : snap.counters)
    counter_names.push_back(name);
  EXPECT_EQ(counter_names,
            (std::vector<std::string>{"a.first", "m.middle", "z.last"}));
  std::vector<std::string> hdr_names;
  for (const auto& [name, value] : snap.hdr) hdr_names.push_back(name);
  EXPECT_EQ(hdr_names, (std::vector<std::string>{"a.hdr", "z.hdr"}));
}

TEST(Metrics, HdrSnapshotToJsonShape) {
  obs::Histogram hist;
  hist.record(0.001);
  hist.record(0.004);
  hist.record(0.004);
  const Json json = obs::hdr_snapshot_to_json(hist.snapshot());
  EXPECT_EQ(json.find("count")->as_int(), 3);
  EXPECT_NEAR(json.find("sum")->as_number(), 0.009, 1e-12);
  EXPECT_DOUBLE_EQ(json.find("min")->as_number(), 0.001);
  EXPECT_DOUBLE_EQ(json.find("max")->as_number(), 0.004);
  double previous = 0.0;
  for (const char* q : {"p50", "p90", "p99", "p999"}) {
    const Json* value = json.find(q);
    ASSERT_NE(value, nullptr) << q;
    EXPECT_GE(value->as_number(), previous) << q;
    previous = value->as_number();
  }
  // Only occupied buckets serialize, each as {lo, count}.
  const Json* buckets = json.find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->as_array().size(), 2u);
  std::uint64_t total = 0;
  for (const Json& bucket : buckets->as_array()) {
    EXPECT_GE(bucket.find("lo")->as_number(), 0.0);
    total += static_cast<std::uint64_t>(bucket.find("count")->as_int());
  }
  EXPECT_EQ(total, 3u);

  // Empty snapshot: count only, no quantiles to mislead a reader.
  const Json empty = obs::hdr_snapshot_to_json(obs::Histogram().snapshot());
  EXPECT_EQ(empty.find("count")->as_int(), 0);
  EXPECT_EQ(empty.find("p50"), nullptr);
}

// ------------------------------------------------------------- context

TEST(Context, HexIdsRoundTripAndRejectGarbage) {
  EXPECT_EQ(obs::hex_id(0x0123456789abcdefull), "0123456789abcdef");
  EXPECT_EQ(obs::hex_id(0xffull), "00000000000000ff");
  EXPECT_EQ(obs::parse_hex_id("0123456789abcdef"),
            std::optional<std::uint64_t>(0x0123456789abcdefull));
  for (const char* bad : {"", "0123", "0123456789ABCDEF", "0123456789abcdeg",
                          "0123456789abcdef0", " 123456789abcdef"})
    EXPECT_EQ(obs::parse_hex_id(bad), std::nullopt) << bad;
  // Round trip through the wire format is lossless for any id.
  for (const std::uint64_t id : {1ull, 0x8000000000000000ull, ~0ull})
    EXPECT_EQ(obs::parse_hex_id(obs::hex_id(id)), std::optional(id));
}

TEST(Context, GenerateMintsDistinctValidContexts) {
  const obs::RequestContext a = obs::RequestContext::generate();
  const obs::RequestContext b = obs::RequestContext::generate();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  // A child hop shares the trace but gets its own span id.
  const obs::RequestContext child = a.child();
  EXPECT_EQ(child.trace_id, a.trace_id);
  EXPECT_NE(child.span_id, a.span_id);
  EXPECT_FALSE(obs::RequestContext{}.valid());
}

// --------------------------------------------------------------- trace

TEST(Trace, NestedSpansExportAsValidChromeTrace) {
  obs::clear_trace();
  obs::set_trace_enabled(true);
  {
    OBS_SPAN("outer");
    {
      OBS_SPAN_ARG("inner", 17);
    }
  }
  obs::set_trace_enabled(false);
  EXPECT_EQ(obs::trace_event_count(), 2u);

  std::ostringstream out;
  obs::write_chrome_trace(out);
  const Json doc = Json::parse(out.str());
  const Json::Array& events = doc.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 2u);

  // Spans unwind inner-first; both must be complete events on this
  // thread, and the outer one must contain the inner in time.
  const Json& inner = events[0];
  const Json& outer = events[1];
  EXPECT_EQ(inner.find("name")->as_string(), "inner");
  EXPECT_EQ(outer.find("name")->as_string(), "outer");
  EXPECT_EQ(inner.find("ph")->as_string(), "X");
  EXPECT_EQ(inner.find("args")->find("v")->as_int(), 17);
  const std::int64_t inner_ts = inner.find("ts")->as_int();
  const std::int64_t inner_end = inner_ts + inner.find("dur")->as_int();
  const std::int64_t outer_ts = outer.find("ts")->as_int();
  const std::int64_t outer_end = outer_ts + outer.find("dur")->as_int();
  EXPECT_LE(outer_ts, inner_ts);
  EXPECT_LE(inner_end, outer_end);
  EXPECT_EQ(inner.find("tid")->as_int(), outer.find("tid")->as_int());

  obs::clear_trace();
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(Trace, ContextStampedSpansCarryTraceIds) {
  obs::clear_trace();
  obs::set_trace_enabled(true);
  obs::RequestContext context;
  context.trace_id = 0x00000000deadbeefull;
  context.span_id = 0x00000000000000aaull;
  {
    obs::TraceSpan span("stamped", context);
  }
  // Retroactive span (the server's queue-wait shape): explicit begin and
  // end timestamps, same context.
  const std::uint64_t now = obs::trace_now_micros();
  obs::record_span("retro", now > 50 ? now - 50 : 0, now, context);
  obs::set_trace_enabled(false);

  std::ostringstream out;
  obs::write_chrome_trace(out);
  obs::clear_trace();
  const Json doc = Json::parse(out.str());
  const Json::Array& events = doc.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 2u);
  for (const Json& event : events) {
    const Json* args = event.find("args");
    ASSERT_NE(args, nullptr) << event.find("name")->as_string();
    // Hex strings, not numbers: 64-bit ids must stay exact in JSON.
    EXPECT_EQ(args->find("trace")->as_string(), "00000000deadbeef");
    EXPECT_EQ(args->find("span")->as_string(), "00000000000000aa");
  }
}

TEST(Trace, DisabledSpansRecordNothing) {
  obs::clear_trace();
  obs::set_trace_enabled(false);
  {
    OBS_SPAN("invisible");
  }
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

// -------------------------------------------------------------- report

TEST(Report, RoundTripsThroughJson) {
  obs::Registry::global().reset();
  obs::RunReport report("obs_test");
  report.set_option("k", 3);
  report.set_option("smoke", true);
  report.add_phase("map", 0.25);
  report.add_phase("map", 0.25);  // accumulates
  report.add_phase("verify", 0.5);
  report.set_field("failures", 0);
  Json entry = Json::object();
  entry.set("name", "alu2");
  entry.set("luts", 129);
  report.add_benchmark(std::move(entry));

  obs::MetricsSnapshot snap;
  snap.counters["test.metric"] = 11;
  report.capture_metrics(snap);

  EXPECT_DOUBLE_EQ(report.phase_seconds("map"), 0.5);
  EXPECT_DOUBLE_EQ(report.phases_total_seconds(), 1.0);

  std::ostringstream out;
  report.write(out);
  const Json doc = Json::parse(out.str());
  EXPECT_EQ(doc.find("schema")->as_string(), obs::kRunReportSchema);
  EXPECT_EQ(doc.find("tool")->as_string(), "obs_test");
  EXPECT_EQ(doc.find("options")->find("k")->as_int(), 3);
  EXPECT_DOUBLE_EQ(doc.find("phases")->find("map")->as_number(), 0.5);
  EXPECT_EQ(doc.find("counters")->find("test.metric")->as_int(), 11);
  EXPECT_EQ(doc.find("failures")->as_int(), 0);
  EXPECT_EQ(
      doc.find("benchmarks")->as_array()[0].find("name")->as_string(),
      "alu2");
  EXPECT_GT(doc.find("total_seconds")->as_number(), 0.0);
  // ru_maxrss is always positive on Linux/macOS.
  EXPECT_GT(doc.find("peak_rss_kb")->as_int(), 0);
}

TEST(Report, ScopedTimerFeedsPhaseSink) {
  obs::Registry::global().reset();
  obs::RunReport report("obs_test");
  double local = 0.0;
  {
    ScopedTimer timer(obs::phase_sink(report, "busy", &local));
    WallTimer spin;
    while (spin.seconds() < 0.001) {
    }
  }
  EXPECT_GT(report.phase_seconds("busy"), 0.0);
  EXPECT_DOUBLE_EQ(report.phase_seconds("busy"), local);
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  EXPECT_EQ(snap.histograms.at("phase.busy").count, 1u);
}

// --------------------------------------------------- pipeline counters

TEST(Integration, MappingABenchmarkBumpsTheDpCounters) {
  obs::Registry& registry = obs::Registry::global();
  registry.reset();

  // 9symml (rather than, say, count) because its forest has nodes of
  // fanin > 2: decomp_candidates counts evaluated intermediate groups,
  // and fanin-2 nodes have none (their only group is the full subset,
  // handled by the U = 1 pass).
  const sop::SopNetwork source = mcnc::generate("9symml");
  const opt::OptimizedDesign design = opt::optimize(source);
  core::Options options;
  options.k = 3;
  const core::MapResult result = core::map_network(design.network, options);
  EXPECT_GT(result.stats.num_luts, 0);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(snap.counter("chortle.tree.dp_cells"), 0u);
  EXPECT_GT(snap.counter("chortle.tree.util_divisions"), 0u);
  EXPECT_GT(snap.counter("chortle.tree.decomp_candidates"), 0u);
  // k = 3: each group evaluation serves the two utilizations of the
  // sweep, so exactly one re-derivation per group is memoized away.
  EXPECT_EQ(snap.counter("chortle.tree.decomp_memo_hits"),
            snap.counter("chortle.tree.decomp_candidates"));
  EXPECT_GT(snap.counter("chortle.emit.kernel_ops"), 0u);
  EXPECT_GT(snap.counter("chortle.trees_mapped"), 0u);
  EXPECT_GT(snap.counter("chortle.forest.trees"), 0u);
  EXPECT_EQ(snap.counter("chortle.map.networks"), 1u);
  EXPECT_EQ(snap.counter("chortle.map.luts"),
            static_cast<std::uint64_t>(result.stats.num_luts));
}

TEST(Integration, DecompCandidatesCountsEachGroupOnce) {
  obs::Registry& registry = obs::Registry::global();
  registry.reset();

  // One fanin-8 AND gate, K = 4. The memoized decomposition scan
  // evaluates each intermediate group once: every subset S of size
  // s >= 2 contributes 2^(s-1) - 2 proper groups containing its lowest
  // child, which sums to (3^8 + 3 + 16)/2 - 2^9 = 2778.
  net::Network network;
  std::vector<net::Fanin> fanins;
  for (int i = 0; i < 8; ++i)
    fanins.push_back(
        net::Fanin{network.add_input("x" + std::to_string(i)), false});
  network.add_output("f", network.add_gate(net::GateOp::kAnd, fanins),
                     false);

  core::Options options;
  options.k = 4;
  (void)core::map_network(network, options);
  EXPECT_EQ(registry.snapshot().counter("chortle.tree.decomp_candidates"),
            2778u);
}

TEST(Integration, WideFanInNodeCountsASplitEvent) {
  obs::Registry& registry = obs::Registry::global();
  registry.reset();

  // One AND gate whose fanin exceeds the default split threshold (10)
  // forces Builder::attach down the split path.
  net::Network network;
  std::vector<net::NodeId> inputs;
  for (int i = 0; i < 12; ++i)
    inputs.push_back(network.add_input("x" + std::to_string(i)));
  std::vector<net::Fanin> fanins;
  for (net::NodeId input : inputs) fanins.push_back(net::Fanin{input, false});
  const net::NodeId gate = network.add_gate(net::GateOp::kAnd, fanins);
  network.add_output("f", gate, false);

  core::Options options;
  options.k = 4;
  (void)core::map_network(network, options);
  EXPECT_GT(registry.snapshot().counter("chortle.tree.split_events"), 0u);
}

TEST(Integration, ExtractionCountsRoundsCandidatesAndDivisions) {
  obs::Registry& registry = obs::Registry::global();
  registry.reset();

  // f = ab + ac, g = db + dc: each node lists the one kernel b + c.
  // Round 1 scores it (a division at f and at g) and extracts it as
  // ext0; round 2 scores it again, now listed by ext0 alone, and stops.
  sop::SopNetwork network =
      blif::read_blif_string(
          ".model m\n.inputs a b c d\n.outputs f g\n"
          ".names a b c f\n11- 1\n1-1 1\n"
          ".names d b c g\n11- 1\n1-1 1\n.end\n")
          .network;
  const opt::ExtractStats stats = opt::extract_divisors(network);
  EXPECT_EQ(stats.divisors_extracted, 1);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("opt.extract.rounds"), 2u);
  EXPECT_EQ(snap.counter("opt.extract.candidates_scored"), 2u);
  EXPECT_GE(snap.counter("opt.extract.divisions"), 2u);
}

}  // namespace
}  // namespace chortle
