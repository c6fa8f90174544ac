// The observability layer (src/obs): histogram bucket boundaries and
// percentile extraction, the runtime enable/disable no-op contract,
// registry JSON/Prometheus exports, trace ring overflow, synthetic-track
// layout for retroactive spans, and — end to end — that a multi-threaded
// engine batch traced under load exports well-formed Chrome trace-event
// JSON while leaving the results document byte-identical to an untraced
// run.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "io/result_io.hpp"
#include "obs/trace.hpp"

namespace mpsched {
namespace {

using obs::Histogram;
using obs::Registry;

/// Every obs test restores the process-wide defaults (metrics on, tracing
/// off, empty ring) so test order never leaks state.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::set_tracing_enabled(false);
    obs::clear_trace();
  }
  void TearDown() override {
    obs::set_metrics_enabled(true);
    obs::set_tracing_enabled(false);
    obs::set_trace_capacity(65536);
    obs::clear_trace();
  }
};

TEST_F(ObsTest, HistogramBucketBoundaries) {
  Histogram h({1.0, 2.0, 4.0});
  // A value exactly on an upper bound belongs to that bucket (Prometheus
  // `le` semantics), one past it to the next.
  h.record(0.5);   // bucket 0
  h.record(1.0);   // bucket 0 (le 1)
  h.record(1.01);  // bucket 1
  h.record(2.0);   // bucket 1 (le 2)
  h.record(4.0);   // bucket 2 (le 4)
  h.record(4.5);   // overflow
  h.record(-3.0);  // below every bound: bucket 0
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.01 + 2.0 + 4.0 + 4.5 - 3.0);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket(0), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST_F(ObsTest, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST_F(ObsTest, HistogramPercentiles) {
  Histogram h({10.0, 20.0, 40.0});
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);  // empty
  for (int i = 0; i < 50; ++i) h.record(5.0);   // bucket 0
  for (int i = 0; i < 30; ++i) h.record(15.0);  // bucket 1
  for (int i = 0; i < 20; ++i) h.record(30.0);  // bucket 2
  // Nearest-rank with linear interpolation across the containing bucket:
  // rank 50 exhausts bucket 0 exactly, so p50 lands on its upper bound.
  EXPECT_DOUBLE_EQ(h.percentile(50), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 10.0 * (1.0 / 50.0));  // rank floor is 1
  EXPECT_DOUBLE_EQ(h.percentile(80), 20.0);
  EXPECT_DOUBLE_EQ(h.percentile(90), 30.0);  // halfway into [20, 40)
  EXPECT_DOUBLE_EQ(h.percentile(100), 40.0);

  // Overflow samples clamp to the last finite bound — the histogram
  // cannot claim precision it does not have.
  Histogram overflow({1.0, 2.0});
  overflow.record(100.0);
  EXPECT_DOUBLE_EQ(overflow.percentile(50), 2.0);
  EXPECT_DOUBLE_EQ(overflow.percentile(99), 2.0);
}

TEST_F(ObsTest, RecordingACountEqualsThatManySingleRecords) {
  // Values whose products and sums are exact in binary, in every bucket
  // and the overflow one; a zero count records nothing.
  const std::vector<std::pair<double, std::uint64_t>> records = {
      {0.5, 3}, {1.0, 64}, {1.5, 7}, {4.0, 2}, {9.25, 5}, {-2.0, 4}, {3.0, 0}};
  Histogram batched({1.0, 2.0, 4.0});
  Histogram single({1.0, 2.0, 4.0});
  for (const auto& [value, count] : records) {
    batched.record(value, count);
    for (std::uint64_t n = 0; n < count; ++n) single.record(value);
  }
  for (std::size_t i = 0; i <= batched.bounds().size(); ++i)
    EXPECT_EQ(batched.bucket(i), single.bucket(i)) << "bucket " << i;
  EXPECT_EQ(batched.count(), single.count());
  EXPECT_EQ(batched.count(), 85u);
  EXPECT_EQ(batched.sum(), single.sum());
  EXPECT_EQ(batched.sum(), 0.5 * 3 + 64.0 + 1.5 * 7 + 8.0 + 9.25 * 5 - 8.0);

  obs::set_metrics_enabled(false);
  batched.record(0.5, 10);
  obs::set_metrics_enabled(true);
  EXPECT_EQ(batched.count(), 85u);
  EXPECT_EQ(batched.bucket(0), single.bucket(0));
  EXPECT_EQ(batched.sum(), single.sum());
}

TEST_F(ObsTest, DisabledPathRecordsNothing) {
  Histogram h({1.0});
  obs::Counter counter;
  obs::Gauge gauge;
  counter.add(3);
  gauge.set(7);
  h.record(0.5);
  EXPECT_EQ(counter.value(), 3u);
  EXPECT_EQ(gauge.value(), 7);
  EXPECT_EQ(h.count(), 1u);

  obs::set_metrics_enabled(false);
  counter.add(100);
  gauge.set(100);
  gauge.add(100);
  h.record(0.5);
  EXPECT_EQ(counter.value(), 3u);
  EXPECT_EQ(gauge.value(), 7);
  EXPECT_EQ(h.count(), 1u);

  obs::set_metrics_enabled(true);
  counter.add();
  EXPECT_EQ(counter.value(), 4u);
}

TEST_F(ObsTest, RegistryExportsJsonAndPrometheus) {
  Registry& registry = Registry::global();
  obs::Counter& counter = registry.counter("obs_test.events");
  obs::Gauge& gauge = registry.gauge("obs_test.depth");
  Histogram& h = registry.histogram("obs_test.latency_ms", {1.0, 10.0});
  // Lookup is stable: the same name resolves to the same instrument.
  EXPECT_EQ(&counter, &registry.counter("obs_test.events"));
  EXPECT_EQ(&h, &registry.histogram("obs_test.latency_ms"));
  counter.reset();
  gauge.reset();
  h.reset();
  counter.add(2);
  gauge.set(-4);
  h.record(0.5);
  h.record(100.0);

  const Json doc = registry.to_json();
  EXPECT_EQ(doc.at("counters").at("obs_test.events").as_int(), 2);
  EXPECT_EQ(doc.at("gauges").at("obs_test.depth").as_int(), -4);
  const Json& hist = doc.at("histograms").at("obs_test.latency_ms");
  EXPECT_EQ(hist.at("count").as_int(), 2);
  const Json::Array& buckets = hist.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets[0].at("le").as_double(), 1.0);
  EXPECT_EQ(buckets[2].at("le").as_string(), "+Inf");
  EXPECT_EQ(buckets[0].at("count").as_int(), 1);
  EXPECT_EQ(buckets[2].at("count").as_int(), 1);
  // The export itself round-trips through the parser.
  EXPECT_EQ(Json::parse(doc.dump(-1)).dump(-1), doc.dump(-1));

  const std::string page = registry.to_prometheus();
  EXPECT_NE(page.find("# TYPE mpsched_obs_test_events counter\n"), std::string::npos);
  EXPECT_NE(page.find("mpsched_obs_test_events 2\n"), std::string::npos);
  EXPECT_NE(page.find("mpsched_obs_test_depth -4\n"), std::string::npos);
  EXPECT_NE(page.find("# TYPE mpsched_obs_test_latency_ms histogram\n"),
            std::string::npos);
  // Cumulative buckets: le="10" holds everything at or below it, +Inf
  // holds the total.
  EXPECT_NE(page.find("mpsched_obs_test_latency_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(page.find("mpsched_obs_test_latency_ms_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(page.find("mpsched_obs_test_latency_ms_count 2\n"), std::string::npos);
}

TEST_F(ObsTest, TraceRingDropsOldestOnOverflow) {
  obs::set_trace_capacity(4);
  obs::set_tracing_enabled(true);
  for (int i = 0; i < 6; ++i)
    obs::record_span("ring_span", i * 1000, i * 1000 + 500,
                     "span " + std::to_string(i));
  EXPECT_EQ(obs::trace_span_count(), 4u);
  EXPECT_EQ(obs::trace_dropped(), 2u);

  // The survivors are the four youngest, oldest-first.
  const Json doc = obs::trace_to_json();
  std::vector<double> begin_ts;
  for (const Json& e : doc.at("traceEvents").as_array())
    if (e.at("ph").as_string() == "B") begin_ts.push_back(e.at("ts").as_double());
  ASSERT_EQ(begin_ts.size(), 4u);
  EXPECT_DOUBLE_EQ(begin_ts.front(), 2.0);  // span 2 at 2000 ns = 2 us
  EXPECT_DOUBLE_EQ(begin_ts.back(), 5.0);

  obs::clear_trace();
  EXPECT_EQ(obs::trace_span_count(), 0u);
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

/// Walks a trace document asserting the trace-event schema invariants:
/// globally non-decreasing ts and strict per-tid B/E nesting. Collects
/// the span names that opened at least once (void return: ASSERT_* needs
/// a void context).
void expect_valid_trace(const Json& doc, std::set<std::string>& names) {
  std::map<std::int64_t, std::vector<std::string>> open;
  double last_ts = -1.0;
  for (const Json& e : doc.at("traceEvents").as_array()) {
    const std::string phase = e.at("ph").as_string();
    if (phase == "M") continue;
    ASSERT_TRUE(phase == "B" || phase == "E") << phase;
    const double ts = e.at("ts").as_double();
    EXPECT_GE(ts, last_ts) << "ts went backwards";
    last_ts = ts;
    const std::int64_t tid = e.at("tid").as_int();
    const std::string name = e.at("name").as_string();
    if (phase == "B") {
      open[tid].push_back(name);
      names.insert(name);
    } else {
      ASSERT_FALSE(open[tid].empty()) << "E without open B on tid " << tid;
      EXPECT_EQ(open[tid].back(), name) << "mismatched E on tid " << tid;
      open[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : open)
    EXPECT_FALSE(!stack.empty()) << "tid " << tid << " left '" << stack.back()
                                 << "' open";
}
std::set<std::string> valid_trace_names(const Json& doc) {
  std::set<std::string> names;
  expect_valid_trace(doc, names);
  return names;
}

TEST_F(ObsTest, RetroactiveSpansLandOnNonOverlappingTracks) {
  obs::set_tracing_enabled(true);
  // Three mutually overlapping intervals cannot share a track without
  // breaking B/E nesting; the exporter must fan them out.
  obs::record_span("overlap", 0, 1000);
  obs::record_span("overlap", 200, 800);
  obs::record_span("overlap", 500, 1500);
  obs::record_span("overlap", 2000, 2100);  // fits after the first ends
  const Json doc = obs::trace_to_json();
  valid_trace_names(doc);

  std::set<std::int64_t> tids;
  for (const Json& e : doc.at("traceEvents").as_array())
    if (e.at("ph").as_string() == "B") tids.insert(e.at("tid").as_int());
  // Synthetic tracks live in the million range, away from real thread ids.
  for (const std::int64_t tid : tids) EXPECT_GE(tid, 1000000);
  EXPECT_EQ(tids.size(), 3u);  // greedy layout: 3 tracks cover 4 spans
}

TEST_F(ObsTest, ZeroLengthSpansExportTheirBeginFirst) {
  obs::set_tracing_enabled(true);
  // Two zero-length spans (a caller-run flush's queue waits) at the instant
  // one span ends and another starts. At one ts the ended span closes, the
  // starting one opens, then each zero-length span opens and closes.
  obs::record_span("before", 0, 1000);
  obs::record_span("zero", 1000, 1000);
  obs::record_span("zero", 1000, 1000);
  obs::record_span("after", 1000, 2000);
  const Json doc = obs::trace_to_json();
  valid_trace_names(doc);
  std::vector<std::string> order;
  for (const Json& e : doc.at("traceEvents").as_array())
    if (e.at("ph").as_string() != "M")
      order.push_back(e.at("ph").as_string() + " " + e.at("name").as_string());
  EXPECT_EQ(order, (std::vector<std::string>{"B before", "E before", "B after", "B zero",
                                             "E zero", "B zero", "E zero", "E after"}));
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  obs::record_span("never", 0, 100);
  { obs::Span span("also_never"); }
  EXPECT_EQ(obs::trace_span_count(), 0u);
  // A span constructed while tracing is off stays unrecorded even if
  // tracing turns on before its destructor runs.
  {
    obs::Span span("straddler");
    obs::set_tracing_enabled(true);
  }
  EXPECT_EQ(obs::trace_span_count(), 0u);
}

TEST_F(ObsTest, TracedMultiThreadedBatchExportsValidTraceAndIdenticalResults) {
  std::vector<engine::Job> jobs;
  for (const char* spec : {"paper_3dft", "small_example", "fir(8)", "dct8",
                           "paper_3dft", "stencil5(3,3)"})
    jobs.push_back(engine::Job::from_workload(spec));

  const auto run = [&jobs] {
    engine::EngineOptions options;
    options.threads = 4;
    engine::Engine eng(options);
    return batch_to_json(eng.run_batch(jobs)).dump(-1);
  };

  const std::string reference = run();  // tracing off, metrics on (default)

  // Tracing on: the results document must not move by a byte.
  obs::set_tracing_enabled(true);
  EXPECT_EQ(run(), reference);
  obs::set_tracing_enabled(false);

  // Metrics off: same contract.
  obs::set_metrics_enabled(false);
  EXPECT_EQ(run(), reference);
  obs::set_metrics_enabled(true);

  // The traced run's export is well-formed: parseable, monotonic ts,
  // every B matched by its E — across 4 worker threads plus the
  // dispatcher. Under the sanitizer leg this also races the ring.
  const Json doc = obs::trace_to_json();
  const std::string dumped = doc.dump(-1);
  EXPECT_EQ(Json::parse(dumped).dump(-1), dumped);
  const std::set<std::string> names = valid_trace_names(doc);
  EXPECT_TRUE(names.count("engine.dispatch"));
  EXPECT_TRUE(names.count("engine.prepare"));
  EXPECT_TRUE(names.count("engine.enumerate"));
  EXPECT_TRUE(names.count("engine.select"));
  EXPECT_TRUE(names.count("engine.schedule"));
  EXPECT_TRUE(names.count("queue.wait"));

  // And the lifecycle left its marks in the metrics registry.
  const Json metrics = Registry::global().to_json();
  EXPECT_GT(metrics.at("counters").at("engine.dispatches").as_int(), 0);
  EXPECT_GT(metrics.at("histograms").at("engine.shard_ms").at("count").as_int(), 0);
  // Every shard records its thread CPU time beside its wall time.
  EXPECT_EQ(metrics.at("histograms").at("engine.shard_cpu_ms").at("count").as_int(),
            metrics.at("histograms").at("engine.shard_ms").at("count").as_int());
  EXPECT_GT(metrics.at("histograms").at("queue.wait_ms").at("count").as_int(), 0);
}

TEST_F(ObsTest, ZeroWaitQueueSpansStayOrdered) {
  // Regression for the queue.wait telemetry: the span start used to be
  // reconstructed as flush_ns − waited_ms·1e6 through a double rounded to
  // whole milliseconds, so a sub-µs wait could place the start *after*
  // the flush and export an inverted span. The start now comes straight
  // from the entry's enqueue timestamp (obs::trace_ns_of), clamped to the
  // flush. Flush-on-idle lone submissions are the zero-wait extreme.
  obs::set_tracing_enabled(true);
  engine::Engine eng;
  for (int i = 0; i < 8; ++i) {
    const engine::BatchResult batch =
        eng.run_batch({engine::Job::from_workload("small_example")});
    ASSERT_EQ(batch.succeeded(), 1u);
  }
  // An inverted queue.wait span exports its E before its B, which the
  // schema walk rejects (monotonic ts + strict per-track nesting).
  const Json doc = obs::trace_to_json();
  const std::set<std::string> names = valid_trace_names(doc);
  EXPECT_TRUE(names.count("queue.wait"));

  // trace_ns_of itself: a time point before the trace epoch clamps to 0
  // instead of going negative, and now() measures as a sane, growing ns.
  const auto now = std::chrono::steady_clock::now();
  EXPECT_EQ(obs::trace_ns_of(now - std::chrono::hours(24 * 365)), 0);
  const std::int64_t a = obs::trace_ns_of(now);
  EXPECT_GE(a, 0);
  EXPECT_LE(a, obs::trace_ns_of(std::chrono::steady_clock::now()));
}

}  // namespace
}  // namespace mpsched
