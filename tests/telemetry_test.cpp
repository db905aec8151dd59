#include "common/telemetry.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "common/flight_recorder.hpp"
#include "gen/generators.hpp"
#include "prof/span.hpp"
#include "verify/verifier.hpp"

namespace waveck {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::Registry;
using telemetry::ScopedTimer;
using telemetry::StageTimer;
using telemetry::TimeHistogram;
using telemetry::TraceField;

/// Removes whatever sink a test installed, even on assertion failure.
struct SinkGuard {
  ~SinkGuard() { telemetry::set_trace_sink(nullptr); }
};

TEST(Counter, IncAddResetValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, MovesBothWays) {
  Gauge g;
  g.set(10);
  g.add(-15);
  EXPECT_EQ(g.value(), -5);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Gauge, HighWaterTracksPeak) {
  Gauge g;
  EXPECT_EQ(g.high_water(), 0);
  g.set(4);
  g.add(3);  // 7: the peak
  g.add(-5);
  g.set(1);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.high_water(), 7);
  // Lower observations never lower the mark.
  g.raise_high_water(2);
  EXPECT_EQ(g.high_water(), 7);
  g.raise_high_water(11);
  EXPECT_EQ(g.high_water(), 11);
  g.reset();
  EXPECT_EQ(g.high_water(), 0);
  // Negative values leave the (0-initialised) mark alone.
  g.set(-9);
  EXPECT_EQ(g.high_water(), 0);
}

TEST(Gauge, MergeTakesMaxOfPeaks) {
  Registry a;
  Registry b;
  a.gauge("depth").set(3);
  a.gauge("depth").set(1);  // value 1, peak 3
  b.gauge("depth").set(9);
  b.gauge("depth").set(2);  // value 2, peak 9
  a.merge_from(b);
  EXPECT_EQ(a.gauge("depth").value(), 3);      // values add (1 + 2)
  EXPECT_EQ(a.gauge("depth").high_water(), 9);  // peaks max
}

TEST(StageTimer, AccumulatesCallsAndTime) {
  StageTimer t;
  t.add_ns(1500);
  t.add_ns(500);
  EXPECT_EQ(t.calls(), 2u);
  EXPECT_EQ(t.total_ns(), 2000u);
  EXPECT_DOUBLE_EQ(t.seconds(), 2e-6);
}

TEST(ScopedTimer, AddsOnDestruction) {
  StageTimer t;
  { ScopedTimer s(t); }
  EXPECT_EQ(t.calls(), 1u);
}

TEST(Histogram, BucketBoundaries) {
  // Bucket 0: exact zeros; bucket i: [2^(i-1), 2^i); last bucket: overflow.
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(7), 3u);
  EXPECT_EQ(Histogram::bucket_index(8), 4u);
  EXPECT_EQ(Histogram::bucket_index(UINT64_MAX), Histogram::kBuckets - 1);

  EXPECT_EQ(telemetry::Pow2Ladder::lower(0), 0u);
  EXPECT_EQ(telemetry::Pow2Ladder::lower(1), 1u);
  EXPECT_EQ(telemetry::Pow2Ladder::lower(4), 8u);

  Histogram h;
  h.observe(0);
  h.observe(3);
  h.observe(3);
  h.observe(100);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(Histogram::bucket_index(100)), 1u);
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  Histogram empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  // All-zero observations: bucket 0 is exact.
  Histogram zeros;
  zeros.observe(0);
  zeros.observe(0);
  EXPECT_EQ(zeros.quantile(0.99), 0.0);

  // Every observation is 7 -> bucket [4, 8): any quantile must land inside
  // the bucket's bounds.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(7);
  const double p50 = h.quantile(0.50);
  EXPECT_GE(p50, 4.0);
  EXPECT_LE(p50, 8.0);
  // Interpolation is linear in rank: the median of a single full bucket
  // sits at its midpoint.
  EXPECT_DOUBLE_EQ(p50, 6.0);
}

TEST(Histogram, QuantilesAreMonotonic) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.observe(10);     // bucket [8,16)
  for (int i = 0; i < 9; ++i) h.observe(1000);    // bucket [512,1024)
  h.observe(70000);                               // overflow bucket
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, 8.0);
  EXPECT_LE(p50, 16.0);
  EXPECT_GE(p99, 512.0);
}

TEST(Histogram, SnapshotCarriesQuantiles) {
  Registry reg;
  reg.histogram("test.quantile_hist").observe(12);
  const std::string js = reg.to_json();
  EXPECT_NE(js.find("\"p50\":"), std::string::npos);
  EXPECT_NE(js.find("\"p90\":"), std::string::npos);
  EXPECT_NE(js.find("\"p99\":"), std::string::npos);
}

TEST(TimeHistogram, BucketBoundariesAreInclusiveUpperBounds) {
  // Bucket i holds us <= kBoundsUs[i]; the last bucket is overflow.
  EXPECT_EQ(TimeHistogram::bucket_index(0), 0u);
  EXPECT_EQ(TimeHistogram::bucket_index(50), 0u);
  EXPECT_EQ(TimeHistogram::bucket_index(51), 1u);
  EXPECT_EQ(TimeHistogram::bucket_index(100), 1u);
  EXPECT_EQ(TimeHistogram::bucket_index(1'000), 4u);
  EXPECT_EQ(TimeHistogram::bucket_index(10'000'000), 15u);
  EXPECT_EQ(TimeHistogram::bucket_index(10'000'001),
            TimeHistogram::kBuckets - 1);
  EXPECT_EQ(TimeHistogram::bucket_index(UINT64_MAX),
            TimeHistogram::kBuckets - 1);

  TimeHistogram h;
  h.observe(40);
  h.observe(40);
  h.observe(75);
  h.observe(20'000'000);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 40u + 40u + 75u + 20'000'000u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(TimeHistogram::kBuckets - 1), 1u);
}

TEST(TimeHistogram, ObserveNsDividesToMicroseconds) {
  TimeHistogram h;
  h.observe_ns(49'999);   // 49 us -> bucket 0
  h.observe_ns(250'999);  // 250 us -> still bucket 2 (<= 250)
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.sum(), 49u + 250u);
}

TEST(TimeHistogram, QuantileInterpolatesAndCapsAtOverflow) {
  TimeHistogram empty;
  EXPECT_EQ(empty.quantile_us(0.5), 0.0);

  // 100 observations all in bucket (100, 250]: the median of a single full
  // bucket sits at its midpoint under linear rank interpolation.
  TimeHistogram h;
  for (int i = 0; i < 100; ++i) h.observe(200);
  EXPECT_DOUBLE_EQ(h.quantile_us(0.50), 175.0);
  EXPECT_GT(h.quantile_us(0.99), h.quantile_us(0.10));

  // Overflow bucket reports its lower bound, never infinity.
  TimeHistogram over;
  over.observe(99'000'000);
  EXPECT_DOUBLE_EQ(over.quantile_us(0.5),
                   static_cast<double>(telemetry::LatencyLadder::kBoundsUs.back()));
}

TEST(TimeHistogram, MergeFromAddsBucketsCountAndSum) {
  TimeHistogram a;
  TimeHistogram b;
  a.observe(10);
  a.observe(2'000);
  b.observe(10);
  b.observe(60'000);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 10u + 2'000u + 10u + 60'000u);
  EXPECT_EQ(a.bucket(0), 2u);  // two 10us observations
  EXPECT_EQ(a.bucket(TimeHistogram::bucket_index(2'000)), 1u);
  EXPECT_EQ(a.bucket(TimeHistogram::bucket_index(60'000)), 1u);
  // Source is untouched.
  EXPECT_EQ(b.count(), 2u);

  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.sum(), 0u);
  for (std::size_t i = 0; i < TimeHistogram::kBuckets; ++i) {
    EXPECT_EQ(a.bucket(i), 0u);
  }
}

TEST(TimeHistogram, RegistryExposesJsonAndPrometheus) {
  auto& reg = Registry::global();
  auto& th = reg.time_histogram("test.latency_us");
  EXPECT_EQ(&reg.time_histogram("test.latency_us"), &th);
  th.observe(120);
  th.observe(3'000);

  const std::string js = reg.to_json();
  EXPECT_NE(js.find("\"time_histograms\""), std::string::npos);
  EXPECT_NE(js.find("\"test.latency_us\""), std::string::npos);
  EXPECT_NE(js.find("\"sum_us\":"), std::string::npos);
  EXPECT_NE(js.find("\"p99_us\":"), std::string::npos);

  const std::string prom = reg.to_prometheus("waveck");
  EXPECT_NE(prom.find("waveck_test_latency_us_bucket{le=\"50\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("waveck_test_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("waveck_test_latency_us_sum"), std::string::npos);
  EXPECT_NE(prom.find("waveck_test_latency_us_count"), std::string::npos);
}

/// Fixed observations in both bucket ladders (overflow buckets included)
/// plus a merge_from: the registry's JSON and Prometheus renderings are
/// pinned byte for byte.
void fill_golden(Registry& a) {
  Registry b;
  a.counter("engine.narrowings").add(42);
  a.gauge("engine.queue_depth").set(7);
  a.gauge("engine.queue_depth").set(3);
  a.timer("stage.gitd").add(2, 1'234'567'891);
  for (std::uint64_t v : {0ull, 1ull, 3ull, 5ull, 100ull, 1ull << 20}) {
    a.histogram("engine.narrowing_magnitude").observe(v);
  }
  for (std::uint64_t ns :
       {40'000ull, 75'000ull, 3'000'000ull, 20'000'000'000ull}) {
    a.time_histogram("serve.latency.queued_us").observe_ns(ns);
  }
  b.counter("engine.narrowings").add(8);
  b.histogram("engine.narrowing_magnitude").observe(2);
  b.histogram("engine.narrowing_magnitude").observe(7);
  for (int i = 0; i < 3; ++i) b.histogram("search.conflict_depth").observe(0);
  b.time_histogram("serve.latency.queued_us").observe_ns(120'000);
  a.merge_from(b);
}

TEST(Registry, GoldenJsonBytes) {
  Registry reg;
  fill_golden(reg);
  EXPECT_EQ(reg.to_json(),
      "{\"counters\":{\"engine.narrowings\":50},\"gauges\":{"
      "\"engine.queue_depth\":{\"value\":3,\"max\":7}},\"timers\":{"
      "\"stage.gitd\":{\"calls\":2,\"seconds\":1.23456789}},"
      "\"histograms\":{\"engine.narrowing_magnitude\":{\"count\":8,"
      "\"sum\":1048694,\"buckets\":[1,1,2,2,0,0,0,1,0,0,0,0,0,0,0,0,0,"
      "1],\"p50\":4,\"p90\":78643.2,\"p99\":125829.12},"
      "\"search.conflict_depth\":{\"count\":3,\"sum\":0,\"buckets\":[3,0,0,"
      "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"p50\":0,\"p90\":0,\"p99\":0}},"
      "\"time_histograms\":{\"serve.latency.queued_us\":{\"count\":5,"
      "\"sum_us\":20003235,\"buckets\":[1,1,1,0,0,0,1,0,0,0,0,0,0,0,0,"
      "0,1],\"p50_us\":175,\"p90_us\":10000000,\"p99_us\":10000000}}}");
}

TEST(Registry, GoldenPrometheusBytes) {
  Registry reg;
  fill_golden(reg);
  EXPECT_EQ(reg.to_prometheus("waveck"),
      "# TYPE waveck_engine_narrowings_total counter\n"
      "waveck_engine_narrowings_total 50\n"
      "# TYPE waveck_engine_queue_depth gauge\n"
      "waveck_engine_queue_depth 3\n"
      "# TYPE waveck_engine_queue_depth_max gauge\n"
      "waveck_engine_queue_depth_max 7\n"
      "# TYPE waveck_stage_gitd_seconds_total counter\n"
      "waveck_stage_gitd_seconds_total 1.23456789\n"
      "# TYPE waveck_stage_gitd_calls_total counter\n"
      "waveck_stage_gitd_calls_total 2\n"
      "# TYPE waveck_engine_narrowing_magnitude histogram\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"0\"} 1\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"1\"} 2\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"3\"} 4\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"7\"} 6\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"15\"} 6\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"31\"} 6\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"63\"} 6\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"127\"} 7\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"255\"} 7\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"511\"} 7\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"1023\"} 7\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"2047\"} 7\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"4095\"} 7\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"8191\"} 7\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"16383\"} 7\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"32767\"} 7\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"65535\"} 7\n"
      "waveck_engine_narrowing_magnitude_bucket{le=\"+Inf\"} 8\n"
      "waveck_engine_narrowing_magnitude_sum 1048694\n"
      "waveck_engine_narrowing_magnitude_count 8\n"
      "# TYPE waveck_search_conflict_depth histogram\n"
      "waveck_search_conflict_depth_bucket{le=\"0\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"1\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"3\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"7\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"15\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"31\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"63\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"127\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"255\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"511\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"1023\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"2047\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"4095\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"8191\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"16383\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"32767\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"65535\"} 3\n"
      "waveck_search_conflict_depth_bucket{le=\"+Inf\"} 3\n"
      "waveck_search_conflict_depth_sum 0\n"
      "waveck_search_conflict_depth_count 3\n"
      "# TYPE waveck_serve_latency_queued_us histogram\n"
      "waveck_serve_latency_queued_us_bucket{le=\"50\"} 1\n"
      "waveck_serve_latency_queued_us_bucket{le=\"100\"} 2\n"
      "waveck_serve_latency_queued_us_bucket{le=\"250\"} 3\n"
      "waveck_serve_latency_queued_us_bucket{le=\"500\"} 3\n"
      "waveck_serve_latency_queued_us_bucket{le=\"1000\"} 3\n"
      "waveck_serve_latency_queued_us_bucket{le=\"2500\"} 3\n"
      "waveck_serve_latency_queued_us_bucket{le=\"5000\"} 4\n"
      "waveck_serve_latency_queued_us_bucket{le=\"10000\"} 4\n"
      "waveck_serve_latency_queued_us_bucket{le=\"25000\"} 4\n"
      "waveck_serve_latency_queued_us_bucket{le=\"50000\"} 4\n"
      "waveck_serve_latency_queued_us_bucket{le=\"100000\"} 4\n"
      "waveck_serve_latency_queued_us_bucket{le=\"250000\"} 4\n"
      "waveck_serve_latency_queued_us_bucket{le=\"500000\"} 4\n"
      "waveck_serve_latency_queued_us_bucket{le=\"1000000\"} 4\n"
      "waveck_serve_latency_queued_us_bucket{le=\"2500000\"} 4\n"
      "waveck_serve_latency_queued_us_bucket{le=\"10000000\"} 4\n"
      "waveck_serve_latency_queued_us_bucket{le=\"+Inf\"} 5\n"
      "waveck_serve_latency_queued_us_sum 20003235\n"
      "waveck_serve_latency_queued_us_count 5\n");
}

TEST(Registry, MetricsPersistAndSnapshotIsJson) {
  auto& reg = Registry::global();
  auto& c = reg.counter("test.registry_counter");
  c.inc();
  // Same name returns the same storage.
  EXPECT_EQ(&reg.counter("test.registry_counter"), &c);
  reg.histogram("test.registry_hist").observe(5);
  reg.timer("test.registry_timer").add_ns(100);
  reg.gauge("test.registry_gauge").set(-3);

  const std::string js = reg.to_json();
  EXPECT_NE(js.find("\"counters\""), std::string::npos);
  EXPECT_NE(js.find("\"gauges\""), std::string::npos);
  EXPECT_NE(js.find("\"histograms\""), std::string::npos);
  EXPECT_NE(js.find("\"timers\""), std::string::npos);
  EXPECT_NE(js.find("\"test.registry_counter\""), std::string::npos);
  EXPECT_NE(js.find("\"test.registry_gauge\":{\"value\":-3,\"max\":0}"),
            std::string::npos);
  // Balanced braces/brackets => structurally sound for our writer.
  std::int64_t depth = 0;
  for (char ch : js) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(JsonEscape, EscapesControlAndQuotes) {
  EXPECT_EQ(telemetry::json_escape("a\"b\\c\nd\te"),
            "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(telemetry::json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Trace, NoSinkMeansDisabled) {
  telemetry::set_trace_sink(nullptr);
  EXPECT_FALSE(telemetry::trace_enabled());
  // Safe no-op without a sink.
  telemetry::emit("noop", {{"x", 1}});
}

TEST(JsonlTraceSink, WritesOneSchemaCorrectLinePerEvent) {
  SinkGuard guard;
  std::ostringstream os;
  telemetry::JsonlTraceSink sink(os);
  telemetry::set_trace_sink(&sink);
  telemetry::emit("alpha", {{"n", 7},
                            {"flag", true},
                            {"ratio", 0.5},
                            {"name", "a\"b"}});
  telemetry::emit("beta", {});
  telemetry::set_trace_sink(nullptr);
  telemetry::emit("gamma", {{"dropped", 1}});  // sink removed: not written

  EXPECT_EQ(sink.events_written(), 2u);
  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.rfind("{\"ev\":\"", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"seq\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"t\":"), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(os.str().find("\"n\":7"), std::string::npos);
  EXPECT_NE(os.str().find("\"flag\":true"), std::string::npos);
  EXPECT_NE(os.str().find("\"name\":\"a\\\"b\""), std::string::npos);
  EXPECT_EQ(os.str().find("gamma"), std::string::npos);
}

TEST(JsonlTraceSink, StampsOpenSpanIds) {
  SinkGuard guard;
  std::ostringstream os;
  telemetry::JsonlTraceSink sink(os);
  telemetry::set_trace_sink(&sink);

  telemetry::emit("outside", {});  // no open span: no chk/dec keys
  {
    const std::string output = "out";
    prof::CheckSpan span(output, 7);  // writes its own check_begin line
    EXPECT_GT(span.id(), 0);
    flight::Slot& slot = flight::self();
    EXPECT_EQ(slot.chk.load(), span.id());
    EXPECT_EQ(slot.dec.load(), -1);
    telemetry::emit("in_check", {});
    slot.dec.store(5);
    telemetry::emit("in_decision", {{"x", 1}});
    slot.dec.store(-1);
  }
  EXPECT_EQ(flight::self().chk.load(), -1);
  telemetry::emit("after", {});
  telemetry::set_trace_sink(nullptr);

  std::istringstream in(os.str());
  std::string outside, check_begin, in_check, in_decision, after;
  std::getline(in, outside);
  std::getline(in, check_begin);
  std::getline(in, in_check);
  std::getline(in, in_decision);
  std::getline(in, after);
  EXPECT_EQ(outside.find("\"chk\":"), std::string::npos) << outside;
  EXPECT_NE(in_check.find("\"chk\":"), std::string::npos) << in_check;
  EXPECT_EQ(in_check.find("\"dec\":"), std::string::npos) << in_check;
  EXPECT_NE(in_decision.find("\"dec\":5"), std::string::npos) << in_decision;
  EXPECT_EQ(after.find("\"chk\":"), std::string::npos) << after;
}

TEST(CheckSpan, NestsAndRestores) {
  flight::Slot& slot = flight::self();
  const std::int64_t chk0 = slot.chk.load();
  const std::int64_t dec0 = slot.dec.load();
  const std::string a = "a", b = "b";
  {
    prof::CheckSpan outer(a, 10);
    EXPECT_EQ(std::string(slot.check.load()), "a");
    slot.dec.store(3);
    {
      prof::CheckSpan inner(b, 20);
      EXPECT_GT(inner.id(), outer.id());
      EXPECT_EQ(slot.chk.load(), inner.id());
      EXPECT_EQ(slot.dec.load(), -1);
      EXPECT_EQ(std::string(slot.check.load()), "b");
      EXPECT_EQ(slot.delta.load(), 20);
      (void)inner.close('N', {});
      EXPECT_EQ(slot.check.load(), nullptr);  // closed: the thread is idle
    }
    EXPECT_EQ(slot.chk.load(), outer.id());
    EXPECT_EQ(slot.dec.load(), 3);
    slot.dec.store(-1);
  }
  EXPECT_EQ(slot.chk.load(), chk0);
  EXPECT_EQ(slot.dec.load(), dec0);
  EXPECT_EQ(slot.check.load(), nullptr);
}

/// Counts events by name; used for trace/report parity checks.
struct RecordingSink final : telemetry::TraceSink {
  std::map<std::string, std::size_t> by_name;
  void event(std::string_view name,
             std::span<const TraceField> /*fields*/) override {
    ++by_name[std::string(name)];
  }
};

/// The acceptance-criterion parity check: on a circuit that exercises every
/// stage (Fig. 2 carry-skip adder), the JSONL stream's decision/backtrack/
/// gitd_round/stem counts equal the CheckReport tallies, which themselves
/// are registry snapshots.
TEST(TraceParity, EventCountsMatchReportTallies) {
  Circuit c = gen::carry_skip_adder(16, 4);
  c.set_uniform_delay(DelaySpec::fixed(10));
  Verifier v(c);
  const auto exact = v.exact_floating_delay();  // unsinked warm-up probe

  auto& reg = Registry::global();
  const auto d0 = reg.counter("search.decisions").value();
  const auto b0 = reg.counter("search.backtracks").value();
  const auto g0 = reg.counter("gitd.rounds").value();
  const auto s0 = reg.counter("stem.stems_processed").value();

  SinkGuard guard;
  RecordingSink sink;
  telemetry::set_trace_sink(&sink);
  const auto suite = v.check_circuit(exact.delay);
  telemetry::set_trace_sink(nullptr);

  std::size_t decisions = 0, backtracks = 0, gitd_rounds = 0, stems = 0;
  for (const auto& rep : suite.per_output) {
    decisions += rep.decisions;
    backtracks += rep.backtracks;
    gitd_rounds += rep.gitd_rounds;
    stems += rep.stems_processed;
  }
  EXPECT_EQ(suite.backtracks, backtracks);

  // Trace events == report tallies.
  EXPECT_EQ(sink.by_name["decision"], decisions);
  EXPECT_EQ(sink.by_name["backtrack"], backtracks);
  EXPECT_EQ(sink.by_name["gitd_round"], gitd_rounds);
  EXPECT_EQ(sink.by_name["stem"], stems);
  EXPECT_GE(sink.by_name["propagate"], 1u);
  EXPECT_EQ(sink.by_name["check_begin"], suite.per_output.size());
  EXPECT_EQ(sink.by_name["check_end"], suite.per_output.size());

  // Report tallies == registry deltas.
  EXPECT_EQ(reg.counter("search.decisions").value() - d0, decisions);
  EXPECT_EQ(reg.counter("search.backtracks").value() - b0, backtracks);
  EXPECT_EQ(reg.counter("gitd.rounds").value() - g0, gitd_rounds);
  EXPECT_EQ(reg.counter("stem.stems_processed").value() - s0, stems);

  // At delta_E a vector exists, so the search must have decided something.
  EXPECT_EQ(suite.conclusion, CheckConclusion::kViolation);
  EXPECT_GE(decisions, 1u);
}

TEST(TraceParity, StageTimersCoverCheckSeconds) {
  Circuit c = gen::carry_skip_adder(8, 4);
  c.set_uniform_delay(DelaySpec::fixed(10));
  Verifier v(c);
  const auto rep = v.check_output(*c.find_net("cout"), Time(1));
  const double staged =
      static_cast<double>(rep.stage_perf.total().wall_ns) * 1e-9;
  EXPECT_GT(staged, 0.0);
  // The stage breakdown can't exceed the whole check's wall time.
  EXPECT_LE(staged, rep.seconds + 1e-3);
}

}  // namespace
}  // namespace waveck
