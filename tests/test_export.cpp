// Export plane: quantile estimation, snapshot streaming (delta-encoded
// JSONL + Prometheus exposition), streamer probes, the Chrome-trace
// exporter, and the determinism contract — attaching exporters never
// perturbs the simulation (the cluster fingerprint stays bit-identical).
#include "obs/export/snapshot.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/flat_send_forget.hpp"
#include "graph/graph_gen.hpp"
#include "obs/export/quantiles.hpp"
#include "obs/export/trace_export.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "sim/sharded_driver.hpp"

namespace gossip::obs {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON well-formedness checker (no JSON
// library in the toolchain; the exporters hand-serialize, so tests must
// independently confirm the output parses).
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(std::string text) : s_(std::move(text)) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
        digits = true;
      }
      ++pos_;
    }
    return digits && pos_ > start;
  }
  bool value() {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      if (!value()) return false;
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string s_;
  std::size_t pos_ = 0;
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Histogram quantile estimation.
// ---------------------------------------------------------------------------

TEST(Quantiles, EmptyHistogramIsZero) {
  const std::vector<double> bounds{10.0, 20.0};
  const std::vector<std::uint64_t> counts{0, 0, 0};
  EXPECT_EQ(histogram_quantile(bounds, counts, 0.5), 0.0);
  const HistogramQuantiles q = estimate_quantiles(bounds, counts);
  EXPECT_EQ(q.p50, 0.0);
  EXPECT_EQ(q.p99, 0.0);
}

TEST(Quantiles, InterpolatesWithinBucket) {
  // All mass in (10, 20]: the median sits mid-bucket.
  const std::vector<double> bounds{10.0, 20.0, 30.0};
  const std::vector<std::uint64_t> counts{0, 10, 0, 0};
  EXPECT_NEAR(histogram_quantile(bounds, counts, 0.5), 15.0, 1e-9);
  EXPECT_NEAR(histogram_quantile(bounds, counts, 0.9), 19.0, 1e-9);
}

TEST(Quantiles, FirstBucketInterpolatesFromZero) {
  const std::vector<double> bounds{10.0};
  const std::vector<std::uint64_t> counts{4, 0};
  EXPECT_NEAR(histogram_quantile(bounds, counts, 0.5), 5.0, 1e-9);
}

TEST(Quantiles, OverflowBucketClampsToLargestBound) {
  const std::vector<double> bounds{10.0, 20.0};
  const std::vector<std::uint64_t> counts{0, 0, 7};
  EXPECT_EQ(histogram_quantile(bounds, counts, 0.99), 20.0);
}

TEST(Quantiles, AllMassInOneBucketStaysInsideItsEdges) {
  // Concentrated mass: every estimate must interpolate inside the one
  // occupied bucket's edges and stay ordered — never escape to a
  // neighbouring bucket.
  const std::vector<double> bounds{10.0, 20.0, 30.0};
  const std::vector<std::uint64_t> counts{0, 1000, 0, 0};
  const HistogramQuantiles q = estimate_quantiles(bounds, counts);
  EXPECT_GT(q.p50, 10.0);
  EXPECT_LE(q.p50, q.p90);
  EXPECT_LE(q.p90, q.p99);
  EXPECT_LE(q.p99, 20.0);
}

TEST(Quantiles, AllMassInOverflowDegeneratesToLargestBound) {
  // Every rank lands in the +inf bucket: with no upper edge to
  // interpolate toward, all three estimates clamp to the largest finite
  // bound — the degenerate p50 == p90 == p99 surface consumers must
  // tolerate.
  const std::vector<double> bounds{10.0, 20.0};
  const std::vector<std::uint64_t> counts{0, 0, 500};
  const HistogramQuantiles q = estimate_quantiles(bounds, counts);
  EXPECT_EQ(q.p50, 20.0);
  EXPECT_EQ(q.p90, 20.0);
  EXPECT_EQ(q.p99, 20.0);
}

TEST(Quantiles, EstimatesAreOrdered) {
  const std::vector<double> bounds{1, 2, 4, 8, 16, 32};
  const std::vector<std::uint64_t> counts{5, 9, 14, 8, 3, 1, 0};
  const HistogramQuantiles q = estimate_quantiles(bounds, counts);
  EXPECT_LE(q.p50, q.p90);
  EXPECT_LE(q.p90, q.p99);
  EXPECT_GT(q.p50, 0.0);
}

// ---------------------------------------------------------------------------
// SnapshotStreamer + JSONL sink: schema header, full first record,
// delta-encoded follow-ups.
// ---------------------------------------------------------------------------

TEST(SnapshotStreamer, JsonlDeltaEncoding) {
  MetricsRegistry registry(1);
  const CounterId hot = registry.counter("hot");
  const CounterId cold = registry.counter("cold");
  const GaugeId level = registry.gauge("level");
  const HistogramId hist = registry.histogram("lat", {1.0, 2.0, 4.0});

  std::ostringstream out;
  SnapshotStreamer streamer(registry,
                            ExportConfig{.snapshot_stride = 5});
  streamer.add_sink(std::make_unique<JsonlSnapshotSink>(out));

  registry.add(hot, 0, 10);
  registry.add(cold, 0, 3);
  registry.set(level, 0, 1.5);
  registry.observe(hist, 0, 1.5);
  EXPECT_FALSE(streamer.observe(7));  // off-cadence round is skipped
  EXPECT_TRUE(streamer.observe(10));

  registry.add(hot, 0, 5);  // only `hot` moves
  EXPECT_TRUE(streamer.observe(15));
  streamer.finish();

  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    JsonChecker checker(line);
    EXPECT_TRUE(checker.valid()) << line;
  }
  // Header carries the schema contract.
  EXPECT_NE(lines[0].find("\"schema\":\"sfgossip.snapshot\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"version\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"delta_encoded\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"snapshot_stride\":5"), std::string::npos);
  // First record is full: every metric appears.
  EXPECT_NE(lines[1].find("\"full\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"cold\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"level\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"lat\""), std::string::npos);
  // Second record is a delta: only `hot` changed.
  EXPECT_NE(lines[2].find("\"full\":false"), std::string::npos);
  EXPECT_NE(lines[2].find("\"hot\":{\"value\":15,\"delta\":5}"),
            std::string::npos)
      << lines[2];
  EXPECT_EQ(lines[2].find("\"cold\""), std::string::npos);
  EXPECT_EQ(lines[2].find("\"level\""), std::string::npos);
  EXPECT_EQ(lines[2].find("\"lat\""), std::string::npos);
  EXPECT_EQ(streamer.snapshots_taken(), 2u);
}

TEST(SnapshotStreamer, SnapshotCarriesQuantiles) {
  MetricsRegistry registry(1);
  const HistogramId hist = registry.histogram("deg", {10.0, 20.0, 30.0});
  for (int i = 0; i < 10; ++i) registry.observe(hist, 0, 15.0);
  SnapshotStreamer streamer(registry);
  streamer.capture(1);
  const RegistrySnapshot& snap = streamer.last();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].total, 10u);
  EXPECT_NEAR(snap.histograms[0].quantiles.p50, 15.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Prometheus sink: name mangling and text exposition format.
// ---------------------------------------------------------------------------

TEST(PrometheusSink, ManglesMetricNames) {
  EXPECT_EQ(PrometheusSnapshotSink::mangle("foo.bar-baz"), "foo_bar_baz");
  EXPECT_EQ(PrometheusSnapshotSink::mangle("9lives"), "_9lives");
  EXPECT_EQ(PrometheusSnapshotSink::mangle("ok_name:x"), "ok_name:x");
  EXPECT_EQ(PrometheusSnapshotSink::mangle("sp ace"), "sp_ace");
}

TEST(PrometheusSink, RendersExposition) {
  MetricsRegistry registry(1);
  const CounterId sent = registry.counter("messages.sent");
  const GaugeId live = registry.gauge("live_nodes");
  const HistogramId deg = registry.histogram("outdegree", {10.0, 20.0});
  registry.add(sent, 0, 42);
  registry.set(live, 0, 100.0);
  registry.observe_n(deg, 0, 5.0, 3);
  registry.observe_n(deg, 0, 15.0, 2);
  registry.observe_n(deg, 0, 99.0, 1);

  SnapshotStreamer streamer(registry);
  streamer.capture(30);
  std::ostringstream out;
  PrometheusSnapshotSink::render(out, streamer.last(), "sfgossip");
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE sfgossip_messages_sent counter"),
            std::string::npos);
  EXPECT_NE(text.find("sfgossip_messages_sent 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sfgossip_live_nodes gauge"), std::string::npos);
  EXPECT_NE(text.find("sfgossip_live_nodes 100"), std::string::npos);
  // Cumulative le= buckets plus the implied +Inf and the sample count.
  EXPECT_NE(text.find("sfgossip_outdegree_bucket{le=\"10\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("sfgossip_outdegree_bucket{le=\"20\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("sfgossip_outdegree_bucket{le=\"+Inf\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("sfgossip_outdegree_count 6"), std::string::npos);
  // Quantile companions are exposition-valid gauges.
  EXPECT_NE(text.find("# TYPE sfgossip_outdegree_p50 gauge"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Streamer probes: externally-fed metrics (recorder drops, serial-driver
// counters) appear in snapshots like native registry metrics.
// ---------------------------------------------------------------------------

TEST(SnapshotStreamer, GaugeProbeSurfacesFlightRecorderDrops) {
  // The serial drivers wire the recorder's ring-wrap count exactly like
  // this (sfgossip's recorder_wrapped probe).
  FlightRecorder recorder(/*shard_count=*/1, /*capacity=*/8);
  MetricsRegistry registry(1);
  SnapshotStreamer streamer(registry);
  streamer.add_gauge_probe("recorder_wrapped", [&recorder]() {
    return static_cast<double>(recorder.dropped(0));
  });

  for (NodeId k = 0; k < 11; ++k) {
    recorder.record(0, {recorder.begin_message(0), 1, k, k + 1,
                        FlightEventKind::kDeliver});
  }
  streamer.capture(1);
  const RegistrySnapshot& snap = streamer.last();
  bool found = false;
  for (const SnapshotGauge& gauge : snap.gauges) {
    if (gauge.name == "recorder_wrapped") {
      found = true;
      EXPECT_EQ(gauge.value, 3.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SnapshotStreamer, CounterProbeFeedsDeltas) {
  MetricsRegistry registry(1);
  SnapshotStreamer streamer(registry);
  std::uint64_t cumulative = 100;
  streamer.add_counter_probe("external", [&cumulative]() {
    return cumulative;
  });
  streamer.capture(1);
  cumulative = 130;
  streamer.capture(2);
  const RegistrySnapshot& snap = streamer.last();
  bool found = false;
  for (const SnapshotCounter& counter : snap.counters) {
    if (counter.name == "external") {
      found = true;
      // First capture seeds the baseline at 100; the second feeds +30.
      EXPECT_EQ(counter.value, 130u);
      EXPECT_EQ(counter.delta, 30u);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// TraceExporter: Chrome-trace JSON schema.
// ---------------------------------------------------------------------------

TEST(TraceExporter, EmitsValidChromeTraceJson) {
  FlightRecorder recorder(2, 64);
  // A cross-shard message lifecycle: send on shard 0, deliver on shard 1.
  const std::uint64_t id = recorder.begin_message(0);
  recorder.record(0, FlightEvent{.message_id = id,
                                 .round = 3,
                                 .node = 1,
                                 .peer = 9,
                                 .kind = FlightEventKind::kSend,
                                 .shard = 0});
  recorder.record(1, FlightEvent{.message_id = id,
                                 .round = 4,
                                 .node = 9,
                                 .peer = 1,
                                 .kind = FlightEventKind::kDeliver,
                                 .shard = 1});
  recorder.record(1, FlightEvent{.message_id = 0,
                                 .round = 5,
                                 .node = 7,
                                 .kind = FlightEventKind::kKill,
                                 .shard = 1});

  PhaseProfiler profiler(2);
  const PhaseId init = profiler.phase("initiate");
  const PhaseId probe = profiler.phase("probe", /*coordinator=*/true);
  profiler.add(init, 0, 1000);
  profiler.add(init, 1, 2000);
  profiler.add(probe, 0, 500);

  TraceExporter exporter;
  exporter.add_profiler(profiler);
  exporter.add_recorder(recorder);
  std::ostringstream out;
  exporter.write(out);
  const std::string text = out.str();

  JsonChecker checker(text);
  EXPECT_TRUE(checker.valid());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  // Phase spans are complete events; lifecycles thread flow arrows.
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos);
  // Instant events carry the flight kinds on the message tracks.
  EXPECT_NE(text.find("\"deliver\""), std::string::npos);
  // Both shard processes plus the coordinator row are named.
  EXPECT_NE(text.find("\"shard 0\""), std::string::npos);
  EXPECT_NE(text.find("\"shard 1\""), std::string::npos);
  EXPECT_NE(text.find("\"coordinator\""), std::string::npos);
}

TEST(TraceExporter, EmptyExporterStillValid) {
  TraceExporter exporter;
  std::ostringstream out;
  exporter.write(out);
  JsonChecker checker(out.str());
  EXPECT_TRUE(checker.valid());
}

// ---------------------------------------------------------------------------
// Determinism: attaching the export plane never perturbs the run.
// ---------------------------------------------------------------------------

std::uint64_t sharded_run_fingerprint(bool with_exporters) {
  const std::size_t n = 2048;
  FlatSendForgetCluster cluster(
      n, SendForgetConfig{.view_size = 40, .min_degree = 18});
  Rng graph_rng(21);
  const Digraph g = permutation_regular(n, 18, graph_rng);
  for (NodeId u = 0; u < n; ++u) {
    cluster.install_view(u, g.out_neighbors(u));
  }
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{
                   .shard_count = 2, .loss_rate = 0.05, .seed = 77});
  driver.set_observation_stride(5);
  std::unique_ptr<SnapshotStreamer> streamer;
  std::ostringstream jsonl;
  if (with_exporters) {
    streamer = std::make_unique<SnapshotStreamer>(
        driver.metrics_registry(), ExportConfig{.snapshot_stride = 1});
    streamer->add_sink(std::make_unique<JsonlSnapshotSink>(jsonl));
    streamer->add_sink(std::make_unique<CallbackSnapshotSink>(
        [](const RegistrySnapshot&) {}));
    driver.attach_streamer(streamer.get());
  }
  driver.run_rounds(40);
  return cluster.fingerprint() ^ (driver.actions_executed() * 0x9E37ULL) ^
         driver.network_metrics().delivered;
}

TEST(ExportPlane, AttachedExportersKeepFingerprintBitIdentical) {
  const std::uint64_t bare = sharded_run_fingerprint(false);
  const std::uint64_t exported = sharded_run_fingerprint(true);
  EXPECT_EQ(bare, exported);
}

TEST(ExportPlane, RecorderWrapGaugeTracksDrops) {
  const std::size_t n = 1024;
  FlatSendForgetCluster cluster(
      n, SendForgetConfig{.view_size = 40, .min_degree = 18});
  Rng graph_rng(9);
  const Digraph g = permutation_regular(n, 18, graph_rng);
  for (NodeId u = 0; u < n; ++u) {
    cluster.install_view(u, g.out_neighbors(u));
  }
  sim::ShardedDriver driver(
      cluster, sim::ShardedDriverConfig{
                   .shard_count = 2, .loss_rate = 0.05, .seed = 3});
  // Tiny ring so the run definitely wraps it.
  FlightRecorder recorder(2, /*capacity=*/64);
  driver.attach_flight_recorder(&recorder);
  SnapshotStreamer streamer(driver.metrics_registry());
  driver.attach_streamer(&streamer);
  driver.run_rounds(20);

  std::uint64_t wrapped = 0;
  for (std::size_t s = 0; s < 2; ++s) wrapped += recorder.dropped(s);
  ASSERT_GT(wrapped, 0u);
  const RegistrySnapshot& snap = streamer.last();
  bool found = false;
  for (const SnapshotGauge& gauge : snap.gauges) {
    if (gauge.name == "recorder_wrapped") {
      found = true;
      EXPECT_EQ(gauge.value, static_cast<double>(wrapped));
    }
  }
  EXPECT_TRUE(found);
}

TEST(ExportPlane, StreamerRequiresTheDriversRegistry) {
  FlatSendForgetCluster cluster(
      64, SendForgetConfig{.view_size = 8, .min_degree = 2});
  sim::ShardedDriver driver(
      cluster,
      sim::ShardedDriverConfig{.shard_count = 1, .loss_rate = 0.0, .seed = 1});
  MetricsRegistry foreign(1);
  SnapshotStreamer streamer(foreign);
  EXPECT_THROW(driver.attach_streamer(&streamer), std::invalid_argument);
}

}  // namespace
}  // namespace gossip::obs
