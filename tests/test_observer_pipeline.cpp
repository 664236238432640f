// The observer pipeline: when it is active, that the streamer captures
// after every other stage of the same round, and that conservation is
// only checked where nothing is in flight.
#include "sim/observer_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/prediction.hpp"
#include "core/send_forget.hpp"
#include "graph/graph_gen.hpp"
#include "sim/cluster_probe.hpp"
#include "sim/event_driver.hpp"
#include "sim/sharded_driver.hpp"

namespace gossip::sim {
namespace {

TEST(ObserverPipeline, EmptyPipelineIsInactive) {
  ObserverPipeline pipeline;
  EXPECT_FALSE(pipeline.active());
  EXPECT_FALSE(pipeline.due(0));
  EXPECT_FALSE(pipeline.due(3));

  obs::RoundTimeSeries series(/*stride=*/3);
  pipeline.attach_series(&series);
  EXPECT_TRUE(pipeline.active());
  EXPECT_FALSE(pipeline.due(2));
  EXPECT_TRUE(pipeline.due(3));

  pipeline.attach_series(nullptr);
  EXPECT_FALSE(pipeline.active());
  EXPECT_FALSE(pipeline.due(3));
}

Cluster::ProtocolFactory sf_factory(std::size_t s, std::size_t dl) {
  return [s, dl](NodeId id) {
    return std::make_unique<SendForget>(
        id, SendForgetConfig{.view_size = s, .min_degree = dl});
  };
}

// Simulated time after `rounds` event-driver rounds of period 0.1. One
// run_for(rounds * period) lands on the product; the stepped schedule
// sums the periods, which rounds differently for ten of them.
double event_clock_after(std::size_t rounds, bool observed) {
  Cluster cluster(20, sf_factory(6, 0));
  UniformLoss loss(0.0);
  Rng rng(4);
  EventDriverConfig config;
  config.period = 0.1;
  EventDriver driver(cluster, loss, rng, config);
  obs::RoundTimeSeries series;
  if (observed) driver.attach_time_series(&series);
  driver.run_rounds(rounds);
  EXPECT_EQ(driver.rounds_completed(), rounds);
  EXPECT_EQ(series.samples().size(), observed ? rounds : 0u);
  return driver.now();
}

TEST(ObserverPipeline, UnobservedEventDriverKeepsTheUnsteppedFastPath) {
  EXPECT_EQ(event_clock_after(10, /*observed=*/false), 10 * 0.1);
  EXPECT_NE(event_clock_after(10, /*observed=*/true), 10 * 0.1);
}

TEST(ObserverPipeline, StreamerCapturesTheStagesOfItsOwnRound) {
  constexpr std::size_t kNodes = 64;
  const SendForgetConfig cfg{.view_size = 8, .min_degree = 2};
  constexpr double kLoss = 0.02;
  Rng graph_rng(7);
  FlatSendForgetCluster cluster(kNodes, cfg);
  const Digraph g = permutation_regular(kNodes, cfg.min_degree, graph_rng);
  for (NodeId u = 0; u < kNodes; ++u) {
    cluster.install_view(u, g.out_neighbors(u));
  }
  ShardedDriver driver(cluster,
                       ShardedDriverConfig{.shard_count = 4,
                                           .thread_count = 2,
                                           .loss_rate = kLoss,
                                           .seed = 11});

  const RetuneController::Solver solver =
      [](std::size_t s, std::size_t dl, double loss, double delta) {
        analysis::DegreeMcParams p;
        p.view_size = s;
        p.min_degree = dl;
        p.loss = loss;
        return analysis::make_theory_prediction(
            p, delta, analysis::PredictionSource::kMeanField);
      };
  obs::OracleConfig oracle_config;
  oracle_config.warmup_rounds = 5;
  obs::TheoryOracle oracle(solver(cfg.view_size, cfg.min_degree, kLoss, 0.01),
                           oracle_config);
  RetuneController retune(
      RetuneConfig{}, solver,
      [&cluster](std::size_t dl) { cluster.set_min_degree(dl); });
  retune.bind_oracle(&oracle);
  obs::RecoveryTracker recovery(obs::RecoveryConfig{
      .min_degree = cfg.min_degree, .view_size = cfg.view_size,
      .warmup_rounds = 5});
  obs::SnapshotStreamer streamer(driver.metrics_registry());
  std::vector<obs::RegistrySnapshot> captures;
  streamer.add_sink(std::make_unique<obs::CallbackSnapshotSink>(
      [&captures](const obs::RegistrySnapshot& s) { captures.push_back(s); }));
  driver.attach_oracle(&oracle);
  driver.attach_retune(&retune);
  driver.attach_recovery(&recovery);
  driver.attach_streamer(&streamer);

  obs::MetricsRegistry& registry = driver.metrics_registry();
  // Odd outdegree at one node in 64 puts more than the 1% structural
  // sliver out of band: the degree lane trips in the round it appears.
  constexpr std::uint64_t kInjectRound = 12;
  std::vector<double> degraded_lanes;
  std::size_t drift_changes = 0;
  for (std::uint64_t round = 1; round <= 20; ++round) {
    if (round == kInjectRound) cluster.install_view(40, {1});
    driver.run_rounds(1);
    ASSERT_EQ(captures.size(), round);
    ASSERT_EQ(captures.back().round, round);
    // Every stage gauge the capture holds is the value written this round.
    std::size_t stage_gauges = 0;
    for (const obs::SnapshotGauge& gauge : captures.back().gauges) {
      const bool recovery_gauge = gauge.name.rfind("recovery_", 0) == 0;
      const bool drift_gauge = gauge.name.rfind("drift_", 0) == 0;
      if (!recovery_gauge && !drift_gauge) continue;
      ++stage_gauges;
      EXPECT_EQ(gauge.value, registry.gauge_value(registry.gauge(gauge.name)))
          << gauge.name << " at round " << round;
      if (drift_gauge && gauge.changed) ++drift_changes;
      if (gauge.name == "recovery_degraded_lanes") {
        degraded_lanes.push_back(gauge.value);
      }
    }
    EXPECT_GE(stage_gauges, 5u);
  }
  ASSERT_EQ(degraded_lanes.size(), 20u);
  // The injection round's own capture already counts the degree lane.
  EXPECT_GT(degraded_lanes[kInjectRound - 1], degraded_lanes[kInjectRound - 2]);
  EXPECT_GT(drift_changes, 0u);
}

TEST(ObserverPipeline, MidFlightSamplesNeverCheckConservation) {
  // With latency, messages are in flight at every EventDriver sample
  // point, so sent > delivered + lost + to_dead there: a real gap that
  // check_conservation would flag.
  Rng graph_rng(3);
  constexpr std::size_t kNodes = 60;
  Cluster cluster(kNodes, sf_factory(8, 2));
  cluster.install_graph(permutation_regular(kNodes, 2, graph_rng));
  UniformLoss loss(0.05);
  Rng rng(8);
  EventDriverConfig config;
  config.latency = LatencyModel{.min_latency = 4.0, .max_latency = 8.0};
  EventDriver driver(cluster, loss, rng, config);
  obs::InvariantWatchdog watchdog(
      obs::WatchdogConfig{.min_degree = 2, .view_size = 8});
  driver.attach_watchdog(&watchdog);
  driver.run_rounds(30);

  const NetworkMetrics& net = driver.network_metrics();
  ASSERT_GT(net.sent, net.delivered + net.lost + net.to_dead + net.faulted);
  EXPECT_GT(watchdog.checks_run(), 0u);
  const auto& log = watchdog.log();
  EXPECT_TRUE(std::none_of(log.begin(), log.end(), [](const obs::Violation& v) {
    return v.kind == obs::ViolationKind::kMailboxConservation;
  })) << watchdog.report();

  // The same counters, checked directly, do trip conservation.
  obs::InvariantWatchdog direct(
      obs::WatchdogConfig{.min_degree = 2, .view_size = 8});
  direct.check_conservation(driver.rounds_completed(),
                            cumulative_counters(cluster.aggregate_metrics(),
                                                net));
  ASSERT_EQ(direct.violation_count(), 1u);
  EXPECT_EQ(direct.log().front().kind,
            obs::ViolationKind::kMailboxConservation);
}

}  // namespace
}  // namespace gossip::sim
