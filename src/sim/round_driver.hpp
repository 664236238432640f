// Serialized action driver — the paper's analysis model.
//
// "A central entity repeatedly selects a random node, invokes its
// InitiateAction method, and waits for the completion of the Receive by the
// receiving node" (§5). A *round* is the period in which each node is
// expected to initiate exactly one action (§6.5), i.e. live_count()
// uniformly random picks with replacement.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "obs/oracle/flight_recorder.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plane.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "sim/observer_pipeline.hpp"

namespace gossip::sim {

class RoundDriver {
 public:
  // The driver borrows all three; they must outlive it.
  RoundDriver(Cluster& cluster, LossModel& loss, Rng& rng);

  // One action: a uniformly random live node initiates; any messages are
  // delivered (or lost) synchronously before this returns.
  void step();

  // `count` actions.
  void run_actions(std::uint64_t count);

  // `rounds` rounds of live_count() actions each. Attached observers are
  // sampled at round boundaries (when the round index matches the series'
  // stride); step()/run_actions() never sample — there is no round clock.
  void run_rounds(std::uint64_t rounds);

  [[nodiscard]] std::uint64_t actions_executed() const { return actions_; }
  [[nodiscard]] std::uint64_t rounds_completed() const {
    return rounds_completed_;
  }
  [[nodiscard]] const NetworkMetrics& network_metrics() const {
    return network_.metrics();
  }
  [[nodiscard]] Cluster& cluster() { return cluster_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  // --- observability (attach before run_rounds; borrowed, may be null).
  // Observation reads views and counters only: it draws nothing from the
  // RNG, so attaching observers does not change the run. The stages run
  // in ObserverPipeline's order; nothing is in flight at a round boundary
  // here, so the watchdog checks conservation. ---
  void attach_time_series(obs::RoundTimeSeries* series) {
    pipeline_.attach_series(series);
  }
  void attach_watchdog(obs::InvariantWatchdog* watchdog) {
    pipeline_.attach_watchdog(watchdog);
  }
  // Theory-oracle drift detection at round boundaries (same probe inputs
  // as the ShardedDriver's phase C).
  void attach_oracle(obs::TheoryOracle* oracle) {
    pipeline_.attach_oracle(oracle);
  }
  // Transport-level flight recording (send/lose/deliver/to-dead into the
  // recorder's shard 0; see DirectNetwork::set_flight_recorder).
  void attach_flight_recorder(obs::FlightRecorder* recorder);
  // Scripted link-level fault injection on the direct network (the round
  // clock run_rounds maintains doubles as the plane's schedule clock, so
  // only run_rounds — not step/run_actions — advances phases).
  void attach_fault_plane(const FaultPlane* plane);
  // Degradation-window tracking at round boundaries; the connectivity lane
  // is skipped (this driver's polymorphic cluster has no flat view graph).
  void attach_recovery(obs::RecoveryTracker* tracker) {
    pipeline_.attach_recovery(tracker);
  }
  // Online §6.3 retuning at round boundaries (same hook ordering as the
  // ShardedDriver: after the oracle's observe). The actuator supplied to
  // the controller must target this driver's cluster.
  void attach_retune(RetuneController* retune) {
    pipeline_.attach_retune(retune);
  }
  // Streaming telemetry export. This driver has no registry of its own, so
  // the streamer owns/borrows an external one fed through its gauge and
  // counter probes (wired by the caller); the driver only drives the
  // capture clock, invoking the streamer last at each sampled round
  // boundary so snapshots see every observer's output for the round.
  void attach_streamer(obs::SnapshotStreamer* streamer) {
    pipeline_.attach_streamer(streamer);
  }

 private:
  Cluster& cluster_;
  Rng& rng_;
  DirectNetwork network_;
  std::uint64_t actions_ = 0;
  std::uint64_t rounds_completed_ = 0;
  ObserverPipeline pipeline_;
};

}  // namespace gossip::sim
