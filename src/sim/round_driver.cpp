#include "sim/round_driver.hpp"

#include "sim/cluster_probe.hpp"

namespace gossip::sim {

RoundDriver::RoundDriver(Cluster& cluster, LossModel& loss, Rng& rng)
    : cluster_(cluster), rng_(rng), network_(cluster, loss, rng) {}

void RoundDriver::attach_flight_recorder(obs::FlightRecorder* recorder) {
  network_.set_flight_recorder(recorder);
}

void RoundDriver::attach_fault_plane(const FaultPlane* plane) {
  network_.set_fault_plane(plane);
}

void RoundDriver::step() {
  const NodeId initiator = cluster_.random_live_node(rng_);
  cluster_.node(initiator).on_initiate(rng_, network_);
  ++actions_;
}

void RoundDriver::run_actions(std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) step();
}

void RoundDriver::run_rounds(std::uint64_t rounds) {
  for (std::uint64_t r = 0; r < rounds; ++r) {
    network_.set_record_round(rounds_completed_ + 1);
    run_actions(cluster_.live_count());
    ++rounds_completed_;
    if (pipeline_.due(rounds_completed_)) {
      pipeline_.observe(rounds_completed_, cluster_,
                        cumulative_counters(cluster_.aggregate_metrics(),
                                            network_.metrics()),
                        /*conservation_exact=*/true);
    }
  }
}

}  // namespace gossip::sim
