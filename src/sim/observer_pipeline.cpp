#include "sim/observer_pipeline.hpp"

#include <algorithm>

#include "sim/cluster_probe.hpp"

namespace gossip::sim {

void ObserverPipeline::attach_series(obs::RoundTimeSeries* series) {
  series_ = series;
  if (series != nullptr) set_stride(series->stride());
}

void ObserverPipeline::set_stride(std::uint64_t stride) {
  stride_ = std::max<std::uint64_t>(1, stride);
}

void ObserverPipeline::observe(std::uint64_t round, const Cluster& cluster,
                               const obs::CumulativeCounters& counters,
                               bool conservation_exact) {
  const obs::FlatClusterProbe probe =
      probe_cluster(cluster, oracle_ != nullptr ? &occurrences_ : nullptr);
  run(round, probe, counters, conservation_exact, &cluster, nullptr, 0);
}

void ObserverPipeline::observe(
    std::uint64_t round, const FlatSendForgetCluster& cluster,
    std::size_t nodes_per_shard, const obs::CumulativeCounters& counters,
    const std::function<void(const obs::FlatClusterProbe&)>& on_census) {
  const obs::FlatClusterProbe probe = obs::probe_cluster(
      cluster, oracle_ != nullptr ? &occurrences_ : nullptr);
  on_census(probe);
  run(round, probe, counters, /*conservation_exact=*/true, nullptr, &cluster,
      nodes_per_shard);
}

void ObserverPipeline::run(std::uint64_t round,
                           const obs::FlatClusterProbe& probe,
                           const obs::CumulativeCounters& c,
                           bool conservation_exact, const Cluster* object,
                           const FlatSendForgetCluster* flat,
                           std::size_t nodes_per_shard) {
  if (series_ != nullptr) {
    series_->record(round, probe.outdegree, probe.indegree, probe.live_nodes,
                    probe.empty_slot_fraction, c);
  }
  if (watchdog_ != nullptr) {
    if (flat != nullptr) {
      watchdog_->check_cluster(round, *flat, nodes_per_shard);
    } else {
      for (NodeId u = 0; u < object->size(); ++u) {
        if (!object->live(u)) continue;
        watchdog_->check_degree(round, u, /*shard=*/0,
                                object->node(u).view().degree());
      }
    }
    if (conservation_exact) watchdog_->check_conservation(round, c);
    watchdog_->check_rates(round, c);
  }
  if (oracle_ != nullptr) {
    oracle_->observe(round, probe, occurrences_, c);
  }
  if (retune_ != nullptr) {
    // After the oracle (the controller reads its monitor), before recovery
    // classifies the round. Drivers sample between rounds, so the
    // actuator's cluster mutation (set_min_degree) is safe here.
    retune_->observe(round, c);
  }
  if (recovery_ != nullptr) {
    recovery_->observe(round, probe, flat, watchdog_,
                       oracle_ != nullptr ? &oracle_->monitor() : nullptr);
  }
  if (streamer_ != nullptr) {
    // Last: the snapshot must see every gauge the stages above wrote this
    // round. Capture reads registry state only.
    streamer_->observe(round);
  }
}

}  // namespace gossip::sim
