// The observer pipeline every driver samples through.
//
// The paper's claims are checked on live runs by six optional stages: the
// round time-series, the invariant watchdog (Obs 5.1, mailbox
// conservation, the Lemma 6.6/6.7 rate bounds), the theory oracle (§6.2
// marginals), the §6.3 retune controller, the recovery tracker and the
// snapshot streamer. This class owns the one order they run in at a
// sample point:
//
//   census → series → watchdog → oracle → retune → recovery → streamer
//
// The controller reads the oracle's monitor, recovery reads the watchdog
// and the monitor, and the streamer captures last, so a snapshot sees
// every gauge the other stages wrote for the round. A driver passes only
// what really differs between drivers: which engine the census walks,
// whether conservation is exact at the sample point, and, for the flat
// engine, the shard blocking Obs 5.1 violations are attributed to.
// Observation reads views and counters only and draws no RNG, so
// attaching stages never changes a run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/flat_send_forget.hpp"
#include "obs/export/snapshot.hpp"
#include "obs/oracle/theory_oracle.hpp"
#include "obs/recovery.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"
#include "sim/cluster.hpp"
#include "sim/retune.hpp"

namespace gossip::sim {

class ObserverPipeline {
 public:
  // Stages are borrowed and may be null (detached). Attaching a series
  // also adopts its stride as the sampling stride.
  void attach_series(obs::RoundTimeSeries* series);
  void attach_watchdog(obs::InvariantWatchdog* watchdog) {
    watchdog_ = watchdog;
  }
  void attach_oracle(obs::TheoryOracle* oracle) { oracle_ = oracle; }
  void attach_retune(RetuneController* retune) { retune_ = retune; }
  void attach_recovery(obs::RecoveryTracker* recovery) {
    recovery_ = recovery;
  }
  void attach_streamer(obs::SnapshotStreamer* streamer) {
    streamer_ = streamer;
  }
  // Clamped to >= 1, so the sampling modulus is never a divide-by-zero.
  void set_stride(std::uint64_t stride);

  [[nodiscard]] bool active() const {
    return series_ != nullptr || watchdog_ != nullptr || oracle_ != nullptr ||
           retune_ != nullptr || recovery_ != nullptr || streamer_ != nullptr;
  }
  // Whether `round` is a sample point: a pure function of the round index
  // and the stride, so every worker of a parallel driver agrees on it.
  [[nodiscard]] bool due(std::uint64_t round) const {
    return active() && round % stride_ == 0;
  }

  // Object engine (Round, Event and Arena drivers). `conservation_exact`
  // says nothing is in flight at the sample point; only then does the
  // watchdog check sent = delivered + lost + to_dead + faulted. Recovery's
  // connectivity lane stays in band: the polymorphic cluster has no flat
  // view graph.
  void observe(std::uint64_t round, const Cluster& cluster,
               const obs::CumulativeCounters& counters,
               bool conservation_exact);
  // Flat engine (ShardedDriver), sampled between rounds with every
  // mailbox drained, so conservation is exact. `nodes_per_shard`
  // attributes Obs 5.1 violations to the owning shard; `on_census` sees
  // the probe before any stage runs.
  void observe(
      std::uint64_t round, const FlatSendForgetCluster& cluster,
      std::size_t nodes_per_shard, const obs::CumulativeCounters& counters,
      const std::function<void(const obs::FlatClusterProbe&)>& on_census);

 private:
  // The stages after the census. Exactly one of `object` and `flat` is
  // the census's engine; only the flat one feeds the connectivity lane.
  void run(std::uint64_t round, const obs::FlatClusterProbe& probe,
           const obs::CumulativeCounters& c, bool conservation_exact,
           const Cluster* object, const FlatSendForgetCluster* flat,
           std::size_t nodes_per_shard);

  obs::RoundTimeSeries* series_ = nullptr;
  obs::InvariantWatchdog* watchdog_ = nullptr;
  obs::TheoryOracle* oracle_ = nullptr;
  RetuneController* retune_ = nullptr;
  obs::RecoveryTracker* recovery_ = nullptr;
  obs::SnapshotStreamer* streamer_ = nullptr;
  // The per-id occurrence census the oracle reads; filled only when an
  // oracle is attached.
  std::vector<std::uint32_t> occurrences_;
  std::uint64_t stride_ = 1;
};

}  // namespace gossip::sim
