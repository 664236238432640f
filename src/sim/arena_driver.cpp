#include "sim/arena_driver.hpp"

#include <algorithm>
#include <cassert>

#include "sim/cluster_probe.hpp"

namespace gossip::sim {

namespace {

// ceil(n / shards), with both normalized to >= 1.
std::size_t per_shard(std::size_t n, std::size_t shards) {
  if (n == 0) n = 1;
  return (n + shards - 1) / shards;
}

}  // namespace

ArenaDriver::ArenaDriver(Cluster& cluster, ArenaDriverConfig config)
    : cluster_(cluster),
      config_([&] {
        ArenaDriverConfig c = config;
        if (c.shards == 0) c.shards = 1;
        if (c.threads == 0) c.threads = 1;
        if (c.observation_stride == 0) c.observation_stride = 1;
        return c;
      }()),
      nodes_per_shard_(per_shard(cluster.size(), config_.shards)),
      pool_(config_.threads),
      // The churn stream sits past every shard stream, so churn decisions
      // never perturb protocol randomness.
      churn_rng_(Rng::stream(config_.seed, config_.shards)) {
  shard_rngs_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shard_rngs_.push_back(Rng::stream(config_.seed, s));
  }
  shard_metrics_.resize(config_.shards);
  const auto make_frame = [this] {
    return std::vector<std::vector<std::vector<Message>>>(
        config_.shards, std::vector<std::vector<Message>>(config_.shards));
  };
  outbox_ = make_frame();
  inflight_ = make_frame();
  next_inflight_ = make_frame();
}

void ArenaDriver::attach_fault_plane(const FaultPlane* plane) {
  fault_plane_ = plane;
  fault_ctxs_.clear();
  if (plane == nullptr) return;
  fault_ctxs_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    fault_ctxs_.push_back(plane->make_context());
  }
}

void ArenaDriver::ShardTransport::send(Message message) {
  ArenaDriver& d = *driver;
  NetworkMetrics& metrics = d.shard_metrics_[shard];
  ++metrics.sent;
  Rng& rng = d.shard_rngs_[shard];
  // Fault plane first (scripted faults), then ambient loss — the same
  // composition as DirectNetwork. Nodes spawned past the plane's blocking
  // (late joins) are outside every scripted phase.
  if (d.fault_plane_ != nullptr &&
      message.from < d.fault_plane_->node_count() &&
      message.to < d.fault_plane_->node_count() &&
      d.fault_plane_->drop(message.from, message.to, round, rng,
                           d.fault_ctxs_[shard])) {
    ++metrics.faulted;
    return;
  }
  if (d.config_.loss_rate > 0.0 && rng.bernoulli(d.config_.loss_rate)) {
    ++metrics.lost;
    return;
  }
  const std::size_t dst = d.shard_of(message.to);
  (*outbox)[dst].push_back(std::move(message));
}

void ArenaDriver::run_phase_a(std::uint64_t round) {
  const std::size_t n = cluster_.size();
  pool_.parallel_for(
      config_.shards, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          ShardTransport transport;
          transport.driver = this;
          transport.shard = s;
          transport.round = round;
          transport.outbox = &outbox_[s];
          const std::size_t lo = s * nodes_per_shard_;
          // The last shard also owns ids spawned after construction.
          const std::size_t hi =
              s + 1 == config_.shards ? n
                                      : std::min(n, lo + nodes_per_shard_);
          for (std::size_t u = lo; u < hi; ++u) {
            const NodeId id = static_cast<NodeId>(u);
            if (!cluster_.live(id)) continue;
            cluster_.node(id).on_round(round, shard_rngs_[s], transport);
          }
        }
      });
}

void ArenaDriver::run_phase_b(std::uint64_t round) {
  pool_.parallel_for(
      config_.shards, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t q = begin; q < end; ++q) {
          ShardTransport transport;
          transport.driver = this;
          transport.shard = q;
          transport.round = round;
          transport.outbox = &next_inflight_[q];
          NetworkMetrics& metrics = shard_metrics_[q];
          const auto deliver = [&](std::vector<Message>& queue) {
            for (Message& message : queue) {
              if (message.to >= cluster_.size() ||
                  !cluster_.live(message.to)) {
                ++metrics.to_dead;
                continue;
              }
              cluster_.node(message.to).on_message(message, shard_rngs_[q],
                                                   transport);
              ++metrics.delivered;
            }
          };
          // Source-shard-major FIFO: last round's phase B replies, then
          // this round's phase A traffic — a fixed function of the shard
          // count, independent of worker scheduling.
          for (std::size_t p = 0; p < config_.shards; ++p) {
            deliver(inflight_[p][q]);
            deliver(outbox_[p][q]);
          }
        }
      });
  // Advance the frames: drained queues are recycled as the next round's
  // reply frame.
  for (std::size_t p = 0; p < config_.shards; ++p) {
    for (std::size_t q = 0; q < config_.shards; ++q) {
      inflight_[p][q].clear();
      outbox_[p][q].clear();
    }
  }
  std::swap(inflight_, next_inflight_);
  (void)round;
}

void ArenaDriver::observe_round(std::uint64_t round) {
  if (pipeline_.active()) {
    // Replies are in flight at every sample point.
    pipeline_.observe(round, cluster_,
                      cumulative_counters(cluster_.aggregate_metrics(),
                                          network_metrics()),
                      /*conservation_exact=*/false);
  }
  if (detection_ != nullptr) {
    detection_->observe(
        round, cluster_.size(),
        [this](NodeId u) { return cluster_.live(u); },
        [this](NodeId u, NodeId w) {
          return cluster_.node(u).member_verdict(w);
        });
  }
}

void ArenaDriver::run_rounds(std::uint64_t rounds) {
  const bool observing = pipeline_.active() || detection_ != nullptr;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::uint64_t round = ++round_;
    actions_ += cluster_.live_count();
    run_phase_a(round);
    run_phase_b(round);
    if (observing && round % config_.observation_stride == 0) {
      observe_round(round);
    }
  }
}

void ArenaDriver::kill(NodeId id) {
  cluster_.kill(id);
  if (detection_ != nullptr) detection_->record_kill(round_, id);
}

void ArenaDriver::rejoin(NodeId id, const Cluster::ProtocolFactory& factory,
                         const std::vector<NodeId>& seed_view) {
  cluster_.revive(id, factory);
  cluster_.node(id).install_view(seed_view);
  if (detection_ != nullptr) detection_->record_join(round_, id);
}

NetworkMetrics ArenaDriver::network_metrics() const {
  NetworkMetrics total;
  for (const NetworkMetrics& m : shard_metrics_) {
    total.sent += m.sent;
    total.lost += m.lost;
    total.delivered += m.delivered;
    total.to_dead += m.to_dead;
    total.duplicated += m.duplicated;
    total.faulted += m.faulted;
  }
  return total;
}

std::uint64_t ArenaDriver::fingerprint() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(round_);
  mix(actions_);
  const NetworkMetrics net = network_metrics();
  mix(net.sent);
  mix(net.lost);
  mix(net.delivered);
  mix(net.to_dead);
  mix(net.faulted);
  const std::size_t n = cluster_.size();
  for (NodeId u = 0; u < n; ++u) {
    mix(cluster_.live(u) ? 0x9E3779B97F4A7C15ULL : u);
    const PeerProtocol& node = cluster_.node(u);
    const LocalView& view = node.view();
    for (std::size_t i = 0; i < view.capacity(); ++i) {
      const ViewEntry& entry = view.entry(i);
      mix(entry.empty() ? 0xFFFFFFFFULL
                        : (static_cast<std::uint64_t>(entry.id) << 1 |
                           (entry.dependent ? 1 : 0)));
    }
    mix(node.state_digest());
  }
  return h;
}

}  // namespace gossip::sim
