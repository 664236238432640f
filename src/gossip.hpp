// Umbrella header: the library's public API in one include.
//
//   #include "gossip.hpp"
//
// Brings in the S&F protocol and its variants, the baselines, the
// simulators, the paper's analysis toolkit, and the measurement utilities.
// Fine-grained headers remain available for faster builds.
#pragma once

// Substrate.
#include "common/binomial.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/histogram.hpp"
#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

// Membership graphs.
#include "graph/connectivity.hpp"
#include "graph/digraph.hpp"
#include "graph/graph_gen.hpp"
#include "graph/graph_io.hpp"
#include "graph/graph_stats.hpp"
#include "graph/reachability.hpp"
#include "graph/spectral.hpp"
#include "graph/transformations.hpp"

// Markov chain machinery.
#include "markov/matrix.hpp"
#include "markov/sparse_chain.hpp"
#include "markov/stationary.hpp"

// The protocol, variants, baselines, and application API.
#include "core/baselines/newscast.hpp"
#include "core/baselines/push_pull.hpp"
#include "core/baselines/shuffle.hpp"
#include "core/messages.hpp"
#include "core/metrics.hpp"
#include "core/peer_sampler.hpp"
#include "core/protocol.hpp"
#include "core/send_forget.hpp"
#include "core/variants/send_forget_ext.hpp"
#include "core/view.hpp"

// Simulation.
#include "sim/churn.hpp"
#include "sim/cluster.hpp"
#include "sim/event_driver.hpp"
#include "sim/event_queue.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "sim/observer_pipeline.hpp"
#include "sim/round_driver.hpp"
#include "sim/session_churn.hpp"

// The paper's analysis.
#include "analysis/decay.hpp"
#include "analysis/degree_analytical.hpp"
#include "analysis/degree_mc.hpp"
#include "analysis/global_mc.hpp"
#include "analysis/independence.hpp"
#include "analysis/mixing.hpp"
#include "analysis/temporal.hpp"
#include "analysis/thresholds.hpp"

// Measurement.
#include "sampling/health.hpp"
#include "sampling/random_walk.hpp"
#include "sampling/size_estimator.hpp"
#include "sampling/spatial.hpp"
#include "sampling/temporal_overlap.hpp"
#include "sampling/uniformity.hpp"
