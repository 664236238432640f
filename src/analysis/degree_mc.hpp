// The two-dimensional degree Markov chain of §6.2.
//
// One tagged node's (outdegree, indegree) pair evolves as a Markov chain
// whose transition probabilities depend on population-level quantities
// (how likely a message's receiver has room, how likely an initiator is at
// its duplication threshold, ...), which in turn depend on the stationary
// degree distribution. Following the paper, the chain is solved by a
// fixed-point iteration: start from an arbitrary degree distribution,
// derive transition probabilities, compute the stationary distribution,
// and repeat until the distribution and the transition probabilities match.
//
// The state space is truncated at sum degree ds = d + 2*din <= 3s (states
// beyond have negligible stationary mass; transitions leading out of the
// truncated space become self-loops) — exactly the paper's device.
//
// Mean-field assumptions (valid for n >> s, as assumed throughout §6):
//  * the receiver of a message sent by the tagged node is a random node
//    sampled proportionally to indegree;
//  * the initiator holding an edge to the tagged node has outdegree
//    distributed proportionally to pi(d) * d, and fires an action using
//    that particular edge with probability proportional to d - 1.
//
// Solver architecture: the truncated chain is an analysis::PairChain
// (analysis/pair_chain), shared with the mean-field refinement. Each outer
// iteration derives the population statistics from the current guess,
// rewrites the chain's rates, and computes the chain's stationary
// distribution directly by banded GTH elimination — one solve of
// O(states · phases²), with no inner iteration and no subtraction, so it
// stays exact at ℓ = 0 where the chain is nearly decomposable. The outer
// loop is accelerated with Anderson mixing (small least-squares over the
// last m residuals, falling back to the classic damped step whenever the
// extrapolation degenerates or leaves a reducible chain), and ℓ-sweeps
// reuse the state space and the previous point's solution
// (solve_degree_mc_sweep).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "obs/solver_telemetry.hpp"

namespace gossip::analysis {

// Outer fixed-point update rule.
enum class DegreeMcAcceleration {
  kDamped,    // x += 0.5 * (G(x) - x), the paper-faithful baseline
  kAnderson,  // Anderson mixing with damped fallback on non-decrease
};

struct DegreeMcParams {
  std::size_t view_size = 40;   // s
  std::size_t min_degree = 18;  // dL
  double loss = 0.0;            // ℓ

  // Sum-degree truncation; defaults to 3s when 0 (§6.2).
  std::size_t sum_degree_cap = 0;

  // When set, restricts the state space to the line d + 2*din == value
  // (requires an even value <= sum cap). This is the §6.1 setting used for
  // Fig 6.1: no loss, dL = 0, ds(u) = dm invariant.
  std::optional<std::size_t> fixed_sum_degree;

  // Outer fixed-point loop.
  double fixed_point_tolerance = 1e-11;
  std::size_t max_fixed_point_iterations = 300;
  DegreeMcAcceleration acceleration = DegreeMcAcceleration::kAnderson;
  // Anderson history depth m (>= 1; ignored for kDamped).
  std::size_t anderson_depth = 4;

  // Optional telemetry sink (borrowed; may be null). The outer loop
  // reports per-iteration residuals as "degree_mc_outer" (with mixer
  // events under the same name and "damped_step" / "rejected_iterate"
  // fallbacks), and each direct stationary solve as "degree_mc_inner" with
  // its ||pi P - pi||_1. Feeds the same numbers the
  // DegreeMcResult diagnostics summarize; never influences the solve.
  obs::SolverSink* telemetry = nullptr;
};

struct DegreeState {
  std::uint32_t out = 0;
  std::uint32_t in = 0;
  [[nodiscard]] bool operator==(const DegreeState&) const = default;
};

struct DegreeMcResult {
  std::vector<DegreeState> states;
  std::vector<double> stationary;  // aligned with `states`

  // Marginals indexed by degree value.
  std::vector<double> out_pmf;
  std::vector<double> in_pmf;

  double expected_out = 0.0;
  double expected_in = 0.0;

  // P(a non-self-loop action performs duplication) in steady state
  // (Lemma 6.7 predicts this lies in [ℓ, ℓ+δ]).
  double duplication_probability = 0.0;
  // P(a non-self-loop action ends in deletion at the receiver):
  // (1-ℓ) * P(receiver full). Lemma 6.6: dup = ℓ + del in steady state.
  double deletion_probability = 0.0;
  // P(receiver has room), receiver sampled proportionally to indegree.
  double receiver_room_probability = 1.0;

  // Convergence diagnostics: outer fixed-point iterations, the number of
  // direct stationary solves (one per outer iteration), and the final
  // residuals of both, so benches can assert convergence instead of
  // trusting tolerances.
  std::size_t fixed_point_iterations = 0;
  std::size_t stationary_iterations = 0;
  double fixed_point_residual = 0.0;  // L1(pi, G(pi)) at the last iteration
  // ||pi P - pi||_1 of the final solve on the uniformized chain
  // (analysis::PairChain::residual).
  double stationary_residual = 0.0;
  bool converged = false;
};

// Solves the chain. Throws std::invalid_argument on inconsistent
// parameters; throws std::runtime_error if the state space is empty or the
// chain of a solved iterate is reducible (the message names the state).
[[nodiscard]] DegreeMcResult solve_degree_mc(const DegreeMcParams& params);

// Solves the chain for each loss value in `losses` with one solver: the
// state space is built once, and each point is
// warm-started from the previous point's stationary distribution and
// population statistics. Equivalent to calling solve_degree_mc per point
// (same fixed points, same tolerances), only faster. `params.loss` is
// ignored.
[[nodiscard]] std::vector<DegreeMcResult> solve_degree_mc_sweep(
    const DegreeMcParams& params, std::span<const double> losses);

// Transient §6.5 analysis: the expected degree trajectory of a node that
// joins a steady-state system with outdegree dL and indegree 0, obtained
// by evolving the degree MC (with the steady-state population parameters
// frozen) from the state (dL, 0). Index r of each series is the expected
// value after r rounds. Requires min_degree >= 2 (a joiner with an empty
// view can never act) and no fixed_sum_degree.
struct JoinerTrajectory {
  std::vector<double> expected_out;
  std::vector<double> expected_in;
};
[[nodiscard]] JoinerTrajectory joiner_degree_trajectory(
    const DegreeMcParams& params, std::size_t rounds);

}  // namespace gossip::analysis
