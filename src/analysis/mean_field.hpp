// Mean-field fast path for the §6.2 degree analysis.
//
// The exact solver (analysis/degree_mc) iterates a fixed point whose inner
// step is a direct stationary solve of the truncated (out, in) pair chain.
// Under the product-form closure
//
//     P(out = o, in = i)  ≈  P_out(o) · P_in(i)
//
// both marginals decouple into one-dimensional birth–death chains whose
// stationary distributions are closed-form by detailed balance:
//
//  * out chain on {dL, dL+2, ..., s}: a node gains an out-edge pair when it
//    is the target of a delivered B event (rate E[in]·c2·(1−ℓ) per unit
//    time, independent of o while o + 2 <= s) and sheds one when it fires a
//    non-duplicating action (rate o(o−1), only above dL);
//  * in chain on {0, ..., (cap−dL)/2}: instances are created by delivered
//    initiations (rate E[o(o−1)]·(1−ℓ)·q_room) and C-event duplications
//    (rate i·c2·pz·(1−ℓ)·q_room), and destroyed by B decrements and C
//    losses (rate i·c2·(1−pz)·(2 − (1−ℓ)·q_room)).
//
// The population statistics (c2 = E[o(o−1)]/E[o], the duplication fraction
// pz, the receiver-room probability q_room, E[in]) are functionals of the
// marginals, so the closure is itself a fixed point — but each iteration
// costs O(s) instead of a pair-chain solve. Anderson mixing
// (markov::AndersonMixer) accelerates it exactly as in the exact solver.
//
// The closure drops the out/in correlation of the pair chain (conditioning
// E[in | out] by its mean). The optional 1/n-style refinement restores it:
// starting from the converged product measure, it re-solves the pair
// occupancy measure under the exact §6.2 generator — the same
// analysis::PairChain and banded GTH solve the exact solver uses — inside
// a damped-Newton consistency loop over the three population statistics.
// Where it converges, the refined fixed point is the exact solver's to the
// refinement tolerance (degree-marginal TVD and dup/del rates pinned in
// tests far below the 5e-3 / 2% contract). Where it does not — at very
// high loss the closure or the Newton search can stall — `converged` is
// false and the marginals must not be trusted; analysis/prediction then
// serves the exact solve instead.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "analysis/degree_mc.hpp"
#include "obs/solver_telemetry.hpp"

namespace gossip::analysis {

struct MeanFieldParams {
  std::size_t view_size = 40;   // s
  std::size_t min_degree = 18;  // dL
  double loss = 0.0;            // ℓ

  // Sum-degree truncation; defaults to 3s when 0 (§6.2).
  std::size_t sum_degree_cap = 0;

  // Closure fixed point: Anderson-mixed over the concatenated marginals,
  // with the exact solver's damped fallback.
  double tolerance = 1e-12;
  std::size_t max_iterations = 400;
  std::size_t anderson_depth = 4;

  // 1/n refinement term: damped-Newton consistency iterations over the
  // population statistics (c2/s, q_room, pz), each residual evaluation a
  // direct GTH stationary solve of the pair chain (analysis/pair_chain).
  // refinement_iterations = 0 returns the raw product closure. The
  // tolerance is the L1 self-consistency of the statistics vector (an
  // observed factor ~3 above the resulting degree-marginal TVD vs the
  // exact solver); the subtraction-free solve keeps the residual exact to
  // round-off, so tighter values are reachable at every ℓ, ℓ = 0
  // included, at the cost of more Newton steps.
  std::size_t refinement_iterations = 60;
  double refinement_tolerance = 1e-4;

  // Optional telemetry sink (borrowed; may be null): the closure loop
  // reports as "mean_field_closure", refinement sweeps as
  // "mean_field_refine".
  obs::SolverSink* telemetry = nullptr;
};

// Maps exact-solver parameters onto the fast path (refinement and closure
// controls keep their defaults). Throws std::invalid_argument when the
// parameters have no mean-field counterpart (fixed_sum_degree: the §6.1
// line chain does not factorize).
[[nodiscard]] MeanFieldParams mean_field_params(const DegreeMcParams& params);

struct MeanFieldResult {
  // Marginals indexed by degree value, same shapes as DegreeMcResult
  // (out_pmf has size s + 1; in_pmf has size (cap - dL)/2 + 1).
  std::vector<double> out_pmf;
  std::vector<double> in_pmf;
  double expected_out = 0.0;
  double expected_in = 0.0;

  // Steady-state action outcome probabilities (same meaning as the exact
  // solver's fields; Lemma 6.7 predicts duplication in [ℓ, ℓ+δ]).
  double duplication_probability = 0.0;
  double deletion_probability = 0.0;
  double receiver_room_probability = 1.0;

  // Diagnostics: fixed-point iterations and final L1 residuals of the two
  // stages. `converged` is the refinement's verdict when it runs (the
  // closure is then only its warm start), else the closure's.
  std::size_t closure_iterations = 0;
  double closure_residual = 0.0;
  std::size_t refinement_iterations = 0;
  double refinement_residual = 0.0;
  bool converged = false;
};

// Solves the mean-field fixed point at `params`. Throws
// std::invalid_argument on inconsistent parameters (same constraints as
// the exact solver: s even >= 6, dL even with dL + 6 <= s, ℓ in [0, 1)).
[[nodiscard]] MeanFieldResult solve_mean_field(const MeanFieldParams& params);

// Solves one point per loss value with a shared solver: the closure warm-
// starts from the previous point and the refinement's pair chain is built
// once. Same fixed points as per-point calls.
// `params.loss` is ignored.
[[nodiscard]] std::vector<MeanFieldResult> solve_mean_field_sweep(
    const MeanFieldParams& params, std::span<const double> losses);

}  // namespace gossip::analysis
