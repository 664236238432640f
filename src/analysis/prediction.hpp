// Bridge from the analysis solvers to the obs-layer TheoryPrediction: the
// obs library cannot link analysis (the dependency points the other way),
// so the oracle's input is produced here — one §6.2 stationary solve plus
// the Lemma 7.9 closed-form bound, packed into plain data.
//
// Two solver backends produce the same prediction contract:
//  * kExactMc — the full degree-MC fixed point (analysis/degree_mc);
//  * kMeanField — the mean-field fast path (analysis/mean_field), within
//    the contract tolerances (degree TVD <= 5e-3, dup/del rates <= 2%)
//    wherever it converges. Where it reports non-convergence its pmf can
//    be arbitrarily wrong, so the exact solve is served instead (and
//    counted in PredictionCacheStats::exact_fallbacks).
//
// Solved predictions are memoized in a process-wide cache keyed on the
// model-defining parameters (box, loss, truncation, fixed-sum line, delta,
// source), so repeated requests for the same point — the oracle setup in
// bench_report, sfgossip, and the retuning controller's re-solves — pay
// for the stationary solve once.
#pragma once

#include <cstddef>

#include "analysis/degree_mc.hpp"
#include "obs/oracle/prediction.hpp"

namespace gossip::analysis {

enum class PredictionSource {
  kExactMc,    // solve_degree_mc: reference answer, a few ms
  kMeanField,  // solve_mean_field: contract-accurate, ~1 ms
};

// Solves the stationary degree model at `params` with the chosen backend
// and packages the marginals, action-outcome probabilities, and the
// α ≥ 1 − 2(ℓ+δ) bound for the TheoryOracle. Results are served from the
// process-wide cache when the same (params, delta, source) point was
// solved before; solver tuning fields (tolerances, acceleration) are not
// part of the key. Propagates the solver's exceptions on bad parameters —
// in particular kMeanField rejects fixed_sum_degree (the §6.1 line chain
// does not factorize).
[[nodiscard]] obs::TheoryPrediction make_theory_prediction(
    const DegreeMcParams& params, double delta = 0.01,
    PredictionSource source = PredictionSource::kExactMc);

// Cache introspection for benchmarks and tests. Counters are cumulative
// for the process; `size` is the current number of cached predictions.
// `exact_fallbacks` counts kMeanField misses answered by the exact solver
// because the mean-field solve did not converge.
struct PredictionCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t size = 0;
  std::size_t exact_fallbacks = 0;
};
[[nodiscard]] PredictionCacheStats prediction_cache_stats();

// Drops all cached predictions and resets the counters.
void clear_prediction_cache();

}  // namespace gossip::analysis
