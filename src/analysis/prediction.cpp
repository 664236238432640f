#include "analysis/prediction.hpp"

#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "analysis/independence.hpp"
#include "analysis/mean_field.hpp"

namespace gossip::analysis {
namespace {

// Model-defining key: everything that changes the stationary answer.
// Doubles are compared by bit pattern so the key is a total order without
// epsilon ambiguity (callers pass exact literals, not computed noise).
using CacheKey = std::tuple<std::size_t,     // view_size
                            std::size_t,     // min_degree
                            std::uint64_t,   // loss bits
                            std::size_t,     // sum_degree_cap
                            std::uint64_t,   // fixed_sum_degree (+1, 0=none)
                            std::uint64_t,   // delta bits
                            int>;            // source

struct PredictionCache {
  std::mutex mutex;
  std::map<CacheKey, obs::TheoryPrediction> entries;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t exact_fallbacks = 0;
};

PredictionCache& cache() {
  static PredictionCache instance;
  return instance;
}

CacheKey make_key(const DegreeMcParams& params, double delta,
                  PredictionSource source) {
  const std::uint64_t fixed =
      params.fixed_sum_degree
          ? static_cast<std::uint64_t>(*params.fixed_sum_degree) + 1
          : 0;
  return {params.view_size,
          params.min_degree,
          std::bit_cast<std::uint64_t>(params.loss),
          params.sum_degree_cap,
          fixed,
          std::bit_cast<std::uint64_t>(delta),
          static_cast<int>(source)};
}

// Copies the solved marginals and action-outcome probabilities (both
// solvers' results share these field names).
template <typename Result>
void copy_solution(Result&& r, obs::TheoryPrediction& pred) {
  pred.out_pmf = std::move(r.out_pmf);
  pred.in_pmf = std::move(r.in_pmf);
  pred.expected_out = r.expected_out;
  pred.expected_in = r.expected_in;
  pred.duplication_probability = r.duplication_probability;
  pred.deletion_probability = r.deletion_probability;
}

// Sets `exact_fallback` when a kMeanField request is answered exactly.
obs::TheoryPrediction solve_prediction(const DegreeMcParams& params,
                                       double delta, PredictionSource source,
                                       bool& exact_fallback) {
  obs::TheoryPrediction pred;
  pred.loss = params.loss;
  pred.delta = delta;
  pred.view_size = params.view_size;
  pred.min_degree = params.min_degree;
  bool solved = false;
  if (source == PredictionSource::kMeanField) {
    MeanFieldResult mf = solve_mean_field(mean_field_params(params));
    solved = mf.converged;
    if (solved) copy_solution(std::move(mf), pred);
  }
  if (!solved) {
    exact_fallback = source == PredictionSource::kMeanField;
    copy_solution(solve_degree_mc(params), pred);
  }
  pred.alpha_lower_bound = independence_lower_bound_simple(params.loss, delta);
  return pred;
}

}  // namespace

obs::TheoryPrediction make_theory_prediction(const DegreeMcParams& params,
                                             double delta,
                                             PredictionSource source) {
  const CacheKey key = make_key(params, delta, source);
  auto& c = cache();
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    if (const auto it = c.entries.find(key); it != c.entries.end()) {
      ++c.hits;
      return it->second;
    }
  }
  // Solve outside the lock: concurrent misses on the same key race to
  // insert the identical (deterministic) answer, which is harmless and
  // keeps slow exact solves from serializing unrelated lookups.
  bool exact_fallback = false;
  obs::TheoryPrediction pred =
      solve_prediction(params, delta, source, exact_fallback);
  std::lock_guard<std::mutex> lock(c.mutex);
  const auto [it, inserted] = c.entries.emplace(key, std::move(pred));
  ++c.misses;
  if (exact_fallback) ++c.exact_fallbacks;
  return it->second;
}

PredictionCacheStats prediction_cache_stats() {
  auto& c = cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  return {c.hits, c.misses, c.entries.size(), c.exact_fallbacks};
}

void clear_prediction_cache() {
  auto& c = cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  c.entries.clear();
  c.hits = 0;
  c.misses = 0;
  c.exact_fallbacks = 0;
}

}  // namespace gossip::analysis
