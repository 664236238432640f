#include "analysis/mean_field.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "analysis/degree_mc.hpp"
#include "analysis/prediction.hpp"

namespace gossip::analysis {
namespace {

double tvd(const std::vector<double>& a, const std::vector<double>& b) {
  double t = 0.0;
  const std::size_t n = std::max(a.size(), b.size());
  for (std::size_t k = 0; k < n; ++k) {
    const double av = k < a.size() ? a[k] : 0.0;
    const double bv = k < b.size() ? b[k] : 0.0;
    t += std::abs(av - bv);
  }
  return 0.5 * t;
}

double rel_err(double approx, double exact) {
  return exact > 0.0 ? std::abs(approx - exact) / exact
                     : std::abs(approx - exact);
}

// The tolerance contract the fast path ships under (and that check_bench
// gates on the committed BENCH_analysis baseline): per-point degree-marginal
// TVD <= 5e-3 against the exact solver, dup/del rates within 2% relative.
constexpr double kTvdContract = 5e-3;
constexpr double kRateContract = 2e-2;

TEST(MeanField, MatchesExactAcrossPaperSweep) {
  // The committed benchmark box: dL = 18, s = 40, the four ℓ points of the
  // analysis sweep. This is the acceptance pin for the refined solver —
  // in practice it lands orders of magnitude inside the contract.
  const std::vector<double> losses = {0.0, 0.01, 0.05, 0.1};
  const DegreeMcParams exact_params;  // defaults are the paper box
  const auto exact = solve_degree_mc_sweep(exact_params, losses);

  const MeanFieldParams params = mean_field_params(exact_params);
  const auto mf = solve_mean_field_sweep(params, losses);
  ASSERT_EQ(mf.size(), losses.size());

  for (std::size_t p = 0; p < losses.size(); ++p) {
    SCOPED_TRACE("loss=" + std::to_string(losses[p]));
    EXPECT_TRUE(mf[p].converged);
    EXPECT_LE(tvd(mf[p].out_pmf, exact[p].out_pmf), kTvdContract);
    EXPECT_LE(tvd(mf[p].in_pmf, exact[p].in_pmf), kTvdContract);
    EXPECT_LE(rel_err(mf[p].duplication_probability,
                      exact[p].duplication_probability),
              kRateContract);
    EXPECT_LE(rel_err(mf[p].deletion_probability,
                      exact[p].deletion_probability),
              kRateContract);
    // Lemma 6.7 band, with the contract as slack at the edges.
    EXPECT_GE(mf[p].duplication_probability, losses[p] * (1.0 - kRateContract));
  }
}

TEST(MeanField, MatchesExactOnQuickBox) {
  // The --quick benchmark box (s = 20, dL = 8) exercised by the CI
  // perf-smoke leg; refinement must converge there too.
  const std::vector<double> losses = {0.0, 0.05};
  DegreeMcParams exact_params;
  exact_params.view_size = 20;
  exact_params.min_degree = 8;
  const auto exact = solve_degree_mc_sweep(exact_params, losses);

  const auto mf =
      solve_mean_field_sweep(mean_field_params(exact_params), losses);
  for (std::size_t p = 0; p < losses.size(); ++p) {
    SCOPED_TRACE("loss=" + std::to_string(losses[p]));
    EXPECT_TRUE(mf[p].converged);
    EXPECT_LE(tvd(mf[p].out_pmf, exact[p].out_pmf), kTvdContract);
    EXPECT_LE(tvd(mf[p].in_pmf, exact[p].in_pmf), kTvdContract);
    EXPECT_LE(rel_err(mf[p].duplication_probability,
                      exact[p].duplication_probability),
              kRateContract);
    EXPECT_LE(rel_err(mf[p].deletion_probability,
                      exact[p].deletion_probability),
              kRateContract);
  }
}

TEST(MeanField, ConvergesAtTheNearlyDecomposablePoint) {
  // s = 42, dL = 18, ℓ = 0: the chain mixes along the sum degree only
  // slowly. A subtracting block elimination left the refinement
  // unconverged here, 0.998 TVD from exact; the direct GTH solve must
  // converge inside the contract.
  DegreeMcParams exact_params;
  exact_params.view_size = 42;
  exact_params.loss = 0.0;
  const auto exact = solve_degree_mc(exact_params);
  const auto mf = solve_mean_field(mean_field_params(exact_params));
  ASSERT_TRUE(exact.converged);
  EXPECT_TRUE(mf.converged);
  EXPECT_LE(tvd(mf.out_pmf, exact.out_pmf), kTvdContract);
  EXPECT_LE(tvd(mf.in_pmf, exact.in_pmf), kTvdContract);
}

TEST(MeanField, RefinementDecidesConvergenceWhenTheClosureStalls) {
  // s = 40, dL = 18, ℓ = 0.8: the product closure stops at its iteration
  // cap far from a fixed point, but the refinement it warm-starts solves
  // the exact pair chain and converges. The point is converged, and the
  // served prediction is the fast path's, inside the contract.
  DegreeMcParams p;
  p.view_size = 40;
  p.min_degree = 18;
  p.loss = 0.8;
  const MeanFieldParams mp = mean_field_params(p);
  const auto mf = solve_mean_field(mp);
  EXPECT_GE(mf.closure_residual, mp.tolerance);
  EXPECT_LT(mf.refinement_residual, mp.refinement_tolerance);
  EXPECT_TRUE(mf.converged);
  clear_prediction_cache();
  const auto fast =
      make_theory_prediction(p, 0.01, PredictionSource::kMeanField);
  EXPECT_EQ(prediction_cache_stats().exact_fallbacks, 0u);
  const auto exact =
      make_theory_prediction(p, 0.01, PredictionSource::kExactMc);
  EXPECT_LE(tvd(fast.out_pmf, exact.out_pmf), kTvdContract);
  EXPECT_LE(tvd(fast.in_pmf, exact.in_pmf), kTvdContract);
  clear_prediction_cache();
}

TEST(MeanFieldPrediction, EveryPointMeetsTheContract) {
  // Property: a kMeanField prediction is never further than the contract
  // from the exact one, whether the fast path converged or was replaced
  // by the exact solve. ℓ = 0.95 is past where the fast path converges,
  // so the grid reaches the fallback.
  struct Box {
    std::size_t s;
    std::size_t dl;
  };
  clear_prediction_cache();
  std::size_t unconverged = 0;
  for (const Box box : {Box{12, 4}, Box{20, 8}, Box{40, 18}, Box{42, 18}}) {
    for (const double loss : {0.0, 0.01, 0.05, 0.5, 0.95}) {
      SCOPED_TRACE("s=" + std::to_string(box.s) + " dL=" +
                   std::to_string(box.dl) + " loss=" + std::to_string(loss));
      DegreeMcParams p;
      p.view_size = box.s;
      p.min_degree = box.dl;
      p.loss = loss;
      const auto mf =
          make_theory_prediction(p, 0.01, PredictionSource::kMeanField);
      const auto exact =
          make_theory_prediction(p, 0.01, PredictionSource::kExactMc);
      EXPECT_LE(tvd(mf.out_pmf, exact.out_pmf), kTvdContract);
      EXPECT_LE(tvd(mf.in_pmf, exact.in_pmf), kTvdContract);
      if (!solve_mean_field(mean_field_params(p)).converged) ++unconverged;
    }
  }
  EXPECT_GT(unconverged, 0u);
  EXPECT_EQ(prediction_cache_stats().exact_fallbacks, unconverged);
  clear_prediction_cache();
  EXPECT_EQ(prediction_cache_stats().exact_fallbacks, 0u);
}

TEST(MeanField, SweepMatchesPerPointCalls) {
  // The warm-started sweep must land on the same fixed points as isolated
  // per-point solves (the refinement restarts from the closure's product
  // measure at every point, so warm starts only affect the closure seed).
  const std::vector<double> losses = {0.01, 0.1};
  MeanFieldParams params;
  const auto sweep = solve_mean_field_sweep(params, losses);
  for (std::size_t p = 0; p < losses.size(); ++p) {
    params.loss = losses[p];
    const auto single = solve_mean_field(params);
    EXPECT_NEAR(tvd(sweep[p].out_pmf, single.out_pmf), 0.0, 1e-9);
    EXPECT_NEAR(tvd(sweep[p].in_pmf, single.in_pmf), 0.0, 1e-9);
    EXPECT_NEAR(sweep[p].duplication_probability,
                single.duplication_probability, 1e-9);
    EXPECT_NEAR(sweep[p].deletion_probability, single.deletion_probability,
                1e-9);
  }
}

TEST(MeanField, DeterministicAcrossCalls) {
  // Bit-identical results across repeated solves: the prediction cache and
  // the retuning controller both rely on the solver being a pure function
  // of its parameters.
  MeanFieldParams params;
  params.loss = 0.05;
  const auto a = solve_mean_field(params);
  const auto b = solve_mean_field(params);
  ASSERT_EQ(a.out_pmf.size(), b.out_pmf.size());
  for (std::size_t k = 0; k < a.out_pmf.size(); ++k) {
    EXPECT_EQ(a.out_pmf[k], b.out_pmf[k]);
  }
  EXPECT_EQ(a.duplication_probability, b.duplication_probability);
  EXPECT_EQ(a.deletion_probability, b.deletion_probability);
  EXPECT_EQ(a.expected_out, b.expected_out);
}

TEST(MeanField, ResultIsANormalizedDistribution) {
  MeanFieldParams params;
  params.loss = 0.05;
  const auto result = solve_mean_field(params);
  const double out_mass =
      std::accumulate(result.out_pmf.begin(), result.out_pmf.end(), 0.0);
  const double in_mass =
      std::accumulate(result.in_pmf.begin(), result.in_pmf.end(), 0.0);
  EXPECT_NEAR(out_mass, 1.0, 1e-9);
  EXPECT_NEAR(in_mass, 1.0, 1e-9);
  for (const double v : result.out_pmf) EXPECT_GE(v, 0.0);
  for (const double v : result.in_pmf) EXPECT_GE(v, 0.0);
  // Out-degree lives on [dL, s] by protocol invariant.
  EXPECT_GE(result.expected_out, static_cast<double>(params.min_degree));
  EXPECT_LE(result.expected_out, static_cast<double>(params.view_size));
}

TEST(MeanField, RawClosureIsCoarserThanRefinement) {
  // refinement_iterations = 0 returns the product closure alone. It must
  // still be a valid distribution, but the refined solve has to be at
  // least as close to the exact answer (this is what the 1/n term buys).
  DegreeMcParams exact_params;
  exact_params.loss = 0.05;
  const auto exact = solve_degree_mc(exact_params);

  MeanFieldParams params = mean_field_params(exact_params);
  params.refinement_iterations = 0;
  const auto raw = solve_mean_field(params);
  EXPECT_TRUE(raw.converged);
  EXPECT_EQ(raw.refinement_iterations, 0u);

  params.refinement_iterations = 60;
  const auto refined = solve_mean_field(params);
  EXPECT_LE(tvd(refined.in_pmf, exact.in_pmf), tvd(raw.in_pmf, exact.in_pmf));
  EXPECT_LE(rel_err(refined.duplication_probability,
                    exact.duplication_probability),
            rel_err(raw.duplication_probability,
                    exact.duplication_probability));
}

TEST(MeanField, ParamsBridgeRejectsFixedSumDegree) {
  // The §6.1 line chain (fixed sum degree) does not factorize into
  // independent marginals; the bridge must refuse rather than silently
  // solve the wrong model.
  DegreeMcParams exact_params;
  exact_params.fixed_sum_degree = 60;
  EXPECT_THROW((void)mean_field_params(exact_params), std::invalid_argument);
}

TEST(MeanField, ParamsBridgeMapsFields) {
  DegreeMcParams exact_params;
  exact_params.view_size = 20;
  exact_params.min_degree = 8;
  exact_params.loss = 0.07;
  exact_params.sum_degree_cap = 48;
  const auto params = mean_field_params(exact_params);
  EXPECT_EQ(params.view_size, 20u);
  EXPECT_EQ(params.min_degree, 8u);
  EXPECT_DOUBLE_EQ(params.loss, 0.07);
  EXPECT_EQ(params.sum_degree_cap, 48u);
}

TEST(MeanField, InvalidArguments) {
  const auto solve_with = [](auto&& mutate) {
    MeanFieldParams params;
    mutate(params);
    return solve_mean_field(params);
  };
  EXPECT_THROW((void)solve_with([](MeanFieldParams& p) { p.view_size = 39; }),
               std::invalid_argument);
  EXPECT_THROW((void)solve_with([](MeanFieldParams& p) { p.view_size = 4; }),
               std::invalid_argument);
  EXPECT_THROW((void)solve_with([](MeanFieldParams& p) { p.min_degree = 17; }),
               std::invalid_argument);
  EXPECT_THROW(
      (void)solve_with([](MeanFieldParams& p) { p.min_degree = 36; }),
      std::invalid_argument);
  EXPECT_THROW((void)solve_with([](MeanFieldParams& p) { p.loss = 1.0; }),
               std::invalid_argument);
  EXPECT_THROW((void)solve_with([](MeanFieldParams& p) { p.loss = -0.1; }),
               std::invalid_argument);
  EXPECT_THROW(
      (void)solve_with([](MeanFieldParams& p) { p.anderson_depth = 0; }),
      std::invalid_argument);
  EXPECT_THROW(
      (void)solve_with([](MeanFieldParams& p) { p.sum_degree_cap = 38; }),
      std::invalid_argument);
}

}  // namespace
}  // namespace gossip::analysis
