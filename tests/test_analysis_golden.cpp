// Golden-value regression tests for the analysis pipeline.
//
// The solver stack (direct pair-chain solve, Anderson-accelerated outer
// loop, warm-started sweeps, parallel SpMV) is free to change
// *how* it computes, but not *what*: these tests pin the §6.4 / Fig 6.3
// indegree statistics and the Lemma 7.5 exhaustive-chain facts to values
// captured from the original dense damped solver, at tolerances far below
// anything a correct reimplementation could miss.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "analysis/degree_mc.hpp"
#include "analysis/global_mc.hpp"
#include "common/stats.hpp"
#include "graph/digraph.hpp"

namespace gossip::analysis {
namespace {

struct Fig63Golden {
  double loss;
  double in_mean;
  double in_sd;
};

// Captured from the seed solver (dense transition rebuild, damped outer
// fixed point at tolerance 1e-11, plain power iteration at 1e-13) at the
// paper's operating point dL = 18, s = 40.
constexpr Fig63Golden kFig63[] = {
    {0.00, 27.970338041052326, 3.6135991814190493},
    {0.01, 26.825551578602482, 4.0051442383505362},
    {0.05, 24.259845264953892, 4.7074965173462981},
    {0.10, 22.777657797537543, 4.9915952801321417},
};

double in_sd(const DegreeMcResult& r) {
  return std::sqrt(pmf_moments(r.in_pmf).variance);
}

TEST(AnalysisGolden, Fig63IndegreeMomentsPerPoint) {
  DegreeMcParams p;  // defaults: dL = 18, s = 40, accelerated pipeline
  for (const Fig63Golden& g : kFig63) {
    p.loss = g.loss;
    const auto r = solve_degree_mc(p);
    ASSERT_TRUE(r.converged) << "loss=" << g.loss;
    EXPECT_NEAR(r.expected_in, g.in_mean, 1e-9) << "loss=" << g.loss;
    EXPECT_NEAR(in_sd(r), g.in_sd, 1e-9) << "loss=" << g.loss;
  }
}

TEST(AnalysisGolden, Fig63IndegreeMomentsWarmSweep) {
  // The warm-started sweep must land on the same fixed points as the cold
  // per-point solves — warm starts change the path, not the destination.
  DegreeMcParams p;
  std::vector<double> losses;
  for (const Fig63Golden& g : kFig63) losses.push_back(g.loss);
  const auto results = solve_degree_mc_sweep(p, losses);
  ASSERT_EQ(results.size(), std::size(kFig63));
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].converged) << "loss=" << kFig63[i].loss;
    EXPECT_NEAR(results[i].expected_in, kFig63[i].in_mean, 1e-9)
        << "loss=" << kFig63[i].loss;
    EXPECT_NEAR(in_sd(results[i]), kFig63[i].in_sd, 1e-9)
        << "loss=" << kFig63[i].loss;
  }
}

TEST(AnalysisGolden, Fig63DampedBaselineAgrees) {
  // The paper-faithful damped outer loop must still reproduce the same
  // goldens: the acceleration is an optimization, not a different model.
  DegreeMcParams p;
  p.acceleration = DegreeMcAcceleration::kDamped;
  p.loss = 0.01;
  const auto r = solve_degree_mc(p);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.expected_in, kFig63[1].in_mean, 1e-9);
  EXPECT_NEAR(in_sd(r), kFig63[1].in_sd, 1e-9);
}

TEST(AnalysisGolden, Lemma75ExhaustiveChainN4) {
  // n = 4, ring + reverse ring (every node's view = its two neighbours,
  // sum degree 6 everywhere), no loss: the exhaustively built chain has
  // exactly 885 reachable states and 7008 stored transitions, and the
  // stationary distribution is uniform on the simple states (Lemma 7.5).
  GlobalMcParams p;
  p.config = SendForgetConfig{.view_size = 6, .min_degree = 0};
  p.loss = 0.0;
  Digraph g(4);
  for (NodeId u = 0; u < 4; ++u) {
    g.add_edge(u, (u + 1) % 4);
    g.add_edge(u, (u + 3) % 4);
  }
  p.initial = g;
  const auto r = build_global_mc(p);
  ASSERT_TRUE(r.exploration_complete);
  EXPECT_EQ(r.states.size(), 885u);
  EXPECT_EQ(r.chain.transition_count(), 7008u);
  EXPECT_TRUE(r.strongly_connected);
  ASSERT_TRUE(r.stationary.converged);
  // Uniformity over simple states. The golden capture saw ~2e-12; 1e-8
  // leaves room for the accelerated stationary solve to take a different
  // floating-point path to the same distribution.
  EXPECT_GT(r.simple_state_count, 0u);
  EXPECT_LT(r.simple_state_uniformity_deviation, 1e-8);
}

}  // namespace
}  // namespace gossip::analysis
