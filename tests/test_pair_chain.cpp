#include "analysis/pair_chain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/degree_mc.hpp"
#include "obs/solver_telemetry.hpp"

namespace gossip::analysis {
namespace {

double l1(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) sum += std::abs(a[k] - b[k]);
  return sum;
}

// The §6.2 chain frozen at the exact solver's converged population
// statistics for (s, dL, ℓ).
PairChain frozen_chain(std::size_t s, std::size_t dl, double loss) {
  DegreeMcParams p;
  p.view_size = s;
  p.min_degree = dl;
  p.loss = loss;
  const DegreeMcResult solved = solve_degree_mc(p);
  PairChain chain(s, dl, 3 * s);
  const PairStats st = chain.stats(solved.stationary);
  chain.set_rates(st.edge_factor, st.receiver_room, st.initiator_dup, loss);
  return chain;
}

struct FrozenPoint {
  std::size_t s;
  std::size_t dl;
  double loss;
};

class PairChainOracle : public ::testing::TestWithParam<FrozenPoint> {};

TEST_P(PairChainOracle, DirectSolveMatchesPowerIteration) {
  // ℓ = 0 is where the chain is nearly decomposable along the sum degree
  // and a subtracting elimination loses the answer; GTH must still agree
  // with plain power iteration on the uniformized chain.
  const FrozenPoint point = GetParam();
  PairChain chain = frozen_chain(point.s, point.dl, point.loss);
  std::vector<double> direct;
  chain.stationary(direct);

  const markov::SparseChain step = chain.uniformized();
  EXPECT_LE(l1(step.step(direct), direct), 1e-12);
  EXPECT_LE(chain.residual(direct), 1e-12);

  const auto power = step.stationary({}, 1e-15, 5'000'000,
                                     /*accelerated=*/false);
  ASSERT_TRUE(power.converged) << "residual " << power.residual;
  EXPECT_LE(l1(direct, power.distribution), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Frozen, PairChainOracle,
    ::testing::Values(FrozenPoint{40, 18, 0.0}, FrozenPoint{42, 18, 0.0},
                      FrozenPoint{12, 4, 0.05}),
    [](const ::testing::TestParamInfo<FrozenPoint>& info) {
      // append(), not "s" + ...: GCC 12 at -O3 reports a false -Wrestrict
      // on the prepend.
      return std::string("s")
          .append(std::to_string(info.param.s))
          .append("_dl")
          .append(std::to_string(info.param.dl))
          .append("_loss")
          .append(std::to_string(static_cast<int>(info.param.loss * 100)));
    });

TEST(PairChain, LevelMajorLayout) {
  // Every even o in [dL, s] with o + 2i <= cap, ordered by (in, out).
  const PairChain chain(12, 4, 36);
  std::size_t expected = 0;
  for (std::size_t i = 0; 4 + 2 * i <= 36; ++i) {
    for (std::size_t o = 4; o <= 12 && o + 2 * i <= 36; o += 2) {
      ASSERT_LT(expected, chain.size());
      EXPECT_EQ(chain.states()[expected].out, o);
      EXPECT_EQ(chain.states()[expected].in, i);
      EXPECT_EQ(chain.index(o, i), expected);
      ++expected;
    }
  }
  EXPECT_EQ(chain.size(), expected);
  EXPECT_EQ(chain.index(2, 0), PairChain::kOutside);    // below dL
  EXPECT_EQ(chain.index(5, 0), PairChain::kOutside);    // odd outdegree
  EXPECT_EQ(chain.index(12, 13), PairChain::kOutside);  // beyond the cap
}

TEST(PairChain, FixedSumLineHasOneStatePerLevel) {
  const PairChain chain(30, 0, 30, 30);
  ASSERT_EQ(chain.size(), 16u);
  for (const DegreeState& st : chain.states()) {
    EXPECT_EQ(st.out + 2 * st.in, 30u);
  }
}

TEST(PairChain, ZeroPivotThrowsNamingTheState) {
  // pz = 1 (every initiator duplicates) leaves the top state (dL, cap-dL
  // over 2) of the (20, 8) box without any exit: the chain is reducible
  // and the solve must say so rather than return NaNs.
  PairChain chain(20, 8, 60);
  chain.set_rates(15.0, 0.5, 1.0, 0.98);
  std::vector<double> pi;
  EXPECT_FALSE(chain.try_stationary(pi));
  try {
    chain.stationary(pi);
    FAIL() << "expected a runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("(out=8, in=26)"), std::string::npos)
        << e.what();
  }
}

TEST(DegreeMcDirect, ConvergesAtSmallLoss) {
  // The nearly decomposable points where the chain is hardest: the exact
  // solver converges with one direct solve per outer iteration.
  for (const std::size_t s : {40u, 42u}) {
    for (const double loss : {0.0, 0.01}) {
      DegreeMcParams p;
      p.view_size = s;
      p.loss = loss;
      const DegreeMcResult r = solve_degree_mc(p);
      EXPECT_TRUE(r.converged) << "s=" << s << " loss=" << loss;
      EXPECT_LE(r.fixed_point_residual, p.fixed_point_tolerance);
      EXPECT_EQ(r.stationary_iterations, r.fixed_point_iterations);
      EXPECT_LE(r.stationary_residual, 1e-12);
    }
  }
}

TEST(DegreeMcDirect, RecoversFromReducibleExtrapolation) {
  // Near the loss boundary an Anderson extrapolation clipped onto the
  // simplex can leave no mass above dL (pz = 1: a reducible chain). The
  // solver rejects such an iterate, takes the damped step, and converges.
  obs::RecordingSolverSink sink;
  DegreeMcParams p;
  p.view_size = 20;
  p.min_degree = 8;
  p.loss = 0.98;
  p.telemetry = &sink;
  const DegreeMcResult r = solve_degree_mc(p);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(sink.event_count("degree_mc_outer", "rejected_iterate"), 1u);
  for (const double v : r.stationary) ASSERT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace gossip::analysis
