#include "markov/sparse_chain.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace gossip::markov {
namespace {

TEST(SparseChainTest, TwoStateStationary) {
  SparseChain chain(2);
  chain.add(0, 1, 0.3);
  chain.add(1, 0, 0.1);
  chain.finalize();
  const auto result = chain.stationary();
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.distribution[0], 0.25, 1e-9);
  EXPECT_NEAR(result.distribution[1], 0.75, 1e-9);
}

TEST(SparseChainTest, SelfLoopsAreImplicit) {
  SparseChain chain(2);
  chain.add(0, 0, 0.4);  // ignored
  chain.add(0, 1, 0.5);
  chain.finalize();
  EXPECT_DOUBLE_EQ(chain.row_sum(0), 0.5);
  EXPECT_EQ(chain.transition_count(), 1u);
}

TEST(SparseChainTest, StepMatchesDenseSemantics) {
  SparseChain chain(3);
  chain.add(0, 1, 1.0);
  chain.add(1, 2, 0.5);
  chain.finalize();
  const auto out = chain.step({1.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  const auto out2 = chain.step(out);
  EXPECT_DOUBLE_EQ(out2[1], 0.5);
  EXPECT_DOUBLE_EQ(out2[2], 0.5);
}

TEST(SparseChainTest, RowOverflowThrows) {
  SparseChain chain(2);
  chain.add(0, 1, 0.8);
  chain.add(0, 1, 0.5);
  EXPECT_THROW(chain.finalize(), std::runtime_error);
}

TEST(SparseChainTest, ResizeOnDemand) {
  SparseChain chain;
  chain.add(5, 7, 0.1);
  EXPECT_EQ(chain.state_count(), 8u);
}

TEST(SparseChainTest, StronglyConnectedDetection) {
  SparseChain cycle(3);
  cycle.add(0, 1, 0.5);
  cycle.add(1, 2, 0.5);
  cycle.add(2, 0, 0.5);
  cycle.finalize();
  EXPECT_TRUE(cycle.strongly_connected());

  SparseChain chainlike(3);
  chainlike.add(0, 1, 0.5);
  chainlike.add(1, 2, 0.5);
  chainlike.finalize();
  EXPECT_FALSE(chainlike.strongly_connected());
}

TEST(SparseChainTest, DoublyStochasticDetection) {
  // Symmetric chain: rows and columns both sum to 1.
  SparseChain symmetric(2);
  symmetric.add(0, 1, 0.3);
  symmetric.add(1, 0, 0.3);
  symmetric.finalize();
  EXPECT_TRUE(symmetric.doubly_stochastic());

  SparseChain skewed(2);
  skewed.add(0, 1, 0.3);
  skewed.add(1, 0, 0.1);
  skewed.finalize();
  EXPECT_FALSE(skewed.doubly_stochastic());
}

TEST(SparseChainTest, DoublyStochasticImpliesUniformStationary) {
  SparseChain chain(4);
  for (std::size_t s = 0; s < 4; ++s) {
    chain.add(s, (s + 1) % 4, 0.25);
    chain.add(s, (s + 3) % 4, 0.25);
  }
  chain.finalize();
  ASSERT_TRUE(chain.doubly_stochastic());
  const auto result = chain.stationary();
  for (const double x : result.distribution) {
    EXPECT_NEAR(x, 0.25, 1e-9);
  }
}

TEST(SparseChainTest, EmptyChainThrowsOnStationary) {
  SparseChain chain;
  chain.finalize();
  EXPECT_THROW(chain.stationary(), std::runtime_error);
}

TEST(SparseChainTest, WarmStartValidation) {
  SparseChain chain(2);
  chain.add(0, 1, 0.5);
  chain.add(1, 0, 0.5);
  chain.finalize();
  EXPECT_THROW(chain.stationary({1.0}), std::invalid_argument);
  const auto r = chain.stationary({0.9, 0.1});
  EXPECT_NEAR(r.distribution[0], 0.5, 1e-9);
}

// Property test: sparse step == dense matvec on random chains. The dense
// reference applies pi' = pi P with the implied self-loop mass on the
// diagonal, accumulated in plain row order.
TEST(SparseChainTest, StepMatchesDenseMatvecOnRandomChains) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    const std::size_t n = 20 + rng.uniform(60);
    SparseChain chain(n);
    std::vector<double> dense(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      double remaining = 1.0;
      const std::size_t fanout = 1 + rng.uniform(6);
      for (std::size_t j = 0; j < fanout; ++j) {
        const std::size_t to = rng.uniform(n);
        const double p = remaining * 0.3 * rng.uniform_double();
        remaining -= p;
        chain.add(i, to, p);
        if (to != i) dense[i * n + to] += p;
      }
    }
    chain.finalize();
    for (std::size_t i = 0; i < n; ++i) {
      dense[i * n + i] += 1.0 - chain.row_sum(i);
    }

    std::vector<double> pi(n);
    double total = 0.0;
    for (double& x : pi) total += (x = rng.uniform_double());
    for (double& x : pi) x /= total;

    std::vector<double> expect(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        expect[j] += pi[i] * dense[i * n + j];
      }
    }
    const auto got = chain.step(pi);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(got[j], expect[j], 1e-14) << "seed=" << seed << " j=" << j;
    }
  }
}

TEST(SparseChainTest, AcceleratedStationaryMatchesPlain) {
  // Same stopping criterion, same destination: the Anderson-accelerated
  // solve must agree with classic power iteration to solver tolerance.
  Rng rng(77);
  SparseChain chain(200);
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      std::size_t to = rng.uniform(200);
      if (to == i) to = (to + 1) % 200;
      chain.add(i, to, 0.3 * rng.uniform_double() + 1e-3);
    }
  }
  chain.finalize();
  const auto plain = chain.stationary({}, 1e-13, 500'000, false);
  const auto accel = chain.stationary({}, 1e-13, 500'000, true);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(accel.converged);
  EXPECT_LE(accel.iterations, plain.iterations);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_NEAR(accel.distribution[i], plain.distribution[i], 1e-9)
        << "i=" << i;
  }
}

}  // namespace
}  // namespace gossip::markov
