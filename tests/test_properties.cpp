// Property-based parameter sweeps: protocol invariants must hold across the
// whole (s, dL, loss, topology) grid, not just at the paper's example
// configuration.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "analysis/degree_mc.hpp"
#include "common/stats.hpp"
#include "core/send_forget.hpp"
#include "core/variants/send_forget_ext.hpp"
#include "graph/connectivity.hpp"
#include "graph/graph_gen.hpp"
#include "graph/graph_stats.hpp"
#include "sim/round_driver.hpp"

namespace gossip {
namespace {

using sim::Cluster;
using sim::RoundDriver;
using sim::UniformLoss;

// ------------------------------------------------------- invariant sweep

struct SweepCase {
  std::size_t view_size;
  std::size_t min_degree;
  double loss;
};

class SfInvariantSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SfInvariantSweep, Observation51DegreeInvariant) {
  const auto [s, dl, loss_rate] = GetParam();
  Rng rng(100 + s + dl);
  constexpr std::size_t kN = 300;
  Cluster cluster(kN, [s = s, dl = dl](NodeId id) {
    return std::make_unique<SendForget>(
        id, SendForgetConfig{.view_size = s, .min_degree = dl});
  });
  // Start at an even per-node outdegree no smaller than dL.
  const std::size_t k0 = std::max<std::size_t>(2, (dl + 2) / 2 * 2);
  cluster.install_graph(permutation_regular(kN, k0, rng));
  UniformLoss loss(loss_rate);
  RoundDriver driver(cluster, loss, rng);
  for (int chunk = 0; chunk < 10; ++chunk) {
    driver.run_rounds(20);
    for (NodeId u = 0; u < kN; ++u) {
      const auto d = cluster.node(u).view().degree();
      ASSERT_EQ(d % 2, 0u) << "s=" << s << " dl=" << dl << " node " << u;
      ASSERT_LE(d, s);
      // Degree never drops below min(initial, dL).
      ASSERT_GE(d + 2, std::min(k0, dl) + 2);
    }
  }
}

TEST_P(SfInvariantSweep, EdgeBalanceIdentity) {
  // Lemma 6.6, measured: over a steady-state window,
  // duplications ≈ losses + deletions (each action conserves edges
  // otherwise).
  const auto [s, dl, loss_rate] = GetParam();
  if (dl == 0 && loss_rate > 0.0) {
    GTEST_SKIP() << "dL = 0 cannot compensate for loss";
  }
  Rng rng(200 + s + dl);
  constexpr std::size_t kN = 400;
  Cluster cluster(kN, [s = s, dl = dl](NodeId id) {
    return std::make_unique<SendForget>(
        id, SendForgetConfig{.view_size = s, .min_degree = dl});
  });
  const std::size_t k0 = std::max<std::size_t>(2, (dl + 2) / 2 * 2);
  cluster.install_graph(permutation_regular(kN, k0, rng));
  UniformLoss loss(loss_rate);
  RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(400);

  const auto m0 = cluster.aggregate_metrics();
  const auto n0 = driver.network_metrics();
  const std::size_t e0 = cluster.snapshot().edge_count();
  driver.run_rounds(300);
  const auto m1 = cluster.aggregate_metrics();
  const auto n1 = driver.network_metrics();
  const std::size_t e1 = cluster.snapshot().edge_count();

  // Exact conservation: every duplication adds 2 edges, every loss or
  // deletion removes 2.
  const auto dup = static_cast<std::int64_t>(m1.duplications - m0.duplications);
  const auto del = static_cast<std::int64_t>(m1.deletions - m0.deletions);
  const auto lost = static_cast<std::int64_t>(n1.lost - n0.lost);
  const auto delta_edges =
      static_cast<std::int64_t>(e1) - static_cast<std::int64_t>(e0);
  EXPECT_EQ(delta_edges, 2 * (dup - del - lost))
      << "s=" << s << " dl=" << dl << " loss=" << loss_rate;
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, SfInvariantSweep,
    ::testing::Values(SweepCase{6, 0, 0.0}, SweepCase{8, 2, 0.01},
                      SweepCase{12, 4, 0.05}, SweepCase{16, 10, 0.1},
                      SweepCase{24, 8, 0.02}, SweepCase{40, 18, 0.05},
                      SweepCase{40, 34, 0.1}, SweepCase{60, 20, 0.0},
                      SweepCase{90, 0, 0.0}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      // append(), not "s" + ...: GCC 12 at -O3 reports a false -Wrestrict
      // on the prepend.
      return std::string("s")
          .append(std::to_string(info.param.view_size))
          .append("_dl")
          .append(std::to_string(info.param.min_degree))
          .append("_loss")
          .append(std::to_string(static_cast<int>(info.param.loss * 100)));
    });

// -------------------------------------------------- connectivity sweep

class ConnectivitySweep : public ::testing::TestWithParam<double> {};

TEST_P(ConnectivitySweep, StaysConnectedAcrossLossRates) {
  const double loss_rate = GetParam();
  Rng rng(static_cast<std::uint64_t>(loss_rate * 1000) + 7);
  constexpr std::size_t kN = 500;
  Cluster cluster(kN, [](NodeId id) {
    return std::make_unique<SendForget>(
        id, SendForgetConfig{.view_size = 40, .min_degree = 18});
  });
  cluster.install_graph(permutation_regular(kN, 10, rng));
  UniformLoss loss(loss_rate);
  RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(400);
  EXPECT_TRUE(is_weakly_connected(cluster.snapshot()))
      << "loss=" << loss_rate;
}

INSTANTIATE_TEST_SUITE_P(LossGrid, ConnectivitySweep,
                         ::testing::Values(0.0, 0.01, 0.05, 0.1, 0.2),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "loss" + std::to_string(static_cast<int>(
                                               info.param * 100));
                         });

// ---------------------------------------------------- topology recovery

class TopologySweep : public ::testing::TestWithParam<std::string> {};

TEST_P(TopologySweep, ReachesBalancedStateFromAnyConnectedStart) {
  const std::string& kind = GetParam();
  Rng rng(31);
  constexpr std::size_t kN = 300;
  Digraph g(0);
  if (kind == "ring") {
    g = ring_with_chords(kN, 1, rng);
  } else if (kind == "random") {
    g = random_out_regular(kN, 4, rng);
  } else {
    g = permutation_regular(kN, 2, rng);
  }
  // Make all outdegrees even (install truncation keeps them as built:
  // ring_with_chords gives odd degree 2? no: 1 ring edge + 1 chord = 2).
  Cluster cluster(kN, [](NodeId id) {
    return std::make_unique<SendForget>(
        id, SendForgetConfig{.view_size = 16, .min_degree = 2});
  });
  cluster.install_graph(g);
  UniformLoss loss(0.01);
  RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(800);
  const auto snap = cluster.snapshot();
  EXPECT_TRUE(is_weakly_connected(snap)) << kind;
  const auto summary = degree_summary(snap);
  // Load balance: indegree variance comparable to the mean.
  EXPECT_LT(summary.in_variance, 4.0 * summary.in_mean) << kind;
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologySweep,
                         ::testing::Values("ring", "random", "permutation"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });


// ------------------------------------------- degree MC vs simulation

struct McSimCase {
  std::size_t view_size;
  std::size_t min_degree;
  double loss;
};

class McSimAgreement : public ::testing::TestWithParam<McSimCase> {};

TEST_P(McSimAgreement, MeanDegreesAgree) {
  // The mean-field degree MC must predict the simulated nonatomic
  // protocol's steady-state means across the parameter grid, not just at
  // the paper's example configuration.
  const auto [s, dl, loss_rate] = GetParam();
  analysis::DegreeMcParams mc_params;
  mc_params.view_size = s;
  mc_params.min_degree = dl;
  mc_params.loss = loss_rate;
  const auto mc = analysis::solve_degree_mc(mc_params);

  Rng rng(700 + s + dl);
  constexpr std::size_t kN = 1200;
  Cluster cluster(kN, [s = s, dl = dl](NodeId id) {
    return std::make_unique<SendForget>(
        id, SendForgetConfig{.view_size = s, .min_degree = dl});
  });
  const std::size_t k0 = std::max<std::size_t>(2, dl + 2);  // even
  cluster.install_graph(permutation_regular(kN, k0, rng));
  UniformLoss loss(loss_rate);
  RoundDriver driver(cluster, loss, rng);
  // Equilibration time grows with the view size (self-loop actions
  // dominate when d << s); warm up proportionally.
  driver.run_rounds(300 + 20 * s);
  RunningStats out_mean;
  for (int snap = 0; snap < 8; ++snap) {
    driver.run_rounds(25);
    out_mean.add(degree_summary(cluster.snapshot()).out_mean);
  }
  EXPECT_NEAR(out_mean.mean(), mc.expected_out,
              std::max(0.35, mc.expected_out * 0.02))
      << "s=" << s << " dL=" << dl << " loss=" << loss_rate;
}

INSTANTIATE_TEST_SUITE_P(
    McSimGrid, McSimAgreement,
    ::testing::Values(McSimCase{16, 6, 0.02}, McSimCase{24, 10, 0.05},
                      McSimCase{40, 18, 0.01}, McSimCase{40, 18, 0.1},
                      McSimCase{64, 24, 0.05}),
    [](const ::testing::TestParamInfo<McSimCase>& info) {
      // append(), not "s" + ...: GCC 12 at -O3 reports a false -Wrestrict
      // on the prepend.
      return std::string("s")
          .append(std::to_string(info.param.view_size))
          .append("_dl")
          .append(std::to_string(info.param.min_degree))
          .append("_loss")
          .append(std::to_string(static_cast<int>(info.param.loss * 100)));
    });


// ------------------------------------------------ §5 variant invariants

struct VariantCase {
  bool mark;
  bool replace;
  std::size_t pairs;
  double loss;
};

class VariantSweep : public ::testing::TestWithParam<VariantCase> {};

TEST_P(VariantSweep, InvariantsAndConnectivityUnderLoss) {
  const auto [mark, replace, pairs, loss_rate] = GetParam();
  Rng rng(900 + (mark ? 1 : 0) + (replace ? 2 : 0) + pairs);
  constexpr std::size_t kN = 400;
  const SendForgetExtConfig cfg{.view_size = 24,
                                .min_degree = 8,
                                .pairs_per_message = pairs,
                                .mark_instead_of_clear = mark,
                                .replace_when_full = replace};
  Cluster cluster(kN, [cfg](NodeId id) {
    return std::make_unique<SendForgetExt>(id, cfg);
  });
  // Batching raises the activity threshold (an action needs 2*pairs
  // nonempty slots), so start well above it or the system quasi-freezes.
  cluster.install_graph(permutation_regular(kN, 10, rng));
  UniformLoss loss(loss_rate);
  RoundDriver driver(cluster, loss, rng);
  for (int chunk = 0; chunk < 8; ++chunk) {
    driver.run_rounds(40);
    for (NodeId u = 0; u < kN; ++u) {
      const auto d = cluster.node(u).view().degree();
      ASSERT_EQ(d % 2, 0u) << "mark=" << mark << " replace=" << replace
                           << " pairs=" << pairs;
      ASSERT_LE(d, cfg.view_size);
    }
  }
  EXPECT_TRUE(is_weakly_connected(cluster.snapshot()));
  // Degrees hold near an operating point above dL.
  EXPECT_GT(degree_summary(cluster.snapshot()).out_mean,
            static_cast<double>(cfg.min_degree));
}

INSTANTIATE_TEST_SUITE_P(
    VariantGrid, VariantSweep,
    ::testing::Values(VariantCase{false, false, 1, 0.05},
                      VariantCase{true, false, 1, 0.05},
                      VariantCase{false, true, 1, 0.05},
                      VariantCase{false, false, 2, 0.05},
                      VariantCase{true, true, 2, 0.1},
                      VariantCase{true, false, 3, 0.02}),
    [](const ::testing::TestParamInfo<VariantCase>& info) {
      return std::string(info.param.mark ? "mark" : "clear") +
             (info.param.replace ? "_replace" : "_drop") + "_p" +
             std::to_string(info.param.pairs) + "_loss" +
             std::to_string(static_cast<int>(info.param.loss * 100));
    });

}  // namespace
}  // namespace gossip
