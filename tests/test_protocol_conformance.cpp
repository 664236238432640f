// Framework conformance: contracts every PeerProtocol implementation must
// honor, run over all five protocols (S&F, the §5 variant, and the three
// baselines) under a common battery — random traffic, loss, churn of
// message interleavings.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "core/baselines/newscast.hpp"
#include "core/baselines/push_pull.hpp"
#include "core/baselines/shuffle.hpp"
#include "core/send_forget.hpp"
#include "core/variants/send_forget_ext.hpp"
#include "graph/graph_gen.hpp"
#include "sim/round_driver.hpp"
#include "test_support.hpp"

namespace gossip {
namespace {

using testing::CaptureTransport;

struct ProtocolUnderTest {
  std::string name;
  sim::Cluster::ProtocolFactory factory;
};

// gtest's default byte dump of a parameter begins with the address of its
// heap copy, so the test names ctest discovers changed from one process to
// the next under ASLR. Print the protocol name instead.
void PrintTo(const ProtocolUnderTest& put, std::ostream* os) {
  *os << put.name;
}

class ProtocolConformance
    : public ::testing::TestWithParam<ProtocolUnderTest> {};

TEST_P(ProtocolConformance, MessagesAreWellFormed) {
  const auto& put = GetParam();
  auto node = put.factory(0);
  node->install_view({1, 2, 3, 4});
  Rng rng(1);
  CaptureTransport transport;
  for (int k = 0; k < 200; ++k) {
    node->on_initiate(rng, transport);
  }
  for (const Message& m : transport.sent) {
    EXPECT_EQ(m.from, 0u) << put.name;
    EXPECT_NE(m.to, kNilNode) << put.name;
    EXPECT_FALSE(m.payload.empty()) << put.name;
    for (const auto& entry : m.payload) {
      EXPECT_FALSE(entry.empty()) << put.name;
    }
  }
}

TEST_P(ProtocolConformance, ViewNeverExceedsCapacityNorStoresEmpties) {
  const auto& put = GetParam();
  Rng rng(2);
  constexpr std::size_t kN = 80;
  sim::Cluster cluster(kN, put.factory);
  cluster.install_graph(permutation_regular(kN, 4, rng));
  sim::UniformLoss loss(0.05);
  sim::RoundDriver driver(cluster, loss, rng);
  const std::size_t capacity = cluster.node(0).view().capacity();
  for (int chunk = 0; chunk < 10; ++chunk) {
    driver.run_rounds(20);
    for (NodeId u = 0; u < kN; ++u) {
      const auto& view = cluster.node(u).view();
      ASSERT_LE(view.degree(), capacity) << put.name;
      for (const auto& entry : view.entries()) {
        ASSERT_FALSE(entry.empty()) << put.name;
      }
    }
  }
}

TEST_P(ProtocolConformance, MetricsAreConsistent) {
  const auto& put = GetParam();
  Rng rng(3);
  constexpr std::size_t kN = 60;
  sim::Cluster cluster(kN, put.factory);
  cluster.install_graph(permutation_regular(kN, 4, rng));
  sim::UniformLoss loss(0.02);
  sim::RoundDriver driver(cluster, loss, rng);
  driver.run_rounds(150);
  const auto m = cluster.aggregate_metrics();
  EXPECT_GT(m.actions_initiated, 0u) << put.name;
  EXPECT_LE(m.self_loop_actions, m.actions_initiated) << put.name;
  EXPECT_GT(m.messages_sent, 0u) << put.name;
  // Messages delivered are <= sent (loss, dead nodes); received counts
  // only what arrived.
  EXPECT_LE(m.messages_received, driver.network_metrics().sent) << put.name;
  EXPECT_EQ(m.messages_received, driver.network_metrics().delivered)
      << put.name;
}

TEST_P(ProtocolConformance, SurvivesHostileInterleavings) {
  // Random initiate/receive interleavings with arbitrary (well-formed)
  // payloads must never corrupt the view.
  const auto& put = GetParam();
  auto node = put.factory(0);
  node->install_view({1, 2});
  Rng rng(4);
  CaptureTransport transport;
  const std::size_t capacity = node->view().capacity();
  for (int k = 0; k < 3000; ++k) {
    if (rng.bernoulli(0.5)) {
      node->on_initiate(rng, transport);
    } else {
      Message m;
      m.from = static_cast<NodeId>(1 + rng.uniform(30));
      m.to = 0;
      // Cycle through every message kind, including ones the protocol
      // does not speak (it must not crash; S&F-family ignores them).
      m.kind = static_cast<MessageKind>(rng.uniform(7));
      const std::size_t len = 1 + rng.uniform(4);
      for (std::size_t i = 0; i < len; ++i) {
        m.payload.push_back(
            ViewEntry{static_cast<NodeId>(1 + rng.uniform(30)), false});
      }
      node->on_message(m, rng, transport);
    }
    ASSERT_LE(node->view().degree(), capacity) << put.name;
  }
}

TEST_P(ProtocolConformance, DeterministicForFixedSeed) {
  const auto& put = GetParam();
  auto run = [&](std::uint64_t seed) {
    Rng rng(seed);
    sim::Cluster cluster(40, put.factory);
    cluster.install_graph(permutation_regular(40, 4, rng));
    sim::UniformLoss loss(0.03);
    sim::RoundDriver driver(cluster, loss, rng);
    driver.run_rounds(60);
    return cluster.snapshot();
  };
  EXPECT_TRUE(run(11) == run(11)) << put.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolConformance,
    ::testing::Values(
        ProtocolUnderTest{"send_forget",
                          [](NodeId id) {
                            return std::make_unique<SendForget>(
                                id, SendForgetConfig{.view_size = 16,
                                                     .min_degree = 6});
                          }},
        ProtocolUnderTest{"send_forget_ext",
                          [](NodeId id) {
                            return std::make_unique<SendForgetExt>(
                                id,
                                SendForgetExtConfig{
                                    .view_size = 16,
                                    .min_degree = 6,
                                    .pairs_per_message = 2,
                                    .mark_instead_of_clear = true,
                                    .replace_when_full = true});
                          }},
        ProtocolUnderTest{"shuffle",
                          [](NodeId id) {
                            return std::make_unique<Shuffle>(
                                id, ShuffleConfig{.view_size = 16,
                                                  .shuffle_length = 3});
                          }},
        ProtocolUnderTest{"push_pull",
                          [](NodeId id) {
                            return std::make_unique<PushPullKeep>(
                                id, PushPullConfig{.view_size = 16,
                                                   .exchange_length = 3});
                          }},
        ProtocolUnderTest{"newscast",
                          [](NodeId id) {
                            return std::make_unique<Newscast>(
                                id, NewscastConfig{.view_size = 16});
                          }}),
    [](const ::testing::TestParamInfo<ProtocolUnderTest>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace gossip
