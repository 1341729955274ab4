// Tests for the two degree-rank reduction procedures (Sections 2.2, 2.3)
// against the trajectory bounds of Lemmas 2.4 and 2.6.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "graph/generators.hpp"
#include "splitting/degree_rank_reduction.hpp"
#include "splitting/drr2.hpp"
#include "support/rng.hpp"

namespace ds::splitting {
namespace {

orient::SplitConfig euler_config(double eps) {
  orient::SplitConfig config;
  config.eps = eps;
  return config;
}

TEST(Drr1, OneIterationRoughlyHalvesBothSides) {
  Rng rng(1);
  const auto b = graph::gen::random_biregular(64, 128, 32, rng);
  local::CostMeter meter;
  const auto reduced = drr1_iteration(b, euler_config(0.2), rng, &meter);
  // Euler orientation: every node keeps between (d-1)/2 and (d+1)/2 edges.
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    const double d = static_cast<double>(b.left_degree(u));
    EXPECT_GE(reduced.left_degree(u), std::floor((d - 1.0) / 2.0));
    EXPECT_LE(reduced.left_degree(u), std::ceil((d + 1.0) / 2.0));
  }
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    const double d = static_cast<double>(b.right_degree(v));
    EXPECT_LE(reduced.right_degree(v), std::ceil((d + 1.0) / 2.0));
  }
  EXPECT_GT(meter.breakdown().at("degree-split"), 0.0);
}

class Drr1Trajectory
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(Drr1Trajectory, Lemma24BoundsHold) {
  const auto [k, eps] = GetParam();
  Rng rng(31 * k);
  const auto b = graph::gen::random_biregular(64, 64, 48, rng);
  DrrTrace trace;
  degree_rank_reduction(b, k, euler_config(eps), rng, nullptr, &trace);
  ASSERT_EQ(trace.min_left_degree.size(), k + 1);
  for (std::size_t i = 0; i <= k; ++i) {
    const double delta_bound =
        drr1_delta_bound(b.min_left_degree(), eps, i);
    const double rank_bound = drr1_rank_bound(b.rank(), eps, i);
    EXPECT_GT(static_cast<double>(trace.min_left_degree[i]), delta_bound)
        << "iteration " << i;
    EXPECT_LT(static_cast<double>(trace.rank[i]), rank_bound)
        << "iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Drr1Trajectory,
    ::testing::Values(std::make_tuple(1, 1.0 / 3.0), std::make_tuple(2, 0.25),
                      std::make_tuple(3, 1.0 / 3.0),
                      std::make_tuple(4, 0.2)));

TEST(Drr1, BoundFormulas) {
  EXPECT_NEAR(drr1_delta_bound(100, 0.0, 1), 48.0, 1e-12);
  EXPECT_NEAR(drr1_rank_bound(100, 0.0, 1), 53.0, 1e-12);
  EXPECT_NEAR(drr1_delta_bound(64, 1.0 / 3.0, 0), 62.0, 1e-12);
}

TEST(Drr2, RightDegreesHalveExactly) {
  Rng rng(2);
  const auto b = graph::gen::random_biregular(32, 64, 24, rng);
  const auto reduced = drr2_iteration(b, euler_config(0.01), rng, nullptr);
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    const std::size_t before = b.right_degree(v);
    EXPECT_EQ(reduced.right_degree(v), (before + 1) / 2) << "v=" << v;
  }
}

TEST(Drr2, RankNeverDropsBelowOne) {
  Rng rng(3);
  const auto b = graph::gen::random_left_regular(48, 96, 24, rng);
  const std::size_t k = static_cast<std::size_t>(
      std::ceil(std::log2(static_cast<double>(b.rank()))));
  DrrTrace trace;
  const auto reduced = drr2(b, k + 3, euler_config(0.01), rng, nullptr, &trace);
  EXPECT_EQ(reduced.rank(), 1u);
  // Lemma 2.6: after ⌈log r⌉ iterations the rank is exactly 1 and it stays
  // there (a degree-1 right node keeps its single edge).
  EXPECT_EQ(trace.rank[k], 1u);
  for (std::size_t i = 0; i < trace.rank.size(); ++i) {
    EXPECT_GE(trace.rank[i], 1u);
    EXPECT_LT(static_cast<double>(trace.rank[i]),
              drr2_rank_bound(b.rank(), i))
        << "iteration " << i;
  }
}

TEST(Drr2, LeftDegreesLoseAtMostHalfPlusOne) {
  Rng rng(4);
  const auto b = graph::gen::random_biregular(40, 80, 30, rng);
  const auto reduced = drr2_iteration(b, euler_config(0.001), rng, nullptr);
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    const double d = static_cast<double>(b.left_degree(u));
    // Each u loses at most half of its pair-edges plus the discrepancy:
    // kept >= (d - disc)/2 with disc <= 1 under the Euler substrate
    // (ceil of (d-1)/2 kept at worst, minus one more for odd pairings).
    EXPECT_GE(static_cast<double>(reduced.left_degree(u)), d / 2.0 - 1.0);
  }
}

TEST(Drr2, PreservesEdgeOwnership) {
  // Every surviving edge must exist in the original instance.
  Rng rng(5);
  const auto b = graph::gen::random_left_regular(20, 40, 10, rng);
  const auto reduced = drr2_iteration(b, euler_config(0.1), rng, nullptr);
  for (graph::EdgeId e = 0; e < reduced.num_edges(); ++e) {
    const auto [u, v] = reduced.endpoints(e);
    EXPECT_TRUE(b.has_edge(u, v));
  }
}

TEST(Drr2, DegreeOneRightNodesKeepTheirEdge) {
  // v0 has degree 3: one pair + one unpaired
  graph::BipartiteGraph b(3, 1, {{0, 0}, {1, 0}, {2, 0}});
  Rng rng(6);
  auto reduced = drr2_iteration(b, euler_config(0.1), rng, nullptr);
  EXPECT_EQ(reduced.right_degree(0), 2u);
  reduced = drr2_iteration(reduced, euler_config(0.1), rng, nullptr);
  EXPECT_EQ(reduced.right_degree(0), 1u);
  reduced = drr2_iteration(reduced, euler_config(0.1), rng, nullptr);
  EXPECT_EQ(reduced.right_degree(0), 1u);  // never drops to 0
}

}  // namespace
}  // namespace ds::splitting
