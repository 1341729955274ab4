// Tests for the shattering-based randomized algorithm (Section 2.4):
// phase semantics, Lemma 2.9's failure probability shape, residual
// structure, and the Theorem 1.2 end-to-end pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/generators.hpp"
#include "splitting/shattering.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace ds::splitting {
namespace {

TEST(ShatteringPhase, ColorFractionsMatchDesign) {
  Rng rng(1);
  const auto b = graph::gen::random_biregular(256, 2048, 64, rng);
  // With δ = 64 and nearly uniform degrees, almost no node triggers the
  // uncoloring rule, so color fractions stay near 1/4, 1/4, 1/2.
  const ShatterOutcome outcome = shattering_phase(b, rng);
  std::size_t red = 0;
  std::size_t blue = 0;
  for (Color c : outcome.partial) {
    red += c == Color::kRed;
    blue += c == Color::kBlue;
  }
  const double n = static_cast<double>(b.num_right());
  EXPECT_NEAR(red / n, 0.25, 0.05);
  EXPECT_NEAR(blue / n, 0.25, 0.05);
}

TEST(ShatteringPhase, UncoloringGuaranteesQuarterUncolored) {
  Rng rng(2);
  const auto b = graph::gen::random_biregular(128, 256, 16, rng);
  const ShatterOutcome outcome = shattering_phase(b, rng);
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    std::size_t uncolored = 0;
    for (graph::RightId v : b.left_neighbors(u)) {
      if (outcome.partial[v] == Color::kUncolored) ++uncolored;
    }
    // Every u ends with at least ceil(deg/4) uncolored neighbors: either it
    // uncolored everything, or at most 3/4 were colored.
    EXPECT_GE(4 * uncolored, b.left_degree(u)) << "u=" << u;
  }
}

TEST(ShatteringPhase, UnsatisfiedFlagMatchesDefinition) {
  Rng rng(3);
  const auto b = graph::gen::random_biregular(64, 128, 8, rng);
  const ShatterOutcome outcome = shattering_phase(b, rng);
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    bool red = false;
    bool blue = false;
    for (graph::RightId v : b.left_neighbors(u)) {
      red = red || outcome.partial[v] == Color::kRed;
      blue = blue || outcome.partial[v] == Color::kBlue;
    }
    EXPECT_EQ(outcome.unsatisfied[u], !(red && blue));
  }
}

TEST(ShatteringPhase, CostsTwoRounds) {
  Rng rng(4);
  const auto b = graph::gen::random_biregular(32, 64, 8, rng);
  local::CostMeter meter;
  shattering_phase(b, rng, &meter);
  EXPECT_EQ(meter.executed_rounds(), 2u);
}

TEST(Lemma29, UnsatisfiedRateDecaysWithDegree) {
  // Monte-Carlo check of the e^{-ηΔ} shape: the empirical unsatisfied rate
  // must drop by at least 4x when the degree doubles from 16 to 32.
  Rng rng(5);
  auto rate = [&](std::size_t delta) {
    const auto b = graph::gen::random_biregular(512, 1024, delta, rng);
    std::size_t unsat = 0;
    std::size_t total = 0;
    for (int trial = 0; trial < 10; ++trial) {
      const ShatterOutcome outcome = shattering_phase(b, rng);
      unsat += static_cast<std::size_t>(std::count(
          outcome.unsatisfied.begin(), outcome.unsatisfied.end(), true));
      total += b.num_left();
    }
    return static_cast<double>(unsat) / static_cast<double>(total);
  };
  const double rate16 = rate(16);
  const double rate32 = rate(32);
  EXPECT_LT(rate32, rate16 / 4.0 + 0.002);
}

TEST(Lemma29, BoundFormulaDecays) {
  const double b32 = shattering_unsatisfied_bound(32, 4);
  const double b64 = shattering_unsatisfied_bound(64, 4);
  const double b128 = shattering_unsatisfied_bound(128, 4);
  EXPECT_LT(b64, b32);
  EXPECT_LT(b128, b64);
  EXPECT_LT(b128 / b64, b64 / b32 + 1e-9);  // at least geometric decay
}

TEST(Theorem12, EndToEndOnLowDegree) {
  Rng rng(6);
  const auto b = graph::gen::random_biregular(512, 1024, 10, rng);
  local::CostMeter meter;
  ShatteringStats stats;
  const Coloring colors = randomized_weak_split(b, rng, &meter, &stats);
  EXPECT_TRUE(is_weak_splitting(b, colors));
  EXPECT_FALSE(stats.used_trivial);
  EXPECT_EQ(meter.executed_rounds() >= 2, true);
}

TEST(Theorem12, TrivialShortcutAtHighDegree) {
  Rng rng(7);
  const auto b = graph::gen::random_biregular(64, 128, 32, rng);
  ShatteringStats stats;
  const Coloring colors = randomized_weak_split(b, rng, nullptr, &stats);
  EXPECT_TRUE(is_weak_splitting(b, colors));
  EXPECT_TRUE(stats.used_trivial);
}

TEST(Theorem12, NormalizesSkewedDegrees) {
  Rng rng(8);
  // Mix: most left nodes have degree 8, a few have degree 64 (> 2δ).
  std::vector<std::pair<graph::LeftId, graph::RightId>> edges;
  for (graph::LeftId u = 0; u < 64; ++u) {
    Rng pick = rng.fork(u);
    const std::size_t degree = u < 8 ? 64 : 8;
    std::vector<graph::RightId> pool(256);
    for (graph::RightId v = 0; v < 256; ++v) pool[v] = v;
    pick.shuffle(pool);
    for (std::size_t j = 0; j < degree; ++j) edges.emplace_back(u, pool[j]);
  }
  const graph::BipartiteGraph b(64, 256, edges);
  ShatteringStats stats;
  const Coloring colors = randomized_weak_split(b, rng, nullptr, &stats);
  EXPECT_TRUE(is_weak_splitting(b, colors));
  EXPECT_TRUE(stats.normalized);
}

TEST(Theorem12, RequiresMinimumDegree) {
  Rng rng(9);
  const auto b = graph::gen::random_left_regular(16, 32, 4, rng);
  EXPECT_THROW(randomized_weak_split(b, rng), ds::CheckError);
}

TEST(Theorem12, ResidualComponentsShrinkWithDegree) {
  // Shape check on Theorem 2.8: larger δ leaves (weakly) smaller residual
  // components. Averaged over trials to tame variance.
  Rng rng(10);
  auto largest = [&](std::size_t delta) {
    double total = 0;
    for (int trial = 0; trial < 5; ++trial) {
      const auto b = graph::gen::random_biregular(512, 1024, delta, rng);
      ShatteringStats stats;
      randomized_weak_split(b, rng, nullptr, &stats);
      total += static_cast<double>(stats.largest_component);
    }
    return total / 5.0;
  };
  const double big = largest(10);
  const double small = largest(20);
  EXPECT_LE(small, big + 1.0);
}

}  // namespace
}  // namespace ds::splitting
