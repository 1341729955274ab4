// Cross-cutting property sweeps: every instance family x every applicable
// solver, always judged by the independent verifiers. These are the
// "random user input" tests — they assert no internal invariant beyond
// what the public API promises.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "coloring/randcolor.hpp"
#include "coloring/verify.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "mis/mis.hpp"
#include "coloring/reduce.hpp"
#include "netdecomp/decomposition.hpp"
#include "netdecomp/derandomize.hpp"
#include "splitting/solver.hpp"
#include "splitting/weak_splitting.hpp"
#include "support/rng.hpp"

namespace ds {
namespace {

struct NamedGraph {
  std::string name;
  graph::Graph g;
};

std::vector<NamedGraph> graph_zoo(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NamedGraph> zoo;
  zoo.push_back({"gnp-sparse", graph::gen::gnp(120, 0.03, rng)});
  zoo.push_back({"gnp-dense", graph::gen::gnp(60, 0.4, rng)});
  zoo.push_back({"regular-8", graph::gen::random_regular(96, 8, rng)});
  zoo.push_back({"regular-dense", graph::gen::random_regular(40, 31, rng)});
  zoo.push_back({"cycle", graph::gen::cycle(50)});
  zoo.push_back({"torus", graph::gen::torus(8, 9)});
  zoo.push_back({"tree", graph::gen::random_tree(80, rng)});
  zoo.push_back({"hypercube", graph::gen::hypercube(6)});
  zoo.push_back({"power-law", graph::gen::chung_lu_power_law(150, 2.5, 5, rng)});
  zoo.push_back({"complete", graph::gen::complete(20)});
  zoo.push_back({"edgeless", graph::Graph(25)});
  return zoo;
}

class GraphZoo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphZoo, LubyIsAlwaysAnMis) {
  for (const auto& [name, g] : graph_zoo(GetParam())) {
    const auto outcome = mis::luby(g, GetParam() + 1);
    EXPECT_TRUE(coloring::is_mis(g, outcome.in_mis)) << name;
  }
}

TEST_P(GraphZoo, TrialColoringIsAlwaysProperWithinDeltaPlusOne) {
  for (const auto& [name, g] : graph_zoo(GetParam() + 100)) {
    const auto outcome = coloring::randomized_coloring(g, GetParam() + 2);
    EXPECT_TRUE(coloring::is_proper_coloring(g, outcome.colors)) << name;
    EXPECT_LE(outcome.num_colors, g.max_degree() + 1) << name;
  }
}

TEST_P(GraphZoo, BallCarvingAlwaysDecomposes) {
  for (const auto& [name, g] : graph_zoo(GetParam() + 200)) {
    const auto d = netdecomp::ball_carving(g);
    EXPECT_TRUE(netdecomp::is_network_decomposition(
        g, d, 4 * d.max_weak_diameter + 1, d.num_blocks))
        << name;
    const auto in_mis = netdecomp::mis_via_decomposition(g, d);
    EXPECT_TRUE(coloring::is_mis(g, in_mis)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphZoo, ::testing::Values(1, 2, 3));

struct NamedBipartite {
  std::string name;
  graph::BipartiteGraph b;
};

std::vector<NamedBipartite> bipartite_zoo(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NamedBipartite> zoo;
  zoo.push_back(
      {"biregular-32", graph::gen::random_biregular(64, 128, 32, rng)});
  zoo.push_back(
      {"left-regular-12", graph::gen::random_left_regular(60, 200, 12, rng)});
  zoo.push_back({"incidence-regular",
                 graph::gen::incidence_bipartite(
                     graph::gen::random_regular(80, 14, rng))});
  zoo.push_back({"incidence-high-girth",
                 graph::gen::incidence_bipartite(
                     graph::gen::high_girth_regular(700, 8, 5, rng))});
  zoo.push_back({"bipartite-cycle", graph::gen::bipartite_cycle(24)});
  zoo.push_back(
      {"dense-biregular", graph::gen::random_biregular(24, 64, 48, rng)});
  return zoo;
}

class BipartiteZoo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BipartiteZoo, SolverFacadeAlwaysVerifiesBothModes) {
  for (const auto& [name, b] : bipartite_zoo(GetParam() * 31)) {
    const std::size_t girth = graph::girth(b.unified());
    for (bool deterministic : {true, false}) {
      Rng rng(GetParam());
      splitting::SolverOptions options;
      options.deterministic = deterministic;
      const auto result = splitting::solve_weak_splitting(b, options, rng);
      EXPECT_TRUE(splitting::is_weak_splitting(b, result.colors))
          << name << (deterministic ? " det" : " rand");
      // The solver computes the girth only on the branch that reads it, so
      // the true girth as a hint must not change what it picks or outputs.
      Rng hinted_rng(GetParam());
      options.girth_hint = girth;
      const auto hinted =
          splitting::solve_weak_splitting(b, options, hinted_rng);
      EXPECT_EQ(hinted.algorithm, result.algorithm)
          << name << (deterministic ? " det" : " rand");
      EXPECT_EQ(hinted.colors, result.colors)
          << name << (deterministic ? " det" : " rand");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BipartiteZoo, ::testing::Values(1, 2, 3));

TEST(FailureInjection, VerifiersRejectCorruptedOutputs) {
  Rng rng(7);
  const auto b = graph::gen::random_biregular(32, 64, 16, rng);
  splitting::SolverOptions options;
  auto result = splitting::solve_weak_splitting(b, options, rng);
  ASSERT_TRUE(splitting::is_weak_splitting(b, result.colors));
  // Paint everything red: every constraint loses its blue witness.
  for (auto& c : result.colors) c = splitting::Color::kRed;
  EXPECT_FALSE(splitting::is_weak_splitting(b, result.colors));
}

TEST(FailureInjection, MisVerifierRejectsDominationGaps) {
  Rng rng(8);
  const auto g = graph::gen::random_regular(60, 5, rng);
  auto outcome = mis::luby(g, 9);
  ASSERT_TRUE(coloring::is_mis(g, outcome.in_mis));
  // Remove one MIS node: either independence still holds but some node is
  // now undominated, or (isolated case) nothing changes — find a node whose
  // removal breaks maximality.
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (outcome.in_mis[v]) {
      outcome.in_mis[v] = false;
      break;
    }
  }
  EXPECT_FALSE(coloring::is_mis(g, outcome.in_mis));
}

TEST(FailureInjection, DecompositionVerifierRejectsBlockMerges) {
  Rng rng(9);
  const auto g = graph::gen::random_regular(80, 6, rng);
  auto d = netdecomp::ball_carving(g);
  ASSERT_GE(d.num_blocks, 2u);
  // Force all clusters into block 0: adjacent clusters now share a block.
  for (auto& blk : d.block) blk = 0;
  d.num_blocks = 1;
  EXPECT_FALSE(netdecomp::is_network_decomposition(
      g, d, 4 * d.max_weak_diameter + 1, 1));
}

}  // namespace
}  // namespace ds
