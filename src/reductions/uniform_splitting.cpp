#include "reductions/uniform_splitting.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "coloring/distance_coloring.hpp"
#include "derand/engine.hpp"
#include "derand/events.hpp"
#include "local/ids.hpp"
#include "support/check.hpp"

namespace ds::reductions {

namespace {

/// Per-left-node (lo, hi) red-count windows for accuracy eps.
std::pair<std::vector<std::size_t>, std::vector<std::size_t>> windows(
    const graph::BipartiteGraph& b, double eps) {
  std::vector<std::size_t> lo(b.num_left(), 0);
  std::vector<std::size_t> hi(b.num_left(), SIZE_MAX);
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    const double d = static_cast<double>(b.left_degree(u));
    hi[u] = static_cast<std::size_t>(std::ceil((0.5 + eps) * d));
    lo[u] = static_cast<std::size_t>(std::max(0.0, std::floor((0.5 - eps) * d)));
  }
  return {std::move(lo), std::move(hi)};
}

}  // namespace

bool is_two_sided_split(const graph::BipartiteGraph& b,
                        const std::vector<bool>& is_red, double eps) {
  DS_CHECK(is_red.size() == b.num_right());
  const auto [lo, hi] = windows(b, eps);
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    std::size_t red = 0;
    for (graph::RightId v : b.left_neighbors(u)) {
      if (is_red[v]) ++red;
    }
    if (red < lo[u] || red > hi[u]) return false;
  }
  return true;
}

bool is_uniform_splitting(const graph::Graph& g,
                          const std::vector<bool>& is_red, double eps,
                          std::size_t degree_threshold) {
  DS_CHECK(is_red.size() == g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::size_t d = g.degree(v);
    if (d < degree_threshold) continue;
    std::size_t red = 0;
    for (graph::NodeId w : g.neighbors(v)) {
      if (is_red[w]) ++red;
    }
    const double dd = static_cast<double>(d);
    const auto hi = static_cast<std::size_t>(std::ceil((0.5 + eps) * dd));
    const auto lo = static_cast<std::size_t>(
        std::max(0.0, std::floor((0.5 - eps) * dd)));
    if (red > hi || red < lo) return false;
  }
  return true;
}

TwoSidedSplitResult two_sided_split_bipartite(const graph::BipartiteGraph& b,
                                              double eps, Rng& rng,
                                              local::CostMeter* meter) {
  DS_CHECK(eps > 0.0 && eps < 0.5);
  TwoSidedSplitResult result;
  result.is_red.assign(b.num_right(), true);
  if (b.num_left() == 0 || b.num_right() == 0) return result;

  // Schedule by a coloring of B² and run the two-sided derandomization.
  const graph::Graph& unified = b.unified();
  Rng id_rng = rng.fork(0x2512Dull);
  const auto ids =
      local::assign_ids(unified, local::IdStrategy::kSequential, id_rng);
  const coloring::PowerColoring schedule =
      coloring::color_power(unified, 2, ids, meter);
  if (meter != nullptr) {
    meter->charge("slocal-compile", 2.0 * schedule.num_colors);
  }
  std::vector<std::uint32_t> order(b.num_right());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return schedule.colors[b.unified_right(x)] <
                            schedule.colors[b.unified_right(y)];
                   });
  const derand::Problem problem = derand::two_sided_problem(b, eps);
  const derand::Result derand_result = derand::derandomize(problem, order);
  result.initial_potential = derand_result.initial_potential;
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    result.is_red[v] = derand_result.assignment[v] == 0;
  }
  if (is_two_sided_split(b, result.is_red, eps)) {
    return result;
  }

  // Outside the potential < 1 regime the greedy pass carries no guarantee;
  // fall back to local search. Attempt 0 repairs the derandomized
  // assignment (the pessimistic-estimator greedy is a strong heuristic even
  // when its potential exceeds 1 — typically only a few constraints are
  // violated); later attempts restart from fresh random colors. Each pass
  // repairs every violated constraint *minimally* via WalkSAT-style moves:
  // sample a few wrong-colored neighbors, flip the one breaking the fewest
  // other constraints, repeat until the count re-enters its window.
  result.derandomized = false;
  const auto [lo, hi] = windows(b, eps);
  std::vector<std::size_t> red(b.num_left(), 0);
  auto recount = [&] {
    std::fill(red.begin(), red.end(), 0);
    for (graph::EdgeId e = 0; e < b.num_edges(); ++e) {
      const auto [u, v] = b.endpoints(e);
      if (result.is_red[v]) ++red[u];
    }
  };
  auto violated = [&](graph::LeftId u) {
    return red[u] < lo[u] || red[u] > hi[u];
  };
  auto flip_score = [&](graph::RightId w, bool to_red) {
    int score = 0;
    const int delta = to_red ? 1 : -1;
    for (graph::LeftId u : b.right_neighbors(w)) {
      const bool before = violated(u);
      const std::size_t after = red[u] + delta;
      const bool broken = after < lo[u] || after > hi[u];
      score += static_cast<int>(broken) - static_cast<int>(before);
    }
    return score;
  };
  auto apply_flip = [&](graph::RightId w, bool to_red) {
    result.is_red[w] = to_red;
    const int delta = to_red ? 1 : -1;
    for (graph::LeftId u : b.right_neighbors(w)) {
      red[u] = static_cast<std::size_t>(static_cast<long long>(red[u]) + delta);
    }
  };
  for (int attempt = 0; attempt < 60; ++attempt) {
    if (attempt > 0) {
      for (graph::RightId v = 0; v < b.num_right(); ++v) {
        result.is_red[v] = rng.next_bool();
      }
    }
    recount();
    for (int pass = 0; pass < 400; ++pass) {
      bool any_violation = false;
      for (graph::LeftId u = 0; u < b.num_left(); ++u) {
        if (!violated(u)) continue;
        any_violation = true;
        const auto nbrs = b.left_neighbors(u);
        for (int guard = 0;
             guard < 4 * static_cast<int>(nbrs.size()) && violated(u);
             ++guard) {
          const bool to_red = red[u] < lo[u];
          graph::RightId best_w = UINT32_MAX;
          int best_score = INT32_MAX;
          for (int c = 0; c < 8; ++c) {
            const graph::RightId w = nbrs[rng.next_index(nbrs.size())];
            if (result.is_red[w] == to_red) continue;
            const int score = flip_score(w, to_red);
            if (score < best_score) {
              best_score = score;
              best_w = w;
            }
          }
          if (best_w == UINT32_MAX) break;  // no candidate drawn; retry pass
          apply_flip(best_w, to_red);
        }
      }
      if (!any_violation) return result;
    }
  }
  DS_CHECK_MSG(false,
               "two_sided_split_bipartite failed: instance outside the "
               "solvable regime (degree too small for eps?)");
  return result;  // unreachable
}

UniformSplitResult uniform_split(const graph::Graph& g, double eps,
                                 std::size_t degree_threshold, Rng& rng,
                                 local::CostMeter* meter) {
  DS_CHECK(eps > 0.0 && eps < 0.5);
  // Constraint instance: one left node per constrained graph node, right
  // nodes are all graph nodes, u's right neighbors are its graph neighbors.
  std::size_t constrained = 0;
  std::vector<std::pair<graph::LeftId, graph::RightId>> edges;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) < degree_threshold || g.degree(v) == 0) continue;
    const auto u = static_cast<graph::LeftId>(constrained++);
    for (graph::NodeId w : g.neighbors(v)) edges.emplace_back(u, w);
  }
  const graph::BipartiteGraph b(constrained, g.num_nodes(), edges);

  UniformSplitResult result;
  if (b.num_left() == 0) {
    // Nothing constrained: color everything red in zero rounds.
    result.is_red.assign(g.num_nodes(), true);
    return result;
  }
  const TwoSidedSplitResult core = two_sided_split_bipartite(b, eps, rng, meter);
  result.is_red = core.is_red;
  result.initial_potential = core.initial_potential;
  result.derandomized = core.derandomized;
  DS_CHECK_MSG(is_uniform_splitting(g, result.is_red, eps, degree_threshold),
               "uniform_split: bipartite core returned an invalid split");
  return result;
}

}  // namespace ds::reductions
