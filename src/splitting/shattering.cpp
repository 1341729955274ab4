#include "splitting/shattering.hpp"

#include <algorithm>
#include <cmath>

#include "graph/virtual_split.hpp"
#include "splitting/deterministic.hpp"
#include "splitting/trivial_random.hpp"
#include "support/check.hpp"

namespace ds::splitting {

ShatterOutcome shattering_phase(const graph::BipartiteGraph& b, Rng& rng,
                                local::CostMeter* meter) {
  ShatterOutcome out;
  out.partial.assign(b.num_right(), Color::kUncolored);
  // Coloring phase: red 1/4, blue 1/4, uncolored 1/2.
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    const double roll = rng.next_double();
    if (roll < 0.25) {
      out.partial[v] = Color::kRed;
    } else if (roll < 0.5) {
      out.partial[v] = Color::kBlue;
    }
  }
  // Uncoloring phase: u with more than 3/4 colored neighbors uncolors all of
  // them. Counts are taken simultaneously against the phase-1 colors.
  std::vector<bool> uncolor(b.num_right(), false);
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    const auto nbrs = b.left_neighbors(u);
    std::size_t colored = 0;
    for (graph::RightId v : nbrs) {
      if (out.partial[v] != Color::kUncolored) ++colored;
    }
    if (4 * colored > 3 * nbrs.size()) {
      for (graph::RightId v : nbrs) uncolor[v] = true;
    }
  }
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    if (uncolor[v]) out.partial[v] = Color::kUncolored;
  }
  // Satisfaction check against the post-uncoloring colors.
  out.unsatisfied.assign(b.num_left(), false);
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    bool red = false;
    bool blue = false;
    for (graph::RightId v : b.left_neighbors(u)) {
      const Color c = out.partial[v];
      red = red || (c == Color::kRed);
      blue = blue || (c == Color::kBlue);
    }
    out.unsatisfied[u] = !(red && blue);
  }
  if (meter != nullptr) meter->add_executed(2);
  return out;
}

double shattering_unsatisfied_bound(std::size_t max_degree, std::size_t rank) {
  const double d = static_cast<double>(max_degree);
  const double r = static_cast<double>(std::max<std::size_t>(1, rank));
  return 2.0 * std::exp(-d / 32.0) * d * r + 2.0 * std::pow(2.0, -d / 8.0);
}

namespace {

/// Solves one residual component: Theorem 2.5 when its δ >= 2 log n_H
/// precondition holds (and the output verifies), the robust small-instance
/// solver otherwise.
Coloring solve_component(const graph::BipartiteGraph& comp, Rng& rng,
                         local::CostMeter* meter) {
  const std::size_t n_comp = std::max<std::size_t>(4, comp.num_nodes());
  const double log_n = std::log2(static_cast<double>(n_comp));
  if (static_cast<double>(comp.min_left_degree()) >= 2.0 * log_n) {
    Coloring colors = deterministic_weak_split(comp, rng, meter);
    if (is_weak_splitting(comp, colors)) return colors;
  }
  return robust_component_solve(comp, rng);
}

}  // namespace

Coloring randomized_weak_split(const graph::BipartiteGraph& b, Rng& rng,
                               local::CostMeter* meter,
                               ShatteringStats* stats) {
  DS_CHECK_MSG(b.min_left_degree() >= 8,
               "randomized_weak_split requires δ >= 8");
  ShatteringStats local_stats;
  const std::size_t n = std::max<std::size_t>(4, b.num_nodes());
  const double log_n = std::log2(static_cast<double>(n));

  // δ > 2 log n: the trivial 0-round algorithm already succeeds w.h.p.
  if (static_cast<double>(b.min_left_degree()) > 2.0 * log_n) {
    local_stats.used_trivial = true;
    Coloring colors;
    for (int attempt = 0; attempt < 200; ++attempt) {
      colors = trivial_random_split(b, rng, meter);
      if (is_weak_splitting(b, colors)) break;
    }
    DS_CHECK_MSG(is_weak_splitting(b, colors),
                 "trivial algorithm kept failing despite δ > 2 log n");
    if (stats != nullptr) *stats = local_stats;
    return colors;
  }

  // Degree normalization: split left nodes so δ > Δ/2 (Section 2.4). The
  // right side is unchanged, so colorings transfer verbatim.
  const std::size_t delta = b.min_left_degree();
  graph::NormalizedBipartite normalized;
  const graph::BipartiteGraph* instance = &b;
  if (b.max_left_degree() > 2 * delta) {
    normalized = graph::normalize_left_degrees(b, delta);
    instance = &normalized.graph;
    local_stats.normalized = true;
  }
  const graph::BipartiteGraph& bn = *instance;

  // Shattering (2 rounds).
  ShatterOutcome outcome = shattering_phase(bn, rng, meter);
  local_stats.num_unsatisfied = static_cast<std::size_t>(
      std::count(outcome.unsatisfied.begin(), outcome.unsatisfied.end(), true));
  local_stats.num_uncolored = static_cast<std::size_t>(std::count(
      outcome.partial.begin(), outcome.partial.end(), Color::kUncolored));

  // Residual graph H: edges between unsatisfied left nodes and uncolored
  // right nodes.
  std::vector<bool> keep(bn.num_edges(), false);
  for (graph::EdgeId e = 0; e < bn.num_edges(); ++e) {
    const auto [u, v] = bn.endpoints(e);
    keep[e] = outcome.unsatisfied[u] &&
              outcome.partial[v] == Color::kUncolored;
  }
  const graph::BipartiteGraph residual = bn.filter_edges(keep).first;
  auto components = graph::connected_components(residual);
  local_stats.num_components = components.size();

  Coloring colors = outcome.partial;
  local::CostMeter component_meter;
  for (const auto& comp : components) {
    local_stats.largest_component =
        std::max(local_stats.largest_component, comp.graph.num_nodes());
    local_stats.residual_rank =
        std::max(local_stats.residual_rank, comp.graph.rank());
    if (local_stats.residual_min_degree == 0) {
      local_stats.residual_min_degree = comp.graph.min_left_degree();
    } else {
      local_stats.residual_min_degree = std::min(
          local_stats.residual_min_degree, comp.graph.min_left_degree());
    }
    local::CostMeter one;
    const Coloring comp_colors = solve_component(comp.graph, rng, &one);
    component_meter.merge_parallel_max(one);
    for (graph::RightId cv = 0; cv < comp.graph.num_right(); ++cv) {
      colors[comp.right_to_parent[cv]] = comp_colors[cv];
    }
  }
  if (meter != nullptr) meter->merge_sequential(component_meter);

  // Any right node still uncolored is adjacent to satisfied constraints
  // only; default it.
  for (graph::RightId v = 0; v < bn.num_right(); ++v) {
    if (colors[v] == Color::kUncolored) colors[v] = Color::kRed;
  }
  DS_CHECK_MSG(is_weak_splitting(bn, colors),
               "randomized_weak_split output failed verification");
  // bn and b share the right-hand side; a weak splitting of the normalized
  // instance is one of the original (virtual nodes partition each u's edges).
  if (local_stats.normalized) {
    DS_CHECK(is_weak_splitting(b, colors));
  }
  if (stats != nullptr) *stats = local_stats;
  return colors;
}

}  // namespace ds::splitting
