#pragma once

/// \file high_girth.hpp
/// Weak splitting on bipartite graphs of girth >= 10 (Section 5).
///
/// Girth >= 10 makes the per-constraint "unsatisfied" events of the
/// shattering algorithm independent across the neighbors of a right node
/// (Lemma 5.1): two constraint nodes u, ū ∈ N(v) cannot share any other
/// node within distance 3, or the graph would close a cycle of length <= 8.
/// Hence the number of unsatisfied neighbors of v concentrates like a sum of
/// independent indicators and the residual graph satisfies δ_H >= 6·r_H,
/// where Theorem 2.7 takes over. This lowers the degree requirement to
/// δ = Ω(√log n) (deterministic, Theorem 5.2) and δ = Ω(√log(Δr log n))
/// (randomized, Theorem 5.3).
///
/// The deterministic algorithm derandomizes the shattering's *coloring
/// phase* with a composed pessimistic estimator (see DESIGN.md): per right
/// node v the bad event is "v stays uncolored AND >= δ/24 of its neighbors
/// end up unsatisfied"; per-u unsatisfaction is bounded by the product-form
/// pieces A1 (too few colored), A2 (too many colored), A3' (a color missing
/// among colored), A4 (a 2-hop constraint fires A1/A2 and may uncolor),
/// combined through the MGF inequality over the (girth-independent) factors.

#include "derand/engine.hpp"
#include "graph/bipartite.hpp"
#include "local/cost.hpp"
#include "splitting/shattering.hpp"
#include "splitting/weak_splitting.hpp"
#include "support/rng.hpp"

namespace ds::splitting {

/// Tuning of the high-girth estimators.
struct HighGirthConfig {
  /// Residual-rank threshold as a fraction of δ (paper: 1/24).
  double threshold_frac = 1.0 / 24.0;
  /// Tilt of the outer MGF combination.
  double outer_s = 3.0;
  /// Tilt of the A1/A2 colored-count tails.
  double tail_s = 0.6931471805599453;  // ln 2
  /// Verify girth(B) >= 10 before running (a radius-5 BFS per node;
  /// disable for big sweeps where the generator already guarantees it).
  bool check_girth = true;
};

/// Builds the derandomization problem of Theorem 5.2. Variables are right
/// nodes with 3 choices (0 = red w.p. 1/4, 1 = blue w.p. 1/4, 2 = uncolored
/// w.p. 1/2); constraint j = right node j carries the composed estimator of
/// Pr[j uncolored AND >= max(1, threshold_frac·δ) unsatisfied neighbors].
derand::Problem high_girth_shatter_problem(const graph::BipartiteGraph& b,
                                           const HighGirthConfig& config);

/// Diagnostics of the Section 5 algorithms.
struct HighGirthInfo {
  double initial_potential = 0.0;  ///< deterministic path only
  std::uint32_t schedule_colors = 0;
  std::size_t residual_rank = 0;
  std::size_t residual_min_degree = 0;
  std::size_t num_components = 0;
  std::size_t largest_component = 0;
  bool residual_delta_6r = true;  ///< every component had δ_H >= 6 r_H
};

/// Theorem 5.2: deterministic weak splitting for girth >= 10 in
/// O(Δ²r² + polylog n) rounds. Requires δ >= 4.
Coloring high_girth_det_split(const graph::BipartiteGraph& b, Rng& rng,
                              local::CostMeter* meter = nullptr,
                              HighGirthInfo* info = nullptr,
                              const HighGirthConfig& config = {});

/// Theorem 5.3: randomized variant — the plain 2-round shattering, then
/// Theorem 2.7 on the residual components.
Coloring high_girth_rand_split(const graph::BipartiteGraph& b, Rng& rng,
                               local::CostMeter* meter = nullptr,
                               HighGirthInfo* info = nullptr,
                               const HighGirthConfig& config = {});

}  // namespace ds::splitting
