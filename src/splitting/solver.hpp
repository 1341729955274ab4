#pragma once

/// \file solver.hpp
/// Public facade of the weak splitting library: picks the paper's applicable
/// algorithm from the instance parameters (δ, Δ, r, girth) and the
/// deterministic/randomized preference, runs it, verifies the output, and
/// reports which path was taken together with the round costs.

#include <string>

#include "graph/bipartite.hpp"
#include "local/cost.hpp"
#include "splitting/weak_splitting.hpp"
#include "support/rng.hpp"

namespace ds::splitting {

/// Which algorithm the facade selected.
enum class Algorithm {
  kTrivialRandom,     ///< §2.1 zero-round coin flips (δ > 2 log n, randomized)
  kDelta6r,           ///< Theorem 2.7 (δ >= 6r)
  kHighGirthDet,      ///< Theorem 5.2 (girth >= 10, deterministic)
  kHighGirthRand,     ///< Theorem 5.3 (girth >= 10, randomized)
  kDeterministic,     ///< Theorem 2.5 (δ >= 2 log n, deterministic)
  kShattering,        ///< Theorem 1.2 (randomized)
  kRobustFallback,    ///< outside every theorem regime; greedy + Las Vegas
};

/// Human-readable algorithm name.
std::string algorithm_name(Algorithm algorithm);

/// Solver preferences.
struct SolverOptions {
  bool deterministic = true;
  /// If nonzero, trusted as the girth of `b.unified()` instead of computing
  /// it (the solver needs the girth only on the high-girth branch).
  std::size_t girth_hint = 0;
  /// Allow the robust fallback outside all theorem regimes (on by default;
  /// turn off to make the facade throw instead).
  bool allow_fallback = true;
};

/// Result of a facade run.
struct SolveResult {
  Coloring colors;
  Algorithm algorithm = Algorithm::kRobustFallback;
  local::CostMeter meter;
};

/// Solves weak splitting on `b`, verifying the output (throws on failure —
/// which would be a library bug, not a user error).
SolveResult solve_weak_splitting(const graph::BipartiteGraph& b,
                                 const SolverOptions& options, Rng& rng);

}  // namespace ds::splitting
