#include "splitting/solver.hpp"

#include <cmath>

#include "graph/properties.hpp"
#include "splitting/delta6r.hpp"
#include "splitting/deterministic.hpp"
#include "splitting/high_girth.hpp"
#include "splitting/shattering.hpp"
#include "splitting/trivial_random.hpp"
#include "support/check.hpp"

namespace ds::splitting {

std::string algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kTrivialRandom:
      return "trivial-random (§2.1)";
    case Algorithm::kDelta6r:
      return "delta>=6r (Thm 2.7)";
    case Algorithm::kHighGirthDet:
      return "high-girth det (Thm 5.2)";
    case Algorithm::kHighGirthRand:
      return "high-girth rand (Thm 5.3)";
    case Algorithm::kDeterministic:
      return "deterministic (Thm 2.5)";
    case Algorithm::kShattering:
      return "shattering (Thm 1.2)";
    case Algorithm::kRobustFallback:
      return "robust fallback";
  }
  return "unknown";
}

SolveResult solve_weak_splitting(const graph::BipartiteGraph& b,
                                 const SolverOptions& options, Rng& rng) {
  SolveResult result;
  const std::size_t delta = b.min_left_degree();
  const std::size_t r = b.rank();
  const std::size_t n = std::max<std::size_t>(4, b.num_nodes());
  const double log_n = std::log2(static_cast<double>(n));

  // The girth test is a bounded BFS from every node, so it runs only when
  // the high-girth branch is reached (δ >= 8 and every earlier branch
  // declined).
  const auto high_girth = [&] {
    if (delta < 8) return false;
    return options.girth_hint != 0 ? options.girth_hint >= 10
                                   : graph::girth_at_least(b.unified(), 10);
  };

  if (!options.deterministic &&
      static_cast<double>(delta) > 2.0 * log_n) {
    result.algorithm = Algorithm::kTrivialRandom;
    for (int attempt = 0; attempt < 200; ++attempt) {
      result.colors = trivial_random_split(b, rng, &result.meter);
      if (is_weak_splitting(b, result.colors)) break;
    }
  } else if (delta >= 6 * r && delta >= 2) {
    result.algorithm = Algorithm::kDelta6r;
    result.colors =
        delta6r_split(b, !options.deterministic, rng, &result.meter);
  } else if (options.deterministic &&
             static_cast<double>(delta) >= 2.0 * log_n) {
    result.algorithm = Algorithm::kDeterministic;
    result.colors = deterministic_weak_split(b, rng, &result.meter);
  } else if (high_girth()) {
    if (options.deterministic) {
      result.algorithm = Algorithm::kHighGirthDet;
      HighGirthConfig config;
      config.check_girth = false;  // computed or trusted above
      result.colors =
          high_girth_det_split(b, rng, &result.meter, nullptr, config);
    } else {
      result.algorithm = Algorithm::kHighGirthRand;
      HighGirthConfig config;
      config.check_girth = false;
      result.colors =
          high_girth_rand_split(b, rng, &result.meter, nullptr, config);
    }
  } else if (!options.deterministic && delta >= 8) {
    result.algorithm = Algorithm::kShattering;
    result.colors = randomized_weak_split(b, rng, &result.meter);
  } else {
    DS_CHECK_MSG(options.allow_fallback,
                 "instance is outside every theorem regime and the fallback "
                 "is disabled");
    result.algorithm = Algorithm::kRobustFallback;
    result.colors = robust_component_solve(b, rng);
  }
  DS_CHECK_MSG(is_weak_splitting(b, result.colors),
               "solver output failed verification: " +
                   check_weak_splitting(b, result.colors));
  return result;
}

}  // namespace ds::splitting
