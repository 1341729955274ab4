#include "splitting/weak_splitting.hpp"

#include <numeric>
#include <sstream>

#include "derand/engine.hpp"
#include "derand/events.hpp"
#include "support/check.hpp"

namespace ds::splitting {

namespace {

/// Does u see both colors?
bool sees_both(const graph::BipartiteGraph& b, const Coloring& colors,
               graph::LeftId u) {
  bool red = false;
  bool blue = false;
  for (graph::RightId v : b.left_neighbors(u)) {
    const Color c = colors[v];
    red = red || (c == Color::kRed);
    blue = blue || (c == Color::kBlue);
    if (red && blue) return true;
  }
  return false;
}

}  // namespace

bool is_weak_splitting(const graph::BipartiteGraph& b, const Coloring& colors,
                       std::size_t min_degree) {
  DS_CHECK(colors.size() == b.num_right());
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    if (b.left_degree(u) < min_degree) continue;
    if (!sees_both(b, colors, u)) return false;
  }
  return true;
}

std::vector<graph::LeftId> unsatisfied_nodes(const graph::BipartiteGraph& b,
                                             const Coloring& colors,
                                             std::size_t min_degree) {
  DS_CHECK(colors.size() == b.num_right());
  std::vector<graph::LeftId> out;
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    if (b.left_degree(u) < min_degree) continue;
    if (!sees_both(b, colors, u)) out.push_back(u);
  }
  return out;
}

std::string check_weak_splitting(const graph::BipartiteGraph& b,
                                 const Coloring& colors,
                                 std::size_t min_degree) {
  if (colors.size() != b.num_right()) {
    return "coloring size does not match number of right nodes";
  }
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    if (colors[v] == Color::kUncolored) {
      std::ostringstream os;
      os << "right node " << v << " is uncolored in a final output";
      return os.str();
    }
  }
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    if (b.left_degree(u) < min_degree) continue;
    if (!sees_both(b, colors, u)) {
      std::ostringstream os;
      os << "left node " << u << " (degree " << b.left_degree(u)
         << ") does not see both colors";
      return os.str();
    }
  }
  return {};
}

Coloring robust_component_solve(const graph::BipartiteGraph& b, Rng& rng,
                                std::size_t min_degree) {
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    if (b.left_degree(u) < min_degree) continue;  // unconstrained node
    DS_CHECK_MSG(b.left_degree(u) >= 2,
                 "a constrained left node of degree < 2 has no weak splitting");
  }
  auto to_coloring = [](const std::vector<int>& assignment) {
    Coloring colors(assignment.size());
    for (std::size_t v = 0; v < assignment.size(); ++v) {
      colors[v] = assignment[v] == 0 ? Color::kRed : Color::kBlue;
    }
    return colors;
  };

  // Attempt 1: greedy conditional-expectation pass with the exact
  // monochromatic-probability estimator. This succeeds whenever the initial
  // potential is < 1 and usually succeeds far beyond that regime.
  const derand::Problem problem = derand::weak_splitting_problem(b);
  std::vector<std::uint32_t> order(b.num_right());
  std::iota(order.begin(), order.end(), 0);
  const derand::Result greedy = derand::derandomize(problem, order);
  Coloring colors = to_coloring(greedy.assignment);
  if (is_weak_splitting(b, colors, min_degree)) return colors;

  // Attempt 2: Las Vegas — fresh random colorings until valid. Existence in
  // the calling contexts (residual components with degree >= 2) makes this
  // terminate quickly; the iteration cap catches misuse.
  for (int attempt = 0; attempt < 20000; ++attempt) {
    for (graph::RightId v = 0; v < b.num_right(); ++v) {
      colors[v] = rng.next_bool() ? Color::kRed : Color::kBlue;
    }
    // Local repair: give each unsatisfied constraint a chance by recoloring
    // one of its neighbors to the missing color, then re-check globally.
    for (int repair = 0; repair < 4; ++repair) {
      const auto bad = unsatisfied_nodes(b, colors, min_degree);
      if (bad.empty()) return colors;
      for (graph::LeftId u : bad) {
        const auto nbrs = b.left_neighbors(u);
        if (nbrs.size() < 2) continue;
        // Recolor a random neighbor to the color u is missing.
        bool red = false;
        bool blue = false;
        for (graph::RightId v : nbrs) {
          red = red || (colors[v] == Color::kRed);
          blue = blue || (colors[v] == Color::kBlue);
        }
        const Color missing = !red ? Color::kRed : Color::kBlue;
        colors[nbrs[rng.next_index(nbrs.size())]] = missing;
      }
    }
    if (is_weak_splitting(b, colors, min_degree)) return colors;
  }
  DS_CHECK_MSG(false, "robust_component_solve failed (instance unsolvable?)");
  return colors;  // unreachable
}

}  // namespace ds::splitting
