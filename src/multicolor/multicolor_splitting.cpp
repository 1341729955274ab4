#include "multicolor/multicolor_splitting.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "support/check.hpp"

namespace ds::multicolor {

std::size_t distinct_colors_seen(const graph::BipartiteGraph& b,
                                 const ColorAssignment& colors,
                                 graph::LeftId u) {
  DS_CHECK(colors.size() == b.num_right());
  std::set<std::uint32_t> seen;
  for (graph::RightId v : b.left_neighbors(u)) seen.insert(colors[v]);
  return seen.size();
}

std::size_t max_color_load(const graph::BipartiteGraph& b,
                           const ColorAssignment& colors, graph::LeftId u) {
  DS_CHECK(colors.size() == b.num_right());
  std::vector<std::uint32_t> counted;
  std::size_t worst = 0;
  // Degree is small relative to palette in general; count via a local map.
  std::vector<std::pair<std::uint32_t, std::size_t>> counts;
  for (graph::RightId v : b.left_neighbors(u)) {
    const std::uint32_t c = colors[v];
    bool found = false;
    for (auto& [color, count] : counts) {
      if (color == c) {
        worst = std::max(worst, ++count);
        found = true;
        break;
      }
    }
    if (!found) {
      counts.emplace_back(c, 1);
      worst = std::max<std::size_t>(worst, 1);
    }
  }
  return worst;
}

bool is_multicolor_splitting(const graph::BipartiteGraph& b,
                             const ColorAssignment& colors, std::uint32_t C,
                             double lambda, std::size_t degree_threshold) {
  return check_multicolor_splitting(b, colors, C, lambda, degree_threshold)
      .empty();
}

std::string check_multicolor_splitting(const graph::BipartiteGraph& b,
                                       const ColorAssignment& colors,
                                       std::uint32_t C, double lambda,
                                       std::size_t degree_threshold) {
  if (colors.size() != b.num_right()) {
    return "color assignment size does not match number of right nodes";
  }
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    if (colors[v] >= C) {
      std::ostringstream os;
      os << "right node " << v << " uses color " << colors[v]
         << " outside palette of size " << C;
      return os.str();
    }
  }
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    const std::size_t d = b.left_degree(u);
    if (d < degree_threshold) continue;
    const std::size_t cap = static_cast<std::size_t>(
        std::ceil(lambda * static_cast<double>(d)));
    const std::size_t load = max_color_load(b, colors, u);
    if (load > cap) {
      std::ostringstream os;
      os << "left node " << u << " (degree " << d << ") has a color with "
         << load << " neighbors, cap is " << cap;
      return os.str();
    }
  }
  return {};
}

bool is_weak_multicolor_splitting(const graph::BipartiteGraph& b,
                                  const ColorAssignment& colors,
                                  std::uint32_t C,
                                  std::size_t required_colors,
                                  std::size_t degree_threshold) {
  DS_CHECK(colors.size() == b.num_right());
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    if (colors[v] >= C) return false;
  }
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    if (b.left_degree(u) < degree_threshold) continue;
    if (distinct_colors_seen(b, colors, u) < required_colors) return false;
  }
  return true;
}

WeakMulticolorParams weak_multicolor_params(std::size_t n) {
  DS_CHECK(n >= 2);
  const double log_n = std::log2(static_cast<double>(n));
  const double ln_n = std::log(static_cast<double>(n));
  WeakMulticolorParams params;
  params.required_colors =
      static_cast<std::size_t>(std::ceil(2.0 * log_n));
  params.num_colors = static_cast<std::uint32_t>(params.required_colors);
  params.degree_threshold = static_cast<std::size_t>(
      std::ceil(2.0 * (log_n + 1.0) * ln_n));
  return params;
}

}  // namespace ds::multicolor
