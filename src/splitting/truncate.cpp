#include "splitting/truncate.hpp"

#include <cmath>

#include "support/check.hpp"

namespace ds::splitting {

graph::BipartiteGraph truncate_left_degrees(const graph::BipartiteGraph& b,
                                            std::size_t target) {
  DS_CHECK(target >= 1);
  std::vector<bool> keep(b.num_edges(), false);
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    const auto edges = b.left_edges(u);
    const std::size_t kept = std::min(edges.size(), target);
    for (std::size_t i = 0; i < kept; ++i) keep[edges[i]] = true;
  }
  return b.filter_edges(keep).first;
}

Coloring truncated_split(const graph::BipartiteGraph& b, Rng& rng,
                         local::CostMeter* meter, BasicDerandInfo* info,
                         std::size_t n_override) {
  const std::size_t n = n_override != 0 ? n_override : b.num_nodes();
  const std::size_t target = static_cast<std::size_t>(
      std::ceil(2.0 * std::log2(std::max<std::size_t>(2, n))));
  const graph::BipartiteGraph truncated = truncate_left_degrees(b, target);
  // The truncated instance has Δ <= ⌈2 log n⌉, so Lemma 2.1 costs
  // O(Δr) = O(r log n) rounds on it. The coloring of the truncated graph
  // remains a weak splitting of `b` because adding edges only helps.
  return basic_derand_split(truncated, rng, meter, info);
}

}  // namespace ds::splitting
