#include "splitting/basic_derand.hpp"

#include <algorithm>
#include <numeric>

#include "coloring/distance_coloring.hpp"
#include "derand/engine.hpp"
#include "derand/events.hpp"
#include "local/ids.hpp"
#include "support/check.hpp"

namespace ds::splitting {

Coloring basic_derand_split(const graph::BipartiteGraph& b, Rng& rng,
                            local::CostMeter* meter, BasicDerandInfo* info) {
  // 1. Color B² (the unified graph's square) with O(Δ·r) colors. This is the
  //    [BEK14a]-style coloring step of Lemma 2.1, O(Δr + log* n) rounds.
  const graph::Graph& unified = b.unified();
  Rng id_rng = rng.fork(0xC0105ull);
  const auto ids =
      local::assign_ids(unified, local::IdStrategy::kSequential, id_rng);
  const coloring::PowerColoring schedule =
      coloring::color_power(unified, 2, ids, meter);

  // 2. Schedule the SLOCAL(2) conditional-expectation pass color class by
  //    color class ([GHK17a, Prop 3.2]): variables (right nodes) of the same
  //    B²-color have disjoint constraint neighborhoods, so greedy fixes
  //    within a class are order-independent. We realize the schedule as a
  //    sequential order sorted by (class, index) and charge O(C·2) rounds.
  std::vector<std::uint32_t> order(b.num_right());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return schedule.colors[b.unified_right(x)] <
                            schedule.colors[b.unified_right(y)];
                   });
  if (meter != nullptr) {
    meter->charge("slocal-compile", 2.0 * schedule.num_colors);
  }

  // 3. Greedy conditional expectations with the exact monochromatic
  //    estimator.
  const derand::Problem problem = derand::weak_splitting_problem(b);
  const derand::Result result = derand::derandomize(problem, order);
  if (info != nullptr) {
    info->initial_potential = result.initial_potential;
    info->final_potential = result.final_potential;
    info->schedule_colors = schedule.num_colors;
  }
  Coloring colors(b.num_right());
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    colors[v] = result.assignment[v] == 0 ? Color::kRed : Color::kBlue;
  }
  // Lemma 2.1 guarantee: initial potential < 1 forces a valid output.
  if (result.initial_potential < 1.0) {
    DS_CHECK_MSG(is_weak_splitting(b, colors),
                 "derandomization finished with potential < 1 but the output "
                 "is not a weak splitting (estimator bug)");
  }
  return colors;
}

}  // namespace ds::splitting
