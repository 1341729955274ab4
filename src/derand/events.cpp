#include "derand/events.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "support/check.hpp"

namespace ds::derand {

namespace {

/// Shared adjacency snapshot: constraint -> variable ids. Captured by the
/// phi closures so the Problem owns its data (no dangling instance refs).
struct Adjacency {
  std::vector<std::vector<std::uint32_t>> cons_vars;
};

std::shared_ptr<Adjacency> snapshot(const graph::BipartiteGraph& b) {
  auto adj = std::make_shared<Adjacency>();
  adj->cons_vars.resize(b.num_left());
  for (graph::LeftId u = 0; u < b.num_left(); ++u) {
    const auto vars = b.left_neighbors(u);
    adj->cons_vars[u].assign(vars.begin(), vars.end());
  }
  return adj;
}

std::vector<std::vector<std::uint32_t>> var_to_constraints(
    const graph::BipartiteGraph& b) {
  std::vector<std::vector<std::uint32_t>> out(b.num_right());
  for (graph::RightId v = 0; v < b.num_right(); ++v) {
    const graph::NeighborView constraints = b.right_neighbors(v);
    out[v].assign(constraints.begin(), constraints.end());
  }
  return out;
}

}  // namespace

Problem weak_splitting_problem(const graph::BipartiteGraph& b) {
  Problem p;
  p.num_variables = b.num_right();
  p.num_constraints = b.num_left();
  p.num_choices = 2;
  p.var_constraints = var_to_constraints(b);
  auto adj = snapshot(b);
  p.phi = [adj](std::uint32_t u, const std::vector<int>& colors) -> double {
    std::size_t red = 0;
    std::size_t blue = 0;
    std::size_t unset = 0;
    for (std::uint32_t v : adj->cons_vars[u]) {
      if (colors[v] == kUnset) {
        ++unset;
      } else if (colors[v] == 0) {
        ++red;
      } else {
        ++blue;
      }
    }
    if (red > 0 && blue > 0) return 0.0;
    // Exact probability that the neighborhood ends monochromatic under
    // uniform future choices, clamped to 1 (degree-0 constraints are
    // certainly bad).
    const double p_all = std::pow(0.5, static_cast<double>(unset));
    const double value = (red == 0 && blue == 0) ? 2.0 * p_all : p_all;
    return std::min(1.0, value);
  };
  return p;
}

Problem missing_color_problem(const graph::BipartiteGraph& b, int num_colors) {
  DS_CHECK(num_colors >= 2);
  Problem p;
  p.num_variables = b.num_right();
  p.num_constraints = b.num_left();
  p.num_choices = num_colors;
  p.var_constraints = var_to_constraints(b);
  auto adj = snapshot(b);
  const double keep = 1.0 - 1.0 / static_cast<double>(num_colors);
  p.phi = [adj, num_colors, keep](std::uint32_t u,
                                  const std::vector<int>& colors) -> double {
    // Σ_x Pr[x missing | partial] = (#colors not yet present) · keep^unset.
    std::vector<bool> present(num_colors, false);
    std::size_t unset = 0;
    for (std::uint32_t v : adj->cons_vars[u]) {
      if (colors[v] == kUnset) {
        ++unset;
      } else {
        present[static_cast<std::size_t>(colors[v])] = true;
      }
    }
    int missing = 0;
    for (bool x : present) {
      if (!x) ++missing;
    }
    return static_cast<double>(missing) *
           std::pow(keep, static_cast<double>(unset));
  };
  return p;
}

Problem overload_problem(const graph::BipartiteGraph& b, int num_colors,
                         double lambda) {
  DS_CHECK(num_colors >= 2);
  DS_CHECK(lambda > 0.0);
  Problem p;
  p.num_variables = b.num_right();
  p.num_constraints = b.num_left();
  p.num_choices = num_colors;
  p.var_constraints = var_to_constraints(b);
  auto adj = snapshot(b);
  // Chernoff parameter: s = ln(λC) is the optimizer of the MGF bound when
  // the cap is λd and the per-color rate is d/C; floor at ln 1.5 so the
  // bound stays non-trivial when λC is close to 1.
  const double s =
      std::log(std::max(1.5, lambda * static_cast<double>(num_colors)));
  const double es = std::exp(s);
  const double unset_factor =
      1.0 + (es - 1.0) / static_cast<double>(num_colors);
  p.phi = [adj, num_colors, lambda, s, es, unset_factor](
              std::uint32_t u, const std::vector<int>& colors) -> double {
    const auto& vars = adj->cons_vars[u];
    const double cap =
        std::ceil(lambda * static_cast<double>(vars.size()));
    std::vector<std::size_t> count(num_colors, 0);
    std::size_t unset = 0;
    for (std::uint32_t v : vars) {
      if (colors[v] == kUnset) {
        ++unset;
      } else {
        ++count[static_cast<std::size_t>(colors[v])];
      }
    }
    // Σ_x e^{s(count_x - cap)} · unset_factor^unset. Strictly-greater-than-cap
    // is the bad event, so P[X_x > cap] = P[X_x >= cap+1] <= MGF·e^{-s(cap+1)};
    // we keep the (slightly looser) e^{-s·cap} form whose initial value the
    // experiments report.
    const double tail =
        std::pow(unset_factor, static_cast<double>(unset)) * std::exp(-s * cap);
    double phi = 0.0;
    for (int x = 0; x < num_colors; ++x) {
      phi += tail * std::pow(es, static_cast<double>(count[x]));
    }
    return phi;
  };
  return p;
}

Problem two_sided_problem(const graph::BipartiteGraph& b, double eps) {
  DS_CHECK(eps > 0.0 && eps < 0.5);
  Problem p;
  p.num_variables = b.num_right();
  p.num_constraints = b.num_left();
  p.num_choices = 2;
  p.var_constraints = var_to_constraints(b);
  auto adj = snapshot(b);
  // Symmetric tilt: optimal exponent for deviations ±eps·d around d/2.
  const double s = std::log((0.5 + eps) / (0.5 - eps));
  const double es = std::exp(s);
  const double ems = std::exp(-s);
  p.phi = [adj, eps, s, es, ems](std::uint32_t u,
                                 const std::vector<int>& colors) -> double {
    const auto& vars = adj->cons_vars[u];
    const double d = static_cast<double>(vars.size());
    std::size_t red = 0;
    std::size_t unset = 0;
    for (std::uint32_t v : vars) {
      if (colors[v] == kUnset) {
        ++unset;
      } else if (colors[v] == 0) {
        ++red;
      }
    }
    const double hi = (0.5 + eps) * d;  // red count must stay <= hi
    const double lo = (0.5 - eps) * d;  // red count must stay >= lo
    const double k = static_cast<double>(unset);
    const double r = static_cast<double>(red);
    // Upper tail: P[X > hi] <= e^{-s·hi} · e^{s·r} · (1/2 + e^{s}/2)^k.
    const double upper =
        std::exp(s * (r - hi)) * std::pow(0.5 + 0.5 * es, k);
    // Lower tail: P[X < lo] <= e^{s·lo} · e^{-s·r} · (1/2 + e^{-s}/2)^k.
    const double lower =
        std::exp(s * (lo - r)) * std::pow(0.5 + 0.5 * ems, k);
    return upper + lower;
  };
  return p;
}

}  // namespace ds::derand
