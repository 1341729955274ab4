#include "local/topology.hpp"

#include <string>

#include "support/check.hpp"

namespace ds::local {

NetworkTopology::NetworkTopology(const graph::Graph& g, IdStrategy strategy,
                                 std::uint64_t seed)
    : graph_(&g), seed_(seed), master_(seed) {
  // The run's first walk of the CSR, so it bounds-checks what a mapped
  // `.dsg` image could get wrong: offsets start at 0 and never decrease
  // (load_dsg checked offsets[n] == 2m), every edge endpoint is < n, and no
  // node meets more edges than its row has ports.
  const std::size_t n = g.num_nodes();
  offsets_ = g.offsets();
  DS_CHECK_MSG(offsets_[0] == 0, "corrupt CSR: offsets[0] != 0");
  for (graph::NodeId v = 0; v < n; ++v) {
    DS_CHECK_MSG(offsets_[v] <= offsets_[v + 1],
                 "corrupt CSR: offsets decrease at node " + std::to_string(v));
  }

  Rng rng(seed ^ 0x1D5ull);
  uids_ = assign_ids(g, strategy, rng);
  reverse_ports_.resize(total_ports());
  delivery_slots_.resize(total_ports());

  // The CSR rows are filled in edge order, so for the e-th edge {u, v} the
  // ports at u and v are the counts of earlier edges incident to u resp. v.
  // One pass over the edge list therefore yields both reverse ports of
  // every edge in O(m) — no per-edge adjacency scan.
  std::vector<std::size_t> cursor(n, 0);
  for (const graph::Edge& e : g.edges()) {
    DS_CHECK_MSG(e.u < n && e.v < n,
                 "corrupt CSR: edge {" + std::to_string(e.u) + ", " +
                     std::to_string(e.v) + "} names a node >= n");
    const std::size_t pu = cursor[e.u]++;
    const std::size_t pv = cursor[e.v]++;
    DS_CHECK_MSG(pu < g.degree(e.u) && pv < g.degree(e.v),
                 "corrupt CSR: more edges than ports at a node");
    DS_CHECK(g.neighbors(e.u)[pu] == e.v);
    DS_CHECK(g.neighbors(e.v)[pv] == e.u);
    reverse_ports_[offsets_[e.u] + pu] = static_cast<std::uint32_t>(pv);
    reverse_ports_[offsets_[e.v] + pv] = static_cast<std::uint32_t>(pu);
    delivery_slots_[offsets_[e.u] + pu] = offsets_[e.v] + pv;
    delivery_slots_[offsets_[e.v] + pv] = offsets_[e.u] + pu;
  }
}

std::size_t NetworkTopology::reverse_port(graph::NodeId v,
                                          std::size_t p) const {
  DS_CHECK(v < graph_->num_nodes());
  DS_CHECK(p < graph_->degree(v));
  return reverse_ports_[offsets_[v] + p];
}

NodeEnv NetworkTopology::make_env(graph::NodeId v) const {
  DS_CHECK(v < graph_->num_nodes());
  NodeEnv env;
  env.node = v;
  env.uid = uids_[v];
  env.n = graph_->num_nodes();
  env.neighbors = graph_->neighbors(v);
  env.degree = env.neighbors.size();
  env.uids = uids_.data();
  // Identical to the historical Network derivation: fork(seed, uid) is pure,
  // so per-node streams are independent of construction order.
  env.rng = master_.fork(uids_[v]);
  return env;
}

}  // namespace ds::local
