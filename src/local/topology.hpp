#pragma once

/// \file topology.hpp
/// Immutable per-network setup shared by every LOCAL-model executor: UID
/// assignment, CSR port offsets, reverse ports, and precomputed delivery
/// slots. Every executor builds on this — the sequential `Network`, the
/// sharded `runtime::ParallelNetwork`, and the distributed runtimes through
/// their rank views — so ID assignment and per-node randomness derivation
/// are identical by construction — a prerequisite for the executors'
/// bit-identical-output contract.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "local/ids.hpp"
#include "local/program.hpp"
#include "support/rng.hpp"

namespace ds::local {

/// Precomputed topology/UID/port tables for one communication graph.
///
/// Ports are the graph's CSR slots: node v owns the flat slot range
/// [port_offset(v), port_offset(v) + degree(v)), one slot per incident edge
/// in adjacency-row order. `delivery_slot(v, p)` is the flat slot that a
/// message sent by v on its port p lands in — i.e. the slot of the reverse
/// port at the neighbor — which lets executors deliver into flat per-round
/// buffers without any per-node indirection.
class NetworkTopology {
 public:
  /// Assigns IDs per `strategy` (seeded identically to the historical
  /// `Network` constructor) and precomputes the port tables in O(n + m).
  NetworkTopology(const graph::Graph& g, IdStrategy strategy,
                  std::uint64_t seed);

  [[nodiscard]] const graph::Graph& graph() const { return *graph_; }
  [[nodiscard]] const std::vector<std::uint64_t>& uids() const { return uids_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// First flat slot of node v; port_offsets()[n] == total_ports().
  [[nodiscard]] std::size_t port_offset(graph::NodeId v) const {
    return offsets_[v];
  }
  /// The graph's CSR offset table (size n + 1); port_offsets()[v] is the
  /// first flat slot of node v. Used for degree-balanced shard splitting.
  [[nodiscard]] std::span<const std::uint64_t> port_offsets() const {
    return offsets_;
  }
  /// Total number of directed ports (= sum of degrees = 2m).
  [[nodiscard]] std::size_t total_ports() const { return offsets_.back(); }

  /// Port of node `v` on the neighbor at `v`'s port `p` (i.e. the index of v
  /// in that neighbor's adjacency list).
  [[nodiscard]] std::size_t reverse_port(graph::NodeId v, std::size_t p) const;

  /// Flat slot a message sent by v on port p is delivered into:
  /// port_offset(neighbor) + reverse_port(v, p).
  [[nodiscard]] std::size_t delivery_slot(graph::NodeId v,
                                          std::size_t p) const {
    return delivery_slots_[offsets_[v] + p];
  }
  /// Node v's row of delivery slots (degree(v) entries), the table an
  /// `Outbox` routes through. Valid as a one-past-the-end pointer for
  /// degree-0 nodes.
  [[nodiscard]] const std::size_t* delivery_row(graph::NodeId v) const {
    return delivery_slots_.data() + offsets_[v];
  }

  /// Builds the construction environment of node v, including its private
  /// randomness stream fork(seed, uid). Pure: callable from any thread, any
  /// order, always yielding the same environment. Allocates nothing: the
  /// environment views this topology's graph and UID table, so it is valid
  /// while this topology lives.
  [[nodiscard]] NodeEnv make_env(graph::NodeId v) const;

 private:
  const graph::Graph* graph_;
  std::uint64_t seed_;
  /// Master generator the per-node streams are forked from (fork is pure).
  Rng master_;
  std::vector<std::uint64_t> uids_;
  /// The graph's CSR offsets, size n + 1 (a view, not a copy).
  std::span<const std::uint64_t> offsets_;
  /// reverse_ports_[offsets_[v] + p] = index of v in neighbors(v)[p]'s list.
  std::vector<std::uint32_t> reverse_ports_;
  /// delivery_slots_[offsets_[v] + p] = flat destination slot (see above).
  std::vector<std::size_t> delivery_slots_;
};

}  // namespace ds::local
