#pragma once

/// \file tcp_network.hpp
/// `net::TcpNetwork` — the multi-host LOCAL-model executor: one OS process
/// per rank (typically on different machines), connected by a `net::Fleet`,
/// each running the shared `dist::run_rank_loop` protocol over its
/// degree-balanced partition range.
///
/// The only TCP executor. A one-shot executor owns a `net::Fleet` used
/// once: every rank constructs the same `TcpNetwork` over the same (graph,
/// IdStrategy, seed) with its own `rank`, and the rendezvous handshake
/// rejects launches where the ranks disagree (see net/rendezvous.hpp).
/// Unlike the fork-based `dist::DistributedNetwork`, the rank count is fixed
/// by the launch (a live process cannot be clamped away), so `hosts.size()`
/// ranks always participate; ranks beyond the node count simply own empty
/// ranges. A resident daemon instead builds one executor per request over
/// its standing fleet and a cached partition (partitions depend on the
/// graph structure and the rank count only).
///
/// # Determinism contract
///
/// Identical to the other executors: for a fixed (graph, IdStrategy, seed),
/// per-node outputs, round counts and RoundStats are bit-identical to
/// `local::Network` at every rank count. The transport moves message words
/// verbatim in canonical link order and the round protocol is the shared
/// `run_rank_loop`, so nothing rank-count-dependent can leak into program
/// observations. tests/test_net_tcp.cpp asserts this on loopback fleets.
///
/// # Output collection
///
/// The `set_output_fn`/`outputs()` gather contract streams every rank's
/// rows to rank 0, which assembles the table and re-broadcasts it — so
/// `outputs()` returns the full, identical table on *every* rank (SPMD
/// style: algorithm code needs no rank special-casing).

#include <cstdint>
#include <memory>
#include <vector>

#include "dist/partition.hpp"
#include "graph/graph.hpp"
#include "local/executor.hpp"
#include "local/ids.hpp"
#include "local/program.hpp"
#include "local/round_stats.hpp"
#include "local/topology.hpp"
#include "net/fleet.hpp"
#include "net/socket.hpp"
#include "net/tcp_transport.hpp"

namespace ds::net {

/// Launch parameters of one rank's executor.
struct TcpNetworkConfig {
  std::size_t rank = 0;
  /// Rank-ordered endpoints of the whole fleet (hosts-file contents).
  std::vector<Endpoint> hosts;
  TcpOptions transport;
  /// Optional pre-bound listen socket for `hosts[rank]` (the loopback
  /// helper pre-binds ephemeral ports to keep tests collision-free).
  Socket listen;
};

/// Multi-host synchronous executor on a fixed communication graph.
class TcpNetwork final : public local::Executor {
 public:
  /// One-shot: builds the executor and connects its own fleet (blocks until
  /// every rank's handshake went through or the rendezvous times out).
  TcpNetwork(const graph::Graph& g, local::IdStrategy strategy,
             std::uint64_t seed, TcpNetworkConfig config);

  /// Standing: runs on the borrowed `fleet` over `partition`, which must be
  /// a partition of `g`'s structure into `fleet.num_ranks()` ranges. The
  /// fleet must outlive the executor, and every rank must build its
  /// executor for the same (graph, strategy, seed) — the lockstep contract
  /// of net/fleet.hpp.
  TcpNetwork(const graph::Graph& g, local::IdStrategy strategy,
             std::uint64_t seed, Fleet& fleet,
             std::shared_ptr<const dist::Partition> partition);

  std::size_t run(const local::ProgramFactory& factory,
                  std::size_t max_rounds,
                  local::CostMeter* meter = nullptr) override;

  [[nodiscard]] std::size_t rank() const { return fleet_->rank(); }
  [[nodiscard]] std::size_t num_ranks() const { return fleet_->num_ranks(); }

  /// The node partition (ranges, halo routing tables, edge-cut stats).
  [[nodiscard]] const dist::Partition& partition() const {
    return *partition_;
  }

 private:
  std::shared_ptr<const dist::Partition> partition_;
  /// Set by the one-shot constructor; `fleet_` points at it or at the
  /// borrowed standing fleet.
  std::unique_ptr<Fleet> owned_fleet_;
  Fleet* fleet_ = nullptr;
};

}  // namespace ds::net
