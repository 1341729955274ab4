#pragma once

/// \file program.hpp
/// The node-program abstraction of the LOCAL-model simulator: the per-node
/// environment and the `NodeProgram` interface that algorithms implement.
/// Every executor runs the same program API.

#include <cstdint>
#include <functional>
#include <memory>

#include "graph/graph.hpp"
#include "local/message_arena.hpp"
#include "support/rng.hpp"

namespace ds::local {

/// Read-only environment a node program is constructed with. A trivially
/// copyable, heap-free view: `neighbors` and `uids` point into the
/// executor's `NetworkTopology` (or, in situ, the rank-local CSR), so an
/// environment — and any program copy of it — is valid only while that
/// topology or CSR lives, i.e. for the duration of the run.
struct NodeEnv {
  graph::NodeId node = 0;        ///< dense index of this node
  std::uint64_t uid = 0;         ///< unique LOCAL-model identifier
  std::size_t n = 0;             ///< number of nodes (global knowledge)
  std::size_t degree = 0;        ///< this node's degree
  /// Dense ids of the neighbors, indexed by port (adjacency-list order).
  graph::NeighborView neighbors;
  /// UID table indexed by dense id; null when uid == dense id (the
  /// sequential ID strategy, the only one the in-situ path runs).
  const std::uint64_t* uids = nullptr;
  /// Private randomness stream of this node.
  Rng rng{0};

  /// UID of the neighbor at port p.
  [[nodiscard]] std::uint64_t neighbor_uid(std::size_t p) const {
    return uids != nullptr ? uids[neighbors[p]] : neighbors[p];
  }
};

/// Per-node program. One round = send() at every node, message delivery,
/// then receive() at every node. A node that returns true from done() stops
/// being scheduled; the run ends when all nodes are done.
///
/// Programs implement the writer-style `send(round, Outbox&)` /
/// `receive(round, Inbox&)` pair, which serializes straight into the
/// executor's message arenas (zero heap allocation per round); a message is
/// an arbitrary-length word sequence (the LOCAL model does not bound
/// message size).
///
/// Executor contract (holds for every executor in the library): within one
/// round, all send() calls complete before any receive() observes a message,
/// and distinct nodes' programs may be invoked concurrently. A program must
/// therefore only touch its own state — which the LOCAL model demands
/// anyway — and all executors then produce bit-identical per-node outputs
/// for the same (graph, IdStrategy, seed).
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Serializes the outgoing message of each port into `out` (ports in
  /// increasing order, unwritten ports send the empty message). Called once
  /// per round until done.
  virtual void send(std::size_t round, Outbox& out) = 0;

  /// Receives the messages that arrived this round, indexed by port. The
  /// views borrow executor memory and are valid only during the call.
  virtual void receive(std::size_t round, const Inbox& inbox) = 0;

  /// True when this node has halted (its output is final).
  [[nodiscard]] virtual bool done() const = 0;
};

/// Factory producing the program for one node given its environment.
///
/// Factory contract (every executor): a run calls the factory exactly once
/// per node, in the process that runs that node — a distributed rank builds
/// only its own range — and the programs die when `run()` returns, so
/// `Executor::outputs()` is the only result channel. The factory must be a
/// pure function of the `NodeEnv` (capture constants by value): the call
/// order across processes is unspecified, and a factory's mutable state is
/// copied into each worker process rather than shared.
using ProgramFactory =
    std::function<std::unique_ptr<NodeProgram>(const NodeEnv&)>;

}  // namespace ds::local
