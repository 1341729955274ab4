#pragma once

/// \file executor.hpp
/// Abstract interface over LOCAL-model executors, so algorithms that run
/// genuine message-passing programs (Luby MIS, trial coloring, sinkless
/// orientation, ...) can be pointed at any runtime: the sequential
/// `Network`, the sharded `runtime::ParallelNetwork`, the forked
/// `dist::DistributedNetwork` or the TCP `net::TcpNetwork`.
///
/// Determinism contract: for a fixed (graph, IdStrategy, seed), every
/// executor must produce bit-identical per-node program outputs and the same
/// round count — regardless of executor kind or thread count. This holds
/// because node programs only interact through port-indexed messages, every
/// node's randomness is the pure fork(seed, uid) — a SplitMix64 counter
/// stream whose every draw is defined in support/rng.cpp rather than by the
/// standard library, so outputs also agree across toolchains — and executors
/// separate the send and receive phases of each round with a barrier.

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "local/cost.hpp"
#include "local/message_arena.hpp"
#include "local/program.hpp"
#include "local/round_stats.hpp"
#include "local/topology.hpp"

namespace ds::obs {
class Recorder;
}  // namespace ds::obs

namespace ds::local {

/// Serializes the output of one node's final program state, appending words
/// to `out` (cleared by the caller per node). Runs in whatever thread or
/// *process* owns the node — the multi-process executor invokes it inside
/// the owning worker and ships only the words — so it must be a pure
/// function of (node, program): side effects on captured state are not
/// observable after `run()` returns.
using OutputFn = std::function<void(graph::NodeId, const NodeProgram&,
                                    std::vector<std::uint64_t>&)>;

/// Per-node output rows gathered after a run, CSR-packed (one flat word
/// vector plus offsets) — the only way to read a run's results: its
/// programs die when `run()` returns, and on the distributed executors each
/// lived only in the process that ran its node.
class OutputTable {
 public:
  /// Starts a fresh table expecting `n` rows appended in node order.
  void start(std::size_t n) {
    words_.clear();
    offsets_.clear();
    offsets_.reserve(n + 1);
    offsets_.push_back(0);
  }
  void clear() {
    words_.clear();
    offsets_.clear();
  }
  /// Appends node `offsets.size() - 1`'s row.
  void append_row(const std::uint64_t* words, std::size_t count) {
    words_.insert(words_.end(), words, words + count);
    offsets_.push_back(words_.size());
  }

  /// True once rows have been gathered (i.e. an OutputFn was installed
  /// before the last run).
  [[nodiscard]] bool ready() const { return !offsets_.empty(); }
  [[nodiscard]] std::size_t size() const {
    return ready() ? offsets_.size() - 1 : 0;
  }
  /// Node v's serialized output words.
  [[nodiscard]] MessageView row(graph::NodeId v) const {
    DS_CHECK_MSG(ready(), "no outputs gathered: set_output_fn before run()");
    DS_CHECK(v + 1 < offsets_.size());
    return {words_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }
  /// Convenience for single-word rows.
  [[nodiscard]] std::uint64_t value(graph::NodeId v) const {
    const MessageView r = row(v);
    DS_CHECK(r.size() == 1);
    return r[0];
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::size_t> offsets_;
};

/// A synchronous executor bound to one communication graph. The base owns
/// what every executor shares: the `NetworkTopology` built from
/// (graph, strategy, seed), the per-round stats sink, the recorder and the
/// output gather.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs one program instance per node for at most `max_rounds` rounds.
  /// Returns the number of executed rounds (also added to `meter` if given).
  /// Throws if the round limit is hit with unhalted nodes. The factory
  /// contract is in local/program.hpp; the programs die when `run()`
  /// returns, so read results via `set_output_fn` / `outputs()`.
  virtual std::size_t run(const ProgramFactory& factory,
                          std::size_t max_rounds,
                          CostMeter* meter = nullptr) = 0;

  /// The shared topology (graph, UIDs, ports) this executor runs on.
  [[nodiscard]] const NetworkTopology& topology() const { return topology_; }

  /// Installs (or clears, with {}) the per-round stats hook for future runs.
  void set_stats_sink(RoundStatsSink sink) { sink_ = std::move(sink); }

  /// Installs (or clears, with nullptr) the observability recorder for
  /// future runs. Not owned; must outlive the runs it observes. When set,
  /// executors register phase metrics and emit trace spans into it; when
  /// null, the instrumentation is a no-op (see obs/metrics.hpp).
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

  /// Installs (or clears, with {}) the per-node output serializer applied
  /// at the end of future runs; read the result via `outputs()`. The
  /// distributed executors run the serializer in the process that owns
  /// the node.
  void set_output_fn(OutputFn fn) { output_fn_ = std::move(fn); }

  /// The gathered per-node outputs of the most recent run. Throws unless an
  /// OutputFn was installed before that run.
  [[nodiscard]] const OutputTable& outputs() const {
    DS_CHECK_MSG(outputs_.ready(),
                 "no outputs gathered: set_output_fn before run()");
    return outputs_;
  }

  [[nodiscard]] const graph::Graph& graph() const {
    return topology_.graph();
  }
  [[nodiscard]] const std::vector<std::uint64_t>& uids() const {
    return topology_.uids();
  }

 protected:
  /// Builds the shared topology: IDs per `strategy`, per-node randomness
  /// derived from `seed`.
  Executor(const graph::Graph& g, IdStrategy strategy, std::uint64_t seed)
      : topology_(g, strategy, seed) {}

  /// Rebuilds `outputs_` by applying the installed OutputFn to `programs`,
  /// the run's program of every node in node order; clears the table when
  /// no OutputFn is installed. The in-process executors call this at the
  /// end of run(); the distributed ones gather rows from their ranks.
  void collect_outputs_from_programs(
      const std::vector<std::unique_ptr<NodeProgram>>& programs);

  NetworkTopology topology_;
  RoundStatsSink sink_;
  OutputFn output_fn_;
  OutputTable outputs_;
  obs::Recorder* recorder_ = nullptr;
};

/// Factory producing an executor for a concrete (graph, strategy, seed).
/// Algorithms accept one of these (empty = sequential `Network`) so the
/// executor kind is selectable per invocation without touching program code.
using ExecutorFactory = std::function<std::unique_ptr<Executor>(
    const graph::Graph&, IdStrategy, std::uint64_t)>;

/// Instantiates `factory` if non-empty, else the sequential `Network`.
std::unique_ptr<Executor> make_executor(const ExecutorFactory& factory,
                                        const graph::Graph& g,
                                        IdStrategy strategy,
                                        std::uint64_t seed);

}  // namespace ds::local
