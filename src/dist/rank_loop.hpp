#pragma once

/// \file rank_loop.hpp
/// The transport-independent round protocol of the distributed executors.
///
/// `run_rank_loop` is the per-rank body of every distributed run. Two
/// drivers call it: `dist::DistributedNetwork` (one forked worker per rank
/// over a `ShmTransport`) and `net::Fleet` (one OS process per rank over a
/// `net::TcpTransport`), which every TCP runtime — one-shot `TcpNetwork`
/// runs, the resident serve daemon and the in-situ scale path — runs its
/// rounds through. Keeping one body is what guarantees the runtimes
/// implement the *same* protocol: the transports only move bytes and
/// synchronize; every delivery/ordering/liveness rule lives here, once:
///
///   1. invoke the factory for the owned range only (the factory contract
///      of local/program.hpp);
///   2. per round: owned live nodes send through the unmodified
///      `local::Outbox` (the Partition's delivery table routes cut ports
///      into out-halo staging slots) -> `Transport::ship` -> patch +
///      receive through the unmodified `local::Inbox` ->
///      `Transport::sync_liveness`;
///   3. after the last round: serialize the owned programs' output rows and
///      `Transport::gather` them, prefixed by this rank's drained
///      observability block (see below).
///
/// # Gather payload layout (per rank)
///
///     [obs_word_count, obs words..., (row_length, row words...)*]
///
/// The leading observability block is always present (count 0 when no
/// recorder is installed); `assemble_outputs` skips it and
/// `collect_fleet_obs` merges every rank's block into one recorder. Keeping
/// the block inside the existing gather stream means per-rank metrics and
/// trace spans ride the same frames/shared blocks as the output rows — no
/// second protocol.

#include <cstdint>
#include <memory>
#include <vector>

#include "dist/partition.hpp"
#include "dist/transport.hpp"
#include "local/executor.hpp"
#include "local/program.hpp"
#include "local/round_stats.hpp"
#include "local/topology.hpp"
#include "obs/recorder.hpp"

namespace ds::dist {

/// What the round protocol actually needs to know about one rank's share of
/// the instance — a seam between the loop and the topology representation.
/// The classic executors view a fully materialized `NetworkTopology`
/// (global port offsets); the in-situ scale path views only its own node
/// range (rank-local offsets), so a rank never holds the whole graph.
struct RankView {
  /// CSR port offsets indexed by `v - offset_first`; for owned nodes the
  /// difference of adjacent entries is the node's degree and
  /// `port_offsets[v - offset_first] - part.port_base(rank)` is the node's
  /// arena slot.
  const std::uint64_t* port_offsets = nullptr;
  graph::NodeId offset_first = 0;
  /// Builds the node environment (uid, degree, neighbor view, forked rng)
  /// for one owned node. The environment's views must stay valid for the
  /// whole run.
  std::function<local::NodeEnv(graph::NodeId)> env_of;
};

/// The view of a fully materialized topology (global port offsets). `topo`
/// must outlive the view.
RankView full_view(const local::NetworkTopology& topo);

/// Runs rank `transport.rank()`'s full share of one distributed run:
/// construct programs, execute rounds, gather outputs. Returns the executed
/// round count (identical on every rank by construction). `epoch` is the
/// caller's monotone round tag, advanced once per round; `sink`, when
/// non-empty, receives per-round stats from `Transport::round_totals` (only
/// install it on ranks where the transport aggregates totals). `programs`
/// is filled with the owned range's instances at local indices (node
/// `first + i` at `i`), for callers that read them after the loop. Throws
/// ds::CheckError when `max_rounds` is hit with unhalted nodes — the caller
/// is responsible for turning that into a collective `Transport::abort`.
/// `recorder`, when non-null, receives this rank's phase spans and round
/// counters and is *drained* into the gather payload (see the file
/// comment); merge the fleet's blocks back with `collect_fleet_obs`.
std::size_t run_rank_loop(const RankView& view, const Partition& part,
                          Transport& transport,
                          const local::ProgramFactory& factory,
                          std::size_t max_rounds, std::uint64_t& epoch,
                          const local::RoundStatsSink& sink,
                          const local::OutputFn& output_fn,
                          std::vector<std::unique_ptr<local::NodeProgram>>&
                              programs,
                          obs::Recorder* recorder = nullptr);

/// Assembles the gathered per-node rows ([length, words...] per node, ranks
/// in order) into `out`, skipping each rank's leading observability block.
/// Call after `run_rank_loop` on a rank where `Transport::gathered` is
/// valid for every worker; throws on a truncated or trailing-garbage gather
/// stream.
void assemble_outputs(const Transport& transport, const Partition& part,
                      local::OutputTable& out);

/// Merges every rank's gathered observability block into `recorder` —
/// including the caller's own, which its drain removed from the local
/// state, so the merge reconstructs exact fleet totals without double
/// counting. Drained blocks carry only what a rank recorded since its last
/// drain (see obs/recorder.hpp), so every rank of a one-shot or a standing
/// fleet merges every block. Call wherever `Transport::gathered` is valid
/// for every rank.
void collect_fleet_obs(const Transport& transport, obs::Recorder& recorder);

}  // namespace ds::dist
