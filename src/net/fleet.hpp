#pragma once

/// \file fleet.hpp
/// `net::Fleet` — one connected TCP fleet and the only driver of
/// `dist::run_rank_loop` over TCP. `net::TcpNetwork` owns a fleet used once
/// (one-shot runs) or borrows a resident daemon's standing fleet, and
/// `net::run_insitu` runs its rank-local rounds through one between its own
/// setup and collection collectives.
///
/// The fleet owns what must live exactly as long as the connections: the
/// `TcpTransport`, the monotone round epoch (epochs never repeat on one
/// transport) and the fleet recorder a rank records into when a peer
/// observes but it does not — so the transport's counter handles never
/// outlive their cells.
///
/// Lockstep contract: every rank issues the same sequence of collectives
/// (the same `run`s over the same graph, strategy and seed, the same setup
/// exchanges) for the fleet's whole lifetime.

#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "dist/partition.hpp"
#include "dist/rank_loop.hpp"
#include "local/executor.hpp"
#include "local/program.hpp"
#include "local/round_stats.hpp"
#include "net/socket.hpp"
#include "net/tcp_transport.hpp"
#include "obs/recorder.hpp"

namespace ds::net {

class Fleet {
 public:
  /// Connects the fleet: rendezvous of `hosts.size()` ranks agreeing on
  /// `digests` (blocks until every handshake went through or the
  /// rendezvous times out). `listen` is an optional pre-bound socket for
  /// `hosts[rank]`.
  Fleet(std::size_t rank, const std::vector<Endpoint>& hosts,
        InstanceDigests digests, TcpOptions opts, Socket listen = {});

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] std::size_t rank() const { return transport_.rank(); }
  [[nodiscard]] std::size_t num_ranks() const {
    return transport_.num_ranks();
  }

  /// The connections, for the collectives a runner issues around its runs
  /// (setup exchanges, serve dispatch, liveness probes).
  [[nodiscard]] TcpTransport& transport() { return transport_; }

  /// One distributed run over `part`:
  ///
  ///   1. the observability agreement — when any rank records, every rank
  ///      records, so the merged export has one lane per rank;
  ///   2. `dist::run_rank_loop` (see its contract for `factory`, `sink`,
  ///      `output_fn` and `programs`);
  ///   3. output assembly into `outputs` when `output_fn` is installed;
  ///   4. the obs merge: every rank merges every rank's drained block, so
  ///      each recorder ends the run with the fleet's totals.
  ///
  /// Returns the executed round count. A locally raised failure aborts the
  /// fleet collectively and is rethrown. `recorder` (null: this rank does
  /// not observe) keeps receiving the transport's counters between runs,
  /// so it must live until the next run or the fleet's end.
  std::size_t run(const dist::RankView& view, const dist::Partition& part,
                  const local::ProgramFactory& factory,
                  std::size_t max_rounds,
                  std::vector<std::unique_ptr<local::NodeProgram>>& programs,
                  obs::Recorder* recorder,
                  const local::RoundStatsSink& sink = {},
                  const local::OutputFn& output_fn = {},
                  local::OutputTable* outputs = nullptr);

  /// Runs `fn` and returns its result. An exception it raises fails the
  /// whole fleet — the peers are blocked in a collective this rank will
  /// never join — before it is rethrown. Aborting twice is harmless, so
  /// guarded calls nest.
  template <typename Fn>
  auto guarded(Fn&& fn) -> decltype(fn()) {
    try {
      return fn();
    } catch (const std::exception& e) {
      transport_.abort(e.what());
      throw;
    }
  }

 private:
  TcpTransport transport_;
  /// Monotone round tag of every run on this transport.
  std::uint64_t epoch_ = 0;
  /// Installed when a peer observes but this rank was given no recorder.
  std::unique_ptr<obs::Recorder> fleet_recorder_;
};

}  // namespace ds::net
