#pragma once

/// \file round_stats.hpp
/// Per-round accounting of the LOCAL-model round loops. Every runtime runs
/// its rounds through one of three loops — `local::Network::run`
/// (sequential), `runtime::ParallelNetwork::run` (threads) and
/// `dist::run_rank_loop` (mp, TCP, serve, in-situ) — and each loop marks
/// its phase boundaries on one `RoundClock`. The clock owns the whole
/// accounting policy: one steady-clock reading per boundary feeds the trace
/// span, the `phase.<p>.us` histogram, the `perf.<p>.*` counters and the
/// `RoundStats` field, so the sink and the recorder can never disagree on
/// where a round began or ended. With neither a recorder nor a sink the
/// clock reads nothing.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <vector>

#include "obs/perf.hpp"
#include "obs/recorder.hpp"

namespace ds::local {

/// Counters for one executed synchronous round.
///
/// The first five fields are the *deterministic* set: for a fixed (graph,
/// IdStrategy, seed) every executor reports identical live_nodes / messages
/// / payload_words per round (tests/test_runtime.cpp, tests/test_dist.cpp
/// and tests/test_net_tcp.cpp compare them round by round against the
/// sequential executor). The phase fields below are wall-time measurements
/// and naturally differ; a runtime leaves the phases it does not have at
/// 0.0 (e.g. the in-process executors never ship or patch).
struct RoundStats {
  std::size_t round = 0;          ///< round index (0-based)
  double wall_seconds = 0.0;      ///< wall time of the round's epoch
  std::size_t live_nodes = 0;     ///< nodes scheduled (not done) this round
  std::size_t messages = 0;       ///< non-empty messages delivered
  std::size_t payload_words = 0;  ///< total 64-bit words across all messages

  // Per-phase breakdown (all seconds; 0.0 where the runtime has no such
  // phase). Appended fields keep every pre-existing sink source-compatible.
  double send_seconds = 0.0;     ///< program send phase (serialization)
  double ship_seconds = 0.0;     ///< transport ship, incl. its barrier
  double barrier_seconds = 0.0;  ///< explicit waits outside ship
  double patch_seconds = 0.0;    ///< patching received payloads
  double receive_seconds = 0.0;  ///< program receive phase
  /// Straggler: the slowest shard's busy time in the parallel executor's
  /// fused epoch (0.0 on non-sharded runtimes).
  double max_shard_seconds = 0.0;
};

/// Invoked once per executed round, on the run() thread.
using RoundStatsSink = std::function<void(const RoundStats&)>;

/// The deterministic counts of one round (the first fields of RoundStats).
struct RoundCounts {
  std::size_t live_nodes = 0;
  std::size_t messages = 0;
  std::size_t payload_words = 0;
};

/// One parallel shard's busy window in a fused epoch, measured on the
/// worker thread: start and length on the clock's timebase (`now_us`), and
/// the worker's thread-local hardware counters around it (recorder only).
struct ShardWindow {
  std::uint64_t start_us = 0;
  std::uint64_t busy_us = 0;
  obs::PerfSample perf_begin;
  obs::PerfSample perf_end;
};

/// Times one run's rounds. A round is `begin()`, one `lap(p)` per phase
/// that just ended, then `end_round(...)`: the round closes at its last
/// lap, or at a fresh reading when the loop has no laps. The recorder
/// receives every lap's span, histogram sample and hardware delta, the
/// round's span and `rounds.*` counts, and a live snapshot per round; the
/// sink receives the round's `RoundStats`. Recording is deferred to
/// `end_round`, outside the timed phases.
///
/// A loop that laps `{obs::Phase::kEpoch}` is *sharded*: it has no laps of
/// its own, reports its shards' windows to `end_round` instead (one kEpoch
/// span per shard lane, `phase.epoch.us`, `shard.straggler.us`), and the
/// round's hardware cost is the sum of its shards' — the run() thread only
/// waits at the barrier, so the clock never samples it.
class RoundClock {
 public:
  /// `laps` are the phases the loop laps, in order (see the class comment
  /// for kEpoch). Registers every metric eagerly: the registry seals at
  /// the first round's publish.
  RoundClock(obs::Recorder* recorder, const RoundStatsSink& sink,
             std::initializer_list<obs::Phase> laps);
  RoundClock(const RoundClock&) = delete;
  RoundClock& operator=(const RoundClock&) = delete;

  /// True when a recorder or a sink is installed — the only case in which
  /// the clock reads anything.
  [[nodiscard]] bool timed() const { return timed_; }

  /// One reading on the span timebase (µs since the recorder's t0; an
  /// arbitrary fixed origin without a recorder). Safe from any thread:
  /// parallel shards time their windows with it.
  [[nodiscard]] std::uint64_t now_us() const;

  /// Opens the next round.
  void begin();
  /// Closes `phase`, which ran since the previous boundary.
  void lap(obs::Phase phase);
  /// Closes the round. `own` feeds the recorder's `rounds.*` counters —
  /// a distributed rank's own share, which the fleet merge sums — and
  /// `fleet` feeds the sink. Sharded loops pass their shards' windows.
  void end_round(const RoundCounts& own, const RoundCounts& fleet,
                 const std::vector<ShardWindow>* shards = nullptr);

  /// Counts `rounds` into `rounds.executed` and publishes the final live
  /// snapshot. Distributed runs call it on one rank only, so the merged
  /// fleet total is the run's round count.
  void finish(std::size_t rounds);

  /// Brackets a distributed rank's end-of-run output gather: one kGather
  /// span, numbered with the run's round count (recorder only).
  void begin_gather();
  void end_gather();

 private:
  /// One boundary: the phase it closes (kRound for `begin` and for the
  /// closing reading of a lap-less round), its steady-clock reading and,
  /// with a recorder, the hardware counters right after it.
  struct Mark {
    obs::Phase phase = obs::Phase::kRound;
    std::uint64_t ns = 0;
    obs::PerfSample perf;
  };
  static constexpr std::size_t kMaxMarks = 8;

  void mark(obs::Phase phase);
  [[nodiscard]] std::uint64_t us(std::uint64_t ns) const {
    return (ns - origin_ns_) / 1000;
  }

  obs::Recorder* const recorder_;
  const RoundStatsSink sink_;
  const bool timed_;
  const bool sharded_;
  std::uint64_t origin_ns_ = 0;  ///< the recorder's t0 (0 without one)
  std::size_t round_ = 0;        ///< index of the round in progress

  obs::RoundInstruments ins_;
  obs::Histogram straggler_us_;
  std::unique_ptr<obs::PerfCounters> perf_;
  obs::PhasePerf phase_perf_;

  std::array<Mark, kMaxMarks> marks_;
  std::size_t num_marks_ = 0;
  std::uint64_t gather_ns_ = 0;
};

}  // namespace ds::local
