#include "local/round_stats.hpp"

#include <algorithm>
#include <chrono>

#include "support/check.hpp"

namespace ds::local {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

constexpr std::size_t at(obs::Phase p) { return static_cast<std::size_t>(p); }

/// The RoundStats field of each phase, indexed by Phase value (null: none).
constexpr double RoundStats::*kSecondsField[8] = {
    nullptr, &RoundStats::send_seconds, &RoundStats::ship_seconds,
    &RoundStats::barrier_seconds, &RoundStats::patch_seconds,
    &RoundStats::receive_seconds, nullptr, nullptr};

}  // namespace

RoundClock::RoundClock(obs::Recorder* recorder, const RoundStatsSink& sink,
                       std::initializer_list<obs::Phase> laps)
    : recorder_(recorder),
      sink_(sink),
      timed_(recorder != nullptr || static_cast<bool>(sink)),
      sharded_(std::find(laps.begin(), laps.end(), obs::Phase::kEpoch) !=
               laps.end()) {
  if (recorder_ == nullptr) return;
  origin_ns_ = recorder_->t0_ns();
  obs::Metrics& m = recorder_->metrics();
  ins_ = obs::RoundInstruments::create(m);
  if (sharded_) {
    ins_.phase_us[at(obs::Phase::kEpoch)] = m.histogram("phase.epoch.us");
    straggler_us_ = m.histogram("shard.straggler.us");
  }
  // Degradation (container, paranoid kernel) leaves the hardware names
  // unregistered and the spans marked unavailable. A sharded loop only
  // asks this group whether the hardware is there; its deltas come from
  // the workers' own groups.
  perf_ = std::make_unique<obs::PerfCounters>();
  std::vector<obs::Phase> phases(laps);
  phases.push_back(obs::Phase::kRound);
  phase_perf_ = obs::PhasePerf(m, *perf_, phases);
}

std::uint64_t RoundClock::now_us() const { return us(steady_ns()); }

void RoundClock::mark(obs::Phase phase) {
  DS_CHECK(num_marks_ < kMaxMarks);
  Mark& m = marks_[num_marks_++];
  m.phase = phase;
  m.ns = steady_ns();
  if (recorder_ != nullptr && !sharded_) m.perf = perf_->sample();
}

void RoundClock::begin() {
  if (!timed_) return;
  num_marks_ = 0;
  mark(obs::Phase::kRound);
}

void RoundClock::lap(obs::Phase phase) {
  if (timed_) mark(phase);
}

void RoundClock::end_round(const RoundCounts& own, const RoundCounts& fleet,
                           const std::vector<ShardWindow>* shards) {
  const std::size_t round = round_++;
  if (!timed_) return;
  if (num_marks_ == 1) mark(obs::Phase::kRound);  // a lap-less round
  const Mark& first = marks_[0];
  const Mark& last = marks_[num_marks_ - 1];
  std::uint64_t straggler_us = 0;
  if (shards != nullptr) {
    for (const ShardWindow& w : *shards) {
      straggler_us = std::max(straggler_us, w.busy_us);
    }
  }

  if (recorder_ != nullptr) {
    // Counters take the caller's own share: distributed ranks each add
    // theirs, and the post-gather merge reconstructs the fleet totals the
    // sequential executor counts.
    ins_.live_nodes.add(own.live_nodes);
    ins_.messages.add(own.messages);
    ins_.payload_words.add(own.payload_words);
    for (std::size_t i = 1; i < num_marks_; ++i) {
      const Mark& from = marks_[i - 1];
      const Mark& to = marks_[i];
      if (to.phase == obs::Phase::kRound) continue;
      const std::uint64_t start = us(from.ns);
      const std::uint64_t dur = us(to.ns) - start;
      ins_.phase_us[at(to.phase)].record(dur);
      const obs::SpanPerf d = phase_perf_.account(to.phase, from.perf, to.perf);
      recorder_->add_span(to.phase, round, start, dur, d.cycles,
                          d.instructions);
    }
    obs::SpanPerf round_perf;
    if (shards == nullptr) {
      round_perf = phase_perf_.account(obs::Phase::kRound, first.perf,
                                       last.perf);
    } else {
      // The round's hardware cost is the sum of its shards' deltas;
      // unavailable on any shard marks the round span too.
      straggler_us_.record(straggler_us);
      round_perf = {0, 0};
      for (std::size_t s = 0; s < shards->size(); ++s) {
        const ShardWindow& w = (*shards)[s];
        ins_.phase_us[at(obs::Phase::kEpoch)].record(w.busy_us);
        const obs::SpanPerf d = phase_perf_.account(
            obs::Phase::kEpoch, w.perf_begin, w.perf_end);
        phase_perf_.account(obs::Phase::kRound, w.perf_begin, w.perf_end);
        recorder_->add_span_on(static_cast<std::uint32_t>(s),
                               obs::Phase::kEpoch, round, w.start_us,
                               w.busy_us, d.cycles, d.instructions);
        if (d.cycles == obs::kPerfUnavailable ||
            round_perf.cycles == obs::kPerfUnavailable) {
          round_perf = obs::SpanPerf{};
        } else {
          round_perf.cycles += d.cycles;
          round_perf.instructions += d.instructions;
        }
      }
    }
    const std::uint64_t start = us(first.ns);
    const std::uint64_t dur = us(last.ns) - start;
    ins_.phase_us[at(obs::Phase::kRound)].record(dur);
    recorder_->add_span(obs::Phase::kRound, round, start, dur,
                        round_perf.cycles, round_perf.instructions);
    recorder_->publish_round(round + 1);  // live-introspection snapshot
  }

  if (sink_) {
    RoundStats stats;
    stats.round = round;
    stats.wall_seconds = seconds(first.ns, last.ns);
    stats.live_nodes = fleet.live_nodes;
    stats.messages = fleet.messages;
    stats.payload_words = fleet.payload_words;
    for (std::size_t i = 1; i < num_marks_; ++i) {
      if (const auto field = kSecondsField[at(marks_[i].phase)]) {
        stats.*field = seconds(marks_[i - 1].ns, marks_[i].ns);
      }
    }
    stats.max_shard_seconds = static_cast<double>(straggler_us) / 1e6;
    sink_(stats);
  }
}

void RoundClock::finish(std::size_t rounds) {
  if (recorder_ == nullptr) return;
  ins_.rounds_executed.add(rounds);
  recorder_->publish_round(rounds);  // final snapshot with rounds.executed
}

void RoundClock::begin_gather() {
  if (recorder_ != nullptr) gather_ns_ = steady_ns();
}

void RoundClock::end_gather() {
  if (recorder_ == nullptr) return;
  const std::uint64_t start = us(gather_ns_);
  recorder_->add_span(obs::Phase::kGather, round_, start, now_us() - start);
}

}  // namespace ds::local
