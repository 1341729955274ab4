#include "runtime/parallel_network.hpp"

#include <algorithm>
#include <functional>
#include <thread>

#include "support/check.hpp"

namespace ds::runtime {

std::size_t ParallelNetwork::resolve_threads(std::size_t num_threads) {
  if (num_threads != 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ParallelNetwork::ParallelNetwork(const graph::Graph& g,
                                 local::IdStrategy strategy,
                                 std::uint64_t seed, std::size_t num_threads)
    : Executor(g, strategy, seed), pool_(resolve_threads(num_threads)) {
  const std::size_t n = g.num_nodes();
  // Contiguous shards, a few per thread so the dynamic chunk claiming in the
  // pool evens out residual imbalance without giving up cache locality;
  // boundaries split by port count so skewed-degree graphs don't put all of
  // the message work into one shard.
  const std::size_t num_shards =
      n == 0 ? 0 : std::min<std::size_t>(n, pool_.num_threads() * 4);
  bounds_ = dist::degree_balanced_boundaries(topology_.port_offsets(),
                                             num_shards);
  for (auto& banks : banks_) banks.resize(num_shards);
  for (auto& arena : span_arenas_) arena.resize(topology_.total_ports());
  read_bases_.resize(num_shards);
  counters_.resize(num_shards);
  windows_.resize(num_shards);
}

void ParallelNetwork::run_epoch_shard(
    std::size_t s,
    const std::vector<std::unique_ptr<local::NodeProgram>>& programs) {
  const graph::Graph& g = topology_.graph();
  const EpochPlan plan = plan_;
  const graph::NodeId first = bounds_[s];
  const graph::NodeId last = bounds_[s + 1];
  ShardCounters c;
  // Only the shard's own windows_ slot is written; the clock and the
  // thread-local perf group are safe to use concurrently.
  local::ShardWindow* const window =
      plan.clock != nullptr ? &windows_[s] : nullptr;
  // Per-thread hardware counters: pool threads are long-lived, so the
  // thread-local group opens once and attributes work to the thread that
  // did it. Sink-only (recorder-less) runs skip the sampling entirely.
  obs::PerfCounters* perf = nullptr;
  if (window != nullptr) {
    window->start_us = plan.clock->now_us();
    if (recorder() != nullptr) {
      static thread_local obs::PerfCounters tls_perf;
      perf = &tls_perf;
      window->perf_begin = perf->sample();
    }
  }
  local::WordBank* bank = nullptr;
  if (plan.send) {
    // Bump-reset this shard's write bank; capacity is kept, so rounds past
    // the high-water mark allocate nothing.
    bank = &banks_[plan.write_buffer][s];
    bank->clear();
  }
  const std::uint64_t* const* bases = read_bases_.data();
  for (graph::NodeId v = first; v < last; ++v) {
    local::NodeProgram& prog = *programs[v];
    // Per node, receive(r-1) strictly precedes send(r) — the same call
    // sequence the sequential executor produces (done() is re-checked in
    // between, exactly like its two phase loops do).
    if (plan.recv && !prog.done()) {
      local::Inbox inbox(plan.read_spans + topology_.port_offset(v),
                         g.degree(v), bases, plan.recv_epoch);
      prog.receive(plan.round - 1, inbox);
    }
    if (plan.send && !prog.done()) {
      ++c.senders;
      local::Outbox out(bank, static_cast<std::uint32_t>(s),
                        plan.write_spans, topology_.delivery_row(v),
                        g.degree(v), plan.send_epoch);
      prog.send(plan.round, out);
      c.messages += out.messages();
      c.payload_words += out.payload_words();
    }
    if (!prog.done()) ++c.not_done;
  }
  if (window != nullptr) {
    window->busy_us = plan.clock->now_us() - window->start_us;
    if (perf != nullptr) window->perf_end = perf->sample();
  }
  counters_[s] = c;
}

std::size_t ParallelNetwork::run(const local::ProgramFactory& factory,
                                 std::size_t max_rounds,
                                 local::CostMeter* meter) {
  const std::size_t n = topology_.graph().num_nodes();
  std::vector<std::unique_ptr<local::NodeProgram>> programs(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    programs[v] = factory(topology_.make_env(v));
    DS_CHECK(programs[v] != nullptr);
  }
  const std::size_t num_shards = bounds_.size() - 1;

  // Both run-scoped callables are constructed once; the per-round hot loop
  // performs no allocation.
  const std::function<void(std::size_t)> count_fn = [&](std::size_t s) {
    std::size_t c = 0;
    for (graph::NodeId v = bounds_[s]; v < bounds_[s + 1]; ++v) {
      if (!programs[v]->done()) ++c;
    }
    counters_[s].not_done = c;
  };
  const std::function<void(std::size_t)> epoch_fn = [&](std::size_t s) {
    run_epoch_shard(s, programs);
  };

  if (recorder() != nullptr) recorder()->set_lane_kind("shard");
  local::RoundClock clock(recorder(), sink_, {obs::Phase::kEpoch});

  pool_.parallel_for(num_shards, count_fn);
  std::size_t alive = 0;
  for (const ShardCounters& c : counters_) alive += c.not_done;
  if (alive == 0) {
    collect_outputs_from_programs(programs);
    if (meter != nullptr) meter->add_executed(0);
    return 0;
  }
  DS_CHECK_MSG(max_rounds > 0, "ParallelNetwork::run exceeded max_rounds");

  // Fused rounds: epoch r = receive(r-1) against the previous arena (epoch
  // 0 is the degenerate case with nothing to receive), then send(r) into
  // the current one — one barrier per round.
  plan_ = EpochPlan{};
  plan_.clock = clock.timed() ? &clock : nullptr;
  for (std::size_t r = 0;; ++r) {
    const bool sending = r < max_rounds;
    plan_.recv = r > 0;
    plan_.recv_epoch = epoch_;  // the tag round r-1's sends used
    plan_.send = sending;
    plan_.round = r;
    if (sending) {
      plan_.send_epoch = ++epoch_;
      plan_.write_spans = span_arenas_[r & 1].data();
      plan_.write_buffer = r & 1;
    }
    if (r > 0) {
      plan_.read_spans = span_arenas_[(r - 1) & 1].data();
      const std::vector<local::WordBank>& read_banks = banks_[(r - 1) & 1];
      for (std::size_t s = 0; s < num_shards; ++s) {
        read_bases_[s] = read_banks[s].data();
      }
    }
    clock.begin();
    pool_.parallel_for(num_shards, epoch_fn);

    local::RoundCounts counts;
    std::size_t not_done = 0;
    for (const ShardCounters& c : counters_) {
      counts.live_nodes += c.senders;
      counts.messages += c.messages;
      counts.payload_words += c.payload_words;
      not_done += c.not_done;
    }
    // A senders == 0 epoch is the trailing receive-only flush past the last
    // round; the sequential executor has no such round, so neither counters
    // nor stats may record it (the cross-runtime determinism of the
    // `rounds.*` metrics depends on this).
    const bool executed = counts.live_nodes > 0;
    if (executed) clock.end_round(counts, counts, &windows_);
    if (not_done == 0) {
      // Round r executed iff anything was sent in it (a program may halt
      // only after a final send — the sequential executor then counts that
      // farewell round too).
      const std::size_t rounds = executed ? r + 1 : r;
      clock.finish(rounds);
      collect_outputs_from_programs(programs);
      if (meter != nullptr) meter->add_executed(rounds);
      return rounds;
    }
    DS_CHECK_MSG(sending, "ParallelNetwork::run exceeded max_rounds");
  }
}

}  // namespace ds::runtime
