#include "local/network.hpp"

#include <algorithm>
#include <memory>

#include "support/check.hpp"

namespace ds::local {

Network::Network(const graph::Graph& g, IdStrategy strategy,
                 std::uint64_t seed)
    : Executor(g, strategy, seed) {
  spans_.resize(topology_.total_ports());
}

std::size_t Network::run(const ProgramFactory& factory, std::size_t max_rounds,
                         CostMeter* meter) {
  const graph::Graph& g = topology_.graph();
  const std::size_t n = g.num_nodes();
  std::vector<std::unique_ptr<NodeProgram>> programs(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    programs[v] = factory(topology_.make_env(v));
    DS_CHECK(programs[v] != nullptr);
  }

  RoundClock clock(recorder(), sink_,
                   {obs::Phase::kSend, obs::Phase::kReceive});
  std::size_t round = 0;
  auto all_done = [&] {
    return std::all_of(programs.begin(), programs.end(),
                       [](const auto& p) { return p->done(); });
  };
  while (!all_done()) {
    DS_CHECK_MSG(round < max_rounds, "Network::run exceeded max_rounds");
    clock.begin();
    // Send phase: every live node serializes into the shared bank; slots
    // are tagged with this round's epoch, so no node can observe same-round
    // messages while producing its own (synchrony) and stale slots of
    // halted neighbors are ignored without clearing.
    ++epoch_;
    bank_.clear();
    RoundCounts counts;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (programs[v]->done()) continue;
      ++counts.live_nodes;
      Outbox out(&bank_, 0, spans_.data(), topology_.delivery_row(v),
                 g.degree(v), epoch_);
      programs[v]->send(round, out);
      counts.messages += out.messages();
      counts.payload_words += out.payload_words();
    }
    clock.lap(obs::Phase::kSend);
    // Receive phase. The bank stops growing once sends are done, so the
    // base pointer is stable for every borrowed view.
    const std::uint64_t* bases[1] = {bank_.data()};
    for (graph::NodeId v = 0; v < n; ++v) {
      if (programs[v]->done()) continue;
      Inbox inbox(spans_.data() + topology_.port_offset(v), g.degree(v),
                  bases, epoch_);
      programs[v]->receive(round, inbox);
    }
    clock.lap(obs::Phase::kReceive);
    clock.end_round(counts, counts);
    ++round;
  }
  clock.finish(round);
  collect_outputs_from_programs(programs);
  if (meter != nullptr) meter->add_executed(round);
  return round;
}

std::unique_ptr<Executor> make_executor(const ExecutorFactory& factory,
                                        const graph::Graph& g,
                                        IdStrategy strategy,
                                        std::uint64_t seed) {
  if (factory) return factory(g, strategy, seed);
  return std::make_unique<Network>(g, strategy, seed);
}

}  // namespace ds::local
