#include "dist/rank_loop.hpp"

#include <memory>

#include "local/message_arena.hpp"
#include "support/check.hpp"

namespace ds::dist {

std::size_t run_rank_loop(
    const RankView& view, const Partition& part, Transport& transport,
    const local::ProgramFactory& factory, std::size_t max_rounds,
    std::uint64_t& epoch, const local::RoundStatsSink& sink,
    const local::OutputFn& output_fn,
    std::vector<std::unique_ptr<local::NodeProgram>>& programs,
    obs::Recorder* recorder) {
  const std::size_t w = transport.rank();
  const graph::NodeId first = part.first_node(w);
  const graph::NodeId last = part.last_node(w);
  const std::size_t port_base = part.port_base(w);
  const std::vector<std::size_t>& local_delivery = part.local_delivery(w);

  const auto port_offset = [&](graph::NodeId v) {
    return view.port_offsets[v - view.offset_first];
  };
  const auto degree = [&](graph::NodeId v) {
    return view.port_offsets[v - view.offset_first + 1] - port_offset(v);
  };
  // Each rank builds only its own range, at local indices.
  programs.clear();
  programs.resize(last - first);
  for (graph::NodeId v = first; v < last; ++v) {
    programs[v - first] = factory(view.env_of(v));
    DS_CHECK(programs[v - first] != nullptr);
  }

  // Private round state: single-buffered bank + local span arena (own port
  // range followed by the out-halo staging slots) — the sequential
  // executor's layout, per rank.
  local::WordBank bank;
  std::vector<local::MessageSpan> arena(part.num_local_ports(w) +
                                        part.num_out_halo(w));
  std::vector<const std::uint64_t*> bases;

  const auto count_alive = [&] {
    std::size_t c = 0;
    for (const auto& prog : programs) {
      if (!prog->done()) ++c;
    }
    return c;
  };

  if (recorder != nullptr) recorder->set_lane(static_cast<std::uint32_t>(w));
  local::RoundClock clock(recorder, sink,
                          {obs::Phase::kSend, obs::Phase::kShip,
                           obs::Phase::kPatch, obs::Phase::kReceive,
                           obs::Phase::kBarrier});

  std::size_t alive = transport.sync_liveness(count_alive());
  std::size_t rounds = 0;
  while (alive > 0) {
    DS_CHECK_MSG(rounds < max_rounds,
                 "distributed run exceeded max_rounds");
    clock.begin();
    // Send phase: owned live nodes serialize into the private arena; the
    // local delivery table routes cut ports into the out-halo staging area.
    ++epoch;
    bank.clear();
    local::RoundCounts own;
    for (graph::NodeId v = first; v < last; ++v) {
      local::NodeProgram& prog = *programs[v - first];
      if (prog.done()) continue;
      ++own.live_nodes;
      local::Outbox out(&bank, 0, arena.data(),
                        local_delivery.data() + (port_offset(v) - port_base),
                        degree(v), epoch);
      prog.send(rounds, out);
      own.messages += out.messages();
      own.payload_words += out.payload_words();
    }
    clock.lap(obs::Phase::kSend);
    transport.ship(arena.data(), bank.data(), epoch,
                   {own.live_nodes, own.messages, own.payload_words});
    clock.lap(obs::Phase::kShip);

    // Receive phase: patch the arena onto the shipped payloads, then run
    // the unmodified Inbox path over the owned live nodes.
    transport.patch(arena.data(), epoch);
    transport.update_bank_bases(bases, bank.data());
    clock.lap(obs::Phase::kPatch);
    local::RoundCounts fleet = own;
    if (sink) {
      // Totals are only stable between ship and the liveness sync (on the
      // shm transport a fast peer may overwrite its counter slot right
      // after the latter) — read them here.
      const Transport::RoundTotals totals = transport.round_totals();
      DS_CHECK_MSG(totals.aggregated,
                   "stats sink installed on a rank whose transport does not "
                   "aggregate round totals — the sink would report zeros");
      fleet = {totals.senders, totals.messages, totals.payload_words};
    }
    for (graph::NodeId v = first; v < last; ++v) {
      local::NodeProgram& prog = *programs[v - first];
      if (prog.done()) continue;
      local::Inbox inbox(arena.data() + (port_offset(v) - port_base),
                         degree(v), bases.data(), epoch);
      prog.receive(rounds, inbox);
    }
    clock.lap(obs::Phase::kReceive);
    alive = transport.sync_liveness(count_alive());
    clock.lap(obs::Phase::kBarrier);
    clock.end_round(own, fleet);
    ++rounds;
  }

  // Output gather: this rank's drained observability block, then the owned
  // programs' serialized rows ([length, words...] per node) — see the file
  // comment in rank_loop.hpp for the layout.
  std::vector<std::uint64_t> gathered;
  clock.begin_gather();
  // Every rank executed every round: only rank 0 counts them, so the merged
  // fleet total is the run's round count.
  if (w == 0) clock.finish(rounds);
  if (recorder != nullptr) {
    const std::vector<std::uint64_t> obs_block = recorder->drain_words();
    gathered.push_back(obs_block.size());
    gathered.insert(gathered.end(), obs_block.begin(), obs_block.end());
  } else {
    gathered.push_back(0);
  }
  if (output_fn) {
    std::vector<std::uint64_t> row;
    for (graph::NodeId v = first; v < last; ++v) {
      row.clear();
      output_fn(v, *programs[v - first], row);
      gathered.push_back(row.size());
      gathered.insert(gathered.end(), row.begin(), row.end());
    }
  }
  transport.gather(gathered);
  // The gather span lands *after* the drain, so it stays in the local
  // recorder and is reported by the rank that merges the fleet's blocks.
  clock.end_gather();
  return rounds;
}

RankView full_view(const local::NetworkTopology& topo) {
  RankView view;
  view.port_offsets = topo.port_offsets().data();
  view.offset_first = 0;
  view.env_of = [&topo](graph::NodeId v) { return topo.make_env(v); };
  return view;
}

namespace {

/// Skips rank `w`'s leading observability block, returning the row start.
std::size_t skip_obs_block(const std::uint64_t* words, std::size_t count) {
  DS_CHECK_MSG(count >= 1, "gather block missing the obs header");
  const auto obs_words = static_cast<std::size_t>(words[0]);
  DS_CHECK_MSG(1 + obs_words <= count, "gather block truncated (obs)");
  return 1 + obs_words;
}

}  // namespace

void assemble_outputs(const Transport& transport, const Partition& part,
                      local::OutputTable& out) {
  // Ranks own contiguous node ranges in order, so assembly is a linear scan.
  out.start(part.last_node(part.num_workers() - 1));
  for (std::size_t w = 0; w < part.num_workers(); ++w) {
    const auto [words, count] = transport.gathered(w);
    std::size_t pos = skip_obs_block(words, count);
    for (std::size_t i = 0; i < part.num_nodes(w); ++i) {
      DS_CHECK_MSG(pos < count, "gather block truncated");
      const auto len = static_cast<std::size_t>(words[pos]);
      ++pos;
      DS_CHECK_MSG(pos + len <= count, "gather block truncated");
      out.append_row(words + pos, len);
      pos += len;
    }
    DS_CHECK_MSG(pos == count, "gather block has trailing words");
  }
}

void collect_fleet_obs(const Transport& transport, obs::Recorder& recorder) {
  for (std::size_t w = 0; w < transport.num_ranks(); ++w) {
    const auto [words, count] = transport.gathered(w);
    const std::size_t end = skip_obs_block(words, count);
    if (end > 1) recorder.merge_words(words + 1, end - 1);
  }
}

}  // namespace ds::dist
