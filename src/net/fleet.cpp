#include "net/fleet.hpp"

#include <utility>

namespace ds::net {

Fleet::Fleet(std::size_t rank, const std::vector<Endpoint>& hosts,
             InstanceDigests digests, TcpOptions opts, Socket listen)
    : transport_(rank, hosts, digests, opts, std::move(listen)) {}

std::size_t Fleet::run(
    const dist::RankView& view, const dist::Partition& part,
    const local::ProgramFactory& factory, std::size_t max_rounds,
    std::vector<std::unique_ptr<local::NodeProgram>>& programs,
    obs::Recorder* recorder, const local::RoundStatsSink& sink,
    const local::OutputFn& output_fn, local::OutputTable* outputs) {
  return guarded([&] {
    transport_.attach_partition(part);
    // Observability agreement: one pre-round collective sums every rank's
    // "recorder installed" bit. Ranks are launched independently, so only
    // some may observe; every rank runs this exchange unconditionally to
    // stay in lockstep.
    const std::size_t observers =
        transport_.sync_liveness(recorder != nullptr ? 1 : 0);
    if (observers != 0 && recorder == nullptr) {
      if (fleet_recorder_ == nullptr) {
        fleet_recorder_ = std::make_unique<obs::Recorder>();
      }
      recorder = fleet_recorder_.get();
    }
    transport_.set_recorder(recorder);
    const std::size_t rounds =
        dist::run_rank_loop(view, part, transport_, factory, max_rounds,
                            epoch_, sink, output_fn, programs, recorder);
    // The kOutputs re-broadcast left every rank's gather payload on every
    // rank: the output table and the fleet's obs blocks assemble locally.
    if (outputs != nullptr) {
      if (output_fn) {
        dist::assemble_outputs(transport_, part, *outputs);
      } else {
        outputs->clear();
      }
    }
    if (recorder != nullptr) {
      dist::collect_fleet_obs(transport_, *recorder);
      // The final live snapshot carries the merged fleet-wide totals.
      recorder->publish_round(rounds);
    }
    return rounds;
  });
}

}  // namespace ds::net
