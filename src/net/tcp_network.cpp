#include "net/tcp_network.hpp"

#include <utility>

#include "dist/rank_loop.hpp"
#include "net/rendezvous.hpp"
#include "support/check.hpp"

namespace ds::net {

namespace {

std::size_t checked_ranks(const TcpNetworkConfig& config) {
  DS_CHECK_MSG(!config.hosts.empty(),
               "TcpNetwork: the hosts list must name at least one rank");
  DS_CHECK_MSG(config.rank < config.hosts.size(),
               "TcpNetwork: --rank must be < the hosts list size");
  return config.hosts.size();
}

}  // namespace

TcpNetwork::TcpNetwork(const graph::Graph& g, local::IdStrategy strategy,
                       std::uint64_t seed, TcpNetworkConfig config)
    : Executor(g, strategy, seed),
      partition_(std::make_shared<const dist::Partition>(
          topology_, checked_ranks(config))),
      owned_fleet_(std::make_unique<Fleet>(
          config.rank, config.hosts,
          InstanceDigests{topology_digest(topology_),
                          partition_digest(*partition_)},
          config.transport, std::move(config.listen))),
      fleet_(owned_fleet_.get()) {}

TcpNetwork::TcpNetwork(const graph::Graph& g, local::IdStrategy strategy,
                       std::uint64_t seed, Fleet& fleet,
                       std::shared_ptr<const dist::Partition> partition)
    : Executor(g, strategy, seed),
      partition_(std::move(partition)),
      fleet_(&fleet) {}

std::size_t TcpNetwork::run(const local::ProgramFactory& factory,
                            std::size_t max_rounds, local::CostMeter* meter) {
  std::vector<std::unique_ptr<local::NodeProgram>> programs;
  const std::size_t rounds =
      fleet_->run(dist::full_view(topology_), *partition_, factory,
                  max_rounds, programs, recorder(), sink_, output_fn_,
                  &outputs_);
  if (meter != nullptr) meter->add_executed(rounds);
  return rounds;
}

}  // namespace ds::net
