#include "runtime/select.hpp"

#include "dist/distributed_network.hpp"
#include "local/network.hpp"
#include "net/tcp_network.hpp"
#include "runtime/parallel_network.hpp"
#include "support/check.hpp"

namespace ds::runtime {

namespace {

std::unique_ptr<local::Executor> build_executor(const RuntimeConfig& config,
                                                const graph::Graph& g,
                                                local::IdStrategy strategy,
                                                std::uint64_t seed) {
  switch (config.kind) {
    case RuntimeKind::kParallel:
      return std::make_unique<ParallelNetwork>(g, strategy, seed,
                                               config.threads);
    case RuntimeKind::kMultiProcess: {
      dist::DistributedConfig dconfig;
      dconfig.workers = config.workers;
      if (config.halo_words != 0) {
        dconfig.halo_words_per_port = config.halo_words;
      }
      if (config.gather_words != 0) {
        dconfig.gather_words_per_node = config.gather_words;
      }
      return std::make_unique<dist::DistributedNetwork>(g, strategy, seed,
                                                        dconfig);
    }
    case RuntimeKind::kTcp: {
      DS_CHECK_MSG(!config.hosts.empty(),
                   "--runtime=tcp requires --hosts=FILE");
      net::TcpNetworkConfig nconfig;
      nconfig.rank = config.rank;
      nconfig.hosts = net::read_hosts_file(config.hosts);
      DS_CHECK_MSG(config.ranks == 0 ||
                       config.ranks == nconfig.hosts.size(),
                   "--ranks=" + std::to_string(config.ranks) +
                       " does not match the hosts file (" +
                       std::to_string(nconfig.hosts.size()) + " entries)");
      nconfig.transport.sndbuf_bytes = static_cast<int>(config.sndbuf);
      nconfig.transport.rcvbuf_bytes = static_cast<int>(config.rcvbuf);
      return std::make_unique<net::TcpNetwork>(g, strategy, seed,
                                               std::move(nconfig));
    }
    case RuntimeKind::kSequential:
      break;
  }
  return std::make_unique<local::Network>(g, strategy, seed);
}

}  // namespace

RuntimeConfig runtime_from_options(const Options& opts) {
  RuntimeConfig config;
  const std::string name = opts.get("runtime", "sequential");
  if (name == "parallel") {
    config.kind = RuntimeKind::kParallel;
  } else if (name == "mp") {
    config.kind = RuntimeKind::kMultiProcess;
  } else if (name == "tcp") {
    config.kind = RuntimeKind::kTcp;
  } else {
    DS_CHECK_MSG(name == "sequential",
                 "--runtime must be 'sequential', 'parallel', 'mp' or "
                 "'tcp'");
  }
  const long long threads = opts.get_int("threads", 0);
  DS_CHECK_MSG(threads >= 0, "--threads must be >= 0");
  config.threads = static_cast<std::size_t>(threads);
  const long long workers = opts.get_int("workers", 0);
  DS_CHECK_MSG(workers >= 0, "--workers must be >= 0");
  config.workers = static_cast<std::size_t>(workers);
  const long long halo_words = opts.get_int("halo-words", 0);
  DS_CHECK_MSG(halo_words >= 0, "--halo-words must be >= 0");
  config.halo_words = static_cast<std::size_t>(halo_words);
  const long long gather_words = opts.get_int("gather-words", 0);
  DS_CHECK_MSG(gather_words >= 0, "--gather-words must be >= 0");
  config.gather_words = static_cast<std::size_t>(gather_words);
  const long long rank = opts.get_int("rank", 0);
  DS_CHECK_MSG(rank >= 0, "--rank must be >= 0");
  config.rank = static_cast<std::size_t>(rank);
  const long long ranks = opts.get_int("ranks", 0);
  DS_CHECK_MSG(ranks >= 0, "--ranks must be >= 0");
  config.ranks = static_cast<std::size_t>(ranks);
  config.hosts = opts.get("hosts", "");
  const long long sndbuf = opts.get_int("sndbuf", 0);
  const long long rcvbuf = opts.get_int("rcvbuf", 0);
  DS_CHECK_MSG(sndbuf >= 0 && rcvbuf >= 0,
               "--sndbuf/--rcvbuf must be >= 0");
  config.sndbuf = static_cast<std::size_t>(sndbuf);
  config.rcvbuf = static_cast<std::size_t>(rcvbuf);
  return config;
}

local::ExecutorFactory make_executor_factory(const RuntimeConfig& config,
                                             local::RoundStatsSink sink,
                                             obs::Recorder* recorder) {
  if (config.kind == RuntimeKind::kSequential && !sink &&
      recorder == nullptr) {
    return {};
  }
  return [config, sink = std::move(sink), recorder](
             const graph::Graph& g, local::IdStrategy strategy,
             std::uint64_t seed) -> std::unique_ptr<local::Executor> {
    auto exec = build_executor(config, g, strategy, seed);
    exec->set_stats_sink(sink);
    exec->set_recorder(recorder);
    return exec;
  };
}

std::string runtime_description(const RuntimeConfig& config) {
  switch (config.kind) {
    case RuntimeKind::kParallel:
      return "parallel(" +
             std::to_string(ParallelNetwork::resolve_threads(config.threads)) +
             " threads)";
    case RuntimeKind::kMultiProcess:
      return "mp(" +
             std::to_string(
                 dist::DistributedNetwork::resolve_workers(config.workers)) +
             " workers)";
    case RuntimeKind::kTcp:
      return "tcp(rank " + std::to_string(config.rank) + ", hosts " +
             (config.hosts.empty() ? "<unset>" : config.hosts) + ")";
    case RuntimeKind::kSequential:
      break;
  }
  return "sequential";
}

}  // namespace ds::runtime
