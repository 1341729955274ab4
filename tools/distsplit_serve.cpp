/// \file distsplit_serve.cpp
/// Resident serving daemon: loads an instance once, rendezvouses a standing
/// TCP fleet once, then serves registry submissions (`distsplit_cli
/// submit`) over the standing connections until told to stop — no
/// per-request process launch, rendezvous, or re-partitioning. Flags: see
/// usage() below; launched like distsplit_rank, once per hosts-file line or
/// as a --local=N loopback fleet.
///
/// Rank 0 prints `serve: listening on port P` once the fleet is up and
/// accepts framed requests on that port (serve/protocol.hpp); the other
/// ranks execute the dispatched runs in lockstep. --seed is the *instance*
/// seed (--gen); each submission carries its own run seed.
///
/// Observability: --http-port=P serves each rank's live endpoints on P + r,
/// with the serve counters (`distsplit_serve_requests_total`, queue depth,
/// request latency) and the served-run history ring (/api/v1/runs).
/// Flag checks, instance loader, observability session and the --local /
/// --hosts launcher are shared with distsplit_cli and distsplit_rank
/// (tools/frontend.hpp); the instance is loaded once, before --local forks
/// the ranks.
///
/// Shutdown: SIGINT/SIGTERM drains the accepted requests, answers further
/// submissions `kRejected` ("daemon is draining", /healthz 503), releases
/// the follower ranks with a kShutdown broadcast, and exits 0.

#include <iostream>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "frontend.hpp"
#include "serve/daemon.hpp"
#include "serve/signal.hpp"
#include "support/options.hpp"

namespace {

using namespace ds;

int usage() {
  std::cerr << "usage: distsplit_serve "
               "(--input=FILE | --graph=FILE.dsg | --gen=SPEC)\n"
               "         (--hosts=FILE --rank=R | --local=N)\n"
               "         [--port=P] [--queue-cap=N] [--seed=S]\n"
               "         [--sndbuf=BYTES] [--rcvbuf=BYTES]\n"
               "         [--http-port=P] [--event-cap=N]\n"
               "submissions name any distributed-capable registry entry:\n"
            << algo::names_listing(/*scalable_only=*/true);
  return 2;
}

const std::vector<std::string> kServeFlags = {
    "input", "graph",     "gen",    "hosts",  "rank",      "local",
    "seed",  "port",      "queue-cap", "sndbuf", "rcvbuf", "http-port",
    "event-cap",
};

/// One rank's resident daemon over `instance` — always the unified graph,
/// plus the left-node count when the source carries a bipartite split (so
/// bipartite-input specs can be served too). Returns the exit code.
int run_serve(const tools::Instance& instance, const Options& opts,
              net::LoopbackRank&& self) {
  const std::size_t nranks = self.hosts.size();
  tools::ObsSession obs(
      opts, "distsplit_serve",
      {{"runtime", "serve-tcp(" + std::to_string(nranks) + " ranks)"}},
      self.rank, nranks);

  serve::DaemonConfig config;
  config.rank = self.rank;
  config.hosts = std::move(self.hosts);
  config.listen = std::move(self.listen);
  config.transport = tools::tcp_options(opts);
  config.graph = &instance.graph;
  config.nu = instance.nu;
  config.request_port = static_cast<std::uint16_t>(opts.get_int("port", 0));
  config.queue_capacity = static_cast<std::size_t>(
      opts.get_int("queue-cap", 16));
  config.stop_requested = [] { return serve::shutdown_requested(); };
  config.recorder = obs.recorder();
  config.publisher = obs.publisher();

  serve::Daemon daemon(std::move(config));
  if (self.rank == 0) {
    // The line scripts and CI wait for before submitting. Explicit flush:
    // the daemon lives until a signal, and the port must not sit in a
    // stdio buffer meanwhile.
    std::cout << "serve: listening on port " << daemon.request_port()
              << std::endl;
  }
  const int code = daemon.run();
  const serve::Daemon::Stats stats = daemon.stats();
  std::cout << obs.prefix() << "serve: exiting (" << stats.served
            << " served, " << stats.failed << " failed, " << stats.rejected
            << " rejected, partition cache " << stats.cache_hits
            << " hits / " << stats.cache_misses << " misses)" << std::endl;
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts(argc, argv);
    serve::install_shutdown_handler();
    tools::reject_unknown_flags(
        opts, kServeFlags, " (per-run parameters travel with each submission)");
    // Loaded once, before --local forks the ranks.
    const tools::Instance instance = tools::load_instance(opts, nullptr);
    return tools::run_fleet(opts, usage, [&](net::LoopbackRank&& self) {
      return run_serve(instance, opts, std::move(self));
    });
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
