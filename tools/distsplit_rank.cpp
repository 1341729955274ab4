/// \file distsplit_rank.cpp
/// Multi-host rank launcher: runs one rank of a TCP-distributed LOCAL
/// algorithm (or, with --local=N, a whole loopback fleet on this machine —
/// the quickest way to smoke-test the wire path without a cluster). The
/// algorithm is any distributed-capable entry of the algorithm registry
/// (`distsplit_cli list`); there is no per-algorithm code in this tool.
/// Flags: see usage() below.
///
/// Multi-host: run once per hosts-file line (`host port`, line i = rank i,
/// `#` comments and blank lines ignored), anywhere the hosts resolve, in
/// any order — the rendezvous retries until the fleet is up, and its digest
/// handshake rejects ranks naming a different instance, seed or algorithm.
/// Loopback (--local=N): all N ranks as processes on kernel-assigned
/// 127.0.0.1 ports, rank 0 in this process.
///
/// Input: --gen=SPEC runs the billion-edge *in-situ scale path* by default:
/// every rank generates only its own node range and no process ever
/// materializes the whole topology (net/insitu_runner.hpp). With
/// --materialize, and for --input/--graph, the instance is loaded once in
/// this process before --local forks (a --graph mapping is fork-shared)
/// and runs through the classic path — the RSS-comparison control, and
/// the fallback for algorithms without in-situ hooks.
///
/// Observability: --metrics/--trace/--stats/--profile instrument every
/// rank, and the fleet's blocks (folded stacks prefixed `rank:R`) merge
/// through the gather, so the files rank 0 alone writes cover the whole
/// fleet. --http-port=P serves each rank's live endpoints on P + r.
///
/// Flag checks, instance loader, observability session and the --local /
/// --hosts launcher are shared with distsplit_cli and distsplit_serve
/// (tools/frontend.hpp). Results are gathered to rank 0 and re-broadcast,
/// so every rank prints the same summary (prefixed with its rank). Exit
/// code 0 on success, 2 on a failed run (abort, dead peer, bad usage).

#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "frontend.hpp"
#include "graph/insitu.hpp"
#include "local/executor.hpp"
#include "net/insitu_runner.hpp"
#include "net/tcp_network.hpp"
#include "serve/signal.hpp"
#include "support/check.hpp"
#include "support/options.hpp"

namespace {

using namespace ds;

int usage() {
  std::cerr << "usage: distsplit_rank "
               "(--input=FILE | --graph=FILE.dsg | --gen=SPEC)\n"
               "         (--hosts=FILE --rank=R | --local=N)\n"
               "         [--materialize] [--algo=NAME] [--seed=S] "
               "[--param=key=value ...]\n"
               "         [--sndbuf=BYTES] [--rcvbuf=BYTES]\n"
               "         [--metrics=FILE] [--trace=FILE] [--stats]\n"
               "         [--profile=FILE] [--http-port=P] [--event-cap=N]\n"
               "algorithms (distributed-capable registry entries):\n"
            << algo::names_listing(/*scalable_only=*/true);
  return 2;
}

/// The resolved run: the registry spec and its parameters, and either the
/// materialized instance or the generator spec the in-situ path runs.
struct RankPlan {
  const algo::Spec* spec = nullptr;
  algo::Params params;
  tools::Instance instance;
  /// Set for --gen without --materialize: net::run_insitu generates each
  /// rank's range, nothing of the instance is materialized in this process.
  std::optional<graph::GenSpec> insitu;
};

const std::vector<std::string> kRankFlags = {
    "input",  "graph",  "gen",    "materialize", "hosts", "rank",
    "local",  "algo",   "seed",   "param",       "sndbuf", "rcvbuf",
    "metrics", "trace", "stats",  "http-port",   "event-cap", "profile",
};

RankPlan resolve(const Options& opts) {
  tools::reject_unknown_flags(opts, kRankFlags);
  RankPlan plan;
  plan.spec = &algo::find(opts.get("algo", "mis"));
  DS_CHECK_MSG(plan.spec->capability == algo::Capability::kAnyRuntime,
               "algorithm '" + plan.spec->name +
                   "' is sequential-only and cannot run on a rank fleet");
  plan.params = algo::Params::parse(
      plan.spec->params, algo::parse_param_overrides(opts.get_all("param")));
  // --materialize: the RSS-comparison control / fallback path — the whole
  // instance, generated in this process, through the classic executors.
  if (tools::instance_source(opts) != tools::Source::kGen ||
      opts.has("materialize")) {
    plan.instance = tools::load_instance(opts, plan.spec);
    return plan;
  }
  DS_CHECK_MSG(plan.spec->insitu != nullptr,
               "--gen without --materialize runs in-situ, and "
               "algorithm '" + plan.spec->name +
                   "' has no in-situ hooks (add --materialize)");
  DS_CHECK_MSG(plan.spec->input == algo::InputKind::kGeneralGraph,
               "in-situ: --algo=" + plan.spec->name +
                   " consumes a bipartite instance; the scale path "
                   "runs general-graph specs only (add --materialize)");
  plan.insitu = graph::GenSpec::parse(opts.get("gen", ""));
  return plan;
}

/// One rank's full run: build this rank's executor factory and execute the
/// registry spec through it. Returns the process exit code.
int run_rank(const RankPlan& plan, const Options& opts,
             net::LoopbackRank&& self) {
  const std::size_t nranks = self.hosts.size();
  const std::string runtime = (plan.insitu ? "insitu-tcp(" : "tcp(") +
                              std::to_string(nranks) + " ranks)";
  tools::ObsSession obs(opts, "distsplit_rank",
                        {{"algo", plan.spec->name},
                         {"runtime", runtime},
                         {"seed", std::to_string(opts.seed())}},
                        self.rank, nranks);
  obs::Recorder* const rec = obs.recorder();
  obs.started(plan.spec->name);
  std::string brief;
  if (plan.insitu) {
    // Scale path: nothing of the instance exists yet in this process; the
    // runner generates this rank's range behind the rendezvous.
    net::InsituConfig config;
    config.rank = self.rank;
    config.hosts = std::move(self.hosts);
    config.transport = tools::tcp_options(opts);
    config.listen = std::move(self.listen);
    brief = net::run_insitu(*plan.spec, plan.params, opts.seed(),
                            *plan.insitu, std::move(config), rec)
                .brief();
  } else {
    algo::RunContext ctx;
    ctx.seed = opts.seed();
    ctx.params = plan.params;
    ctx.sequential_runtime = false;
    ctx.recorder = rec;
    ctx.factory = [&](const graph::Graph& fg, local::IdStrategy strategy,
                      std::uint64_t seed) -> std::unique_ptr<local::Executor> {
      net::TcpNetworkConfig config;
      config.rank = self.rank;
      config.hosts = self.hosts;
      config.transport = tools::tcp_options(opts);
      // The pre-bound socket (loopback mode) only serves the first
      // executor; a later one rebinds the known port itself.
      config.listen = std::move(self.listen);
      auto exec = std::make_unique<net::TcpNetwork>(fg, strategy, seed,
                                                    std::move(config));
      exec->set_recorder(rec);
      return exec;
    };
    plan.instance.attach(*plan.spec, ctx);
    brief = algo::execute(*plan.spec, ctx).brief();
  }
  obs.finished(/*ok=*/true);
  // Explicit flush: loopback child ranks leave via _exit, skipping stdio
  // teardown, and their summary must not die in a buffer with them.
  std::cout << obs.prefix() << plan.spec->name << ": " << brief << std::endl;
  obs.write_outputs();
  if (serve::shutdown_requested()) {
    // The latch swallowed a SIGINT/SIGTERM so the collectives could finish
    // instead of tearing the fleet mid-exchange; the run is complete, so a
    // clean exit 0 is the graceful answer.
    std::cout << obs.prefix()
              << "shutdown requested; exiting after the in-flight run"
              << std::endl;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Latch SIGINT/SIGTERM instead of dying mid-collective: an interrupted
    // rank would otherwise tear the whole fleet down as a peer-lost abort.
    serve::install_shutdown_handler();
    // Options skips argv[0] itself; this tool has no subcommand word.
    const Options opts(argc, argv);
    // Resolved (and materialized) once, before --local forks the ranks.
    const RankPlan plan = resolve(opts);
    return tools::run_fleet(opts, usage, [&](net::LoopbackRank&& self) {
      return run_rank(plan, opts, std::move(self));
    });
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
