/// \file distsplit_rank.cpp
/// Multi-host rank launcher: runs one rank of a TCP-distributed LOCAL
/// algorithm (or, with --local=N, a whole loopback fleet on this machine —
/// the quickest way to smoke-test the wire path without a cluster). The
/// algorithm is any distributed-capable entry of the algorithm registry
/// (`distsplit_cli list`); there is no per-algorithm code in this tool.
///
/// Multi-host usage — run once per hosts-file line, anywhere the hosts
/// resolve, in any order (the rendezvous retries until the fleet is up):
///
///     distsplit_rank --hosts=hosts.txt --rank=R
///         (--input=graph.txt | --graph=FILE.dsg | --gen=SPEC)
///         [--materialize] [--algo=NAME] [--seed=S] [--param=key=value ...]
///         [--sndbuf=BYTES] [--rcvbuf=BYTES]
///         [--metrics=FILE] [--trace=FILE] [--stats]
///         [--profile=FILE] [--http-port=P] [--event-cap=N]
///
/// Input sources: --input reads a text edge list, --graph maps a packed
/// .dsg file read-only in O(1) (fork-shared by loopback ranks), and --gen
/// names a deterministic generator instance ("torus:w=2240,h=2240", see
/// graph/insitu.hpp). --gen runs the billion-edge *in-situ scale path* by
/// default: every rank generates only its own node range and no process
/// ever materializes the whole topology (net/insitu_runner.hpp). With
/// --materialize the same instance is fully generated in memory and run
/// through the classic path instead — the RSS-comparison control, and the
/// fallback for algorithms without in-situ hooks.
///
/// Observability: --metrics/--trace/--stats instrument the run (see
/// src/obs/). Every rank merges the whole fleet's drained blocks through
/// the gather re-broadcast, but only rank 0 writes the files / prints the
/// table — in loopback mode all ranks share a working directory and the
/// children would clobber the same paths. --profile=FILE starts a sampling
/// flame-graph profiler on every rank (loopback children start their own
/// after the fork); the folded stacks ride the same gather, so the file
/// rank 0 writes covers the whole fleet, each stack prefixed `rank:R`.
///
/// Live introspection: --http-port=P serves /metrics (Prometheus),
/// /status (HTML), /healthz and /api/v1/snapshot on every rank while the
/// run is in flight (implies observing). Rank r binds P+r, so a loopback
/// fleet's ranks coexist on one host; P=0 binds kernel-assigned ports,
/// printed at startup. --event-cap=N bounds the trace flight recorder.
///
/// hosts.txt: one `host port` per line, line i = rank i; `#` comments and
/// blank lines ignored. Every rank must name the same instance, seed and
/// algorithm — the rendezvous digest handshake rejects mismatched launches.
///
/// Loopback mode — spawns all N ranks as processes on 127.0.0.1 with
/// kernel-assigned ports (rank 0 in this process):
///
///     distsplit_rank --local=N --input=graph.txt [--algo=...] [--seed=S]
///
/// Results are gathered to rank 0 and re-broadcast, so every rank prints
/// the same summary (prefixed with its rank). Exit code 0 on success, 2 on
/// a failed run (abort, dead peer, bad usage).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "graph/bipartite.hpp"
#include "graph/format.hpp"
#include "graph/graph.hpp"
#include "graph/insitu.hpp"
#include "graph/io.hpp"
#include "local/executor.hpp"
#include "net/insitu_runner.hpp"
#include "net/loopback.hpp"
#include "net/socket.hpp"
#include "net/tcp_network.hpp"
#include "obs/exposition.hpp"
#include "obs/http_server.hpp"
#include "obs/profile.hpp"
#include "obs/publish.hpp"
#include "obs/recorder.hpp"
#include "serve/signal.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/provenance.hpp"

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

/// Resolves --algo and --param against the registry; bipartite-input specs
/// read the input file in the bipartite format, general ones as an edge
/// list.
struct RankPlan {
  const algo::Spec* spec = nullptr;
  algo::Params params;
  graph::Graph graph;
  graph::BipartiteGraph bipartite;
  /// True: --gen without --materialize — run net::run_insitu, nothing of
  /// the instance is materialized in this process.
  bool insitu = false;
  graph::GenSpec gen;
};

/// The flags this launcher understands itself; anything else must be an
/// algorithm parameter passed as --param=key=value (silently dropping a
/// typo'd or stale flag would change the run's meaning).
const std::vector<std::string> kRankFlags = {
    "input",  "graph",  "gen",    "materialize", "hosts", "rank",
    "local",  "algo",   "seed",   "param",       "sndbuf", "rcvbuf",
    "metrics", "trace", "stats",  "http-port",   "event-cap", "profile",
};

RankPlan resolve(const Options& opts) {
  for (const std::string& key : opts.keys()) {
    if (std::find(kRankFlags.begin(), kRankFlags.end(), key) !=
        kRankFlags.end()) {
      continue;
    }
    std::string msg = "unknown flag '--" + key + "'";
    const std::string hint = algo::suggest(key, kRankFlags);
    if (!hint.empty()) msg += "; did you mean '--" + hint + "'?";
    msg += " (algorithm parameters go through --param=key=value)";
    DS_CHECK_MSG(false, msg);
  }
  RankPlan plan;
  plan.spec = &algo::find(opts.get("algo", "mis"));
  DS_CHECK_MSG(plan.spec->capability == algo::Capability::kAnyRuntime,
               "algorithm '" + plan.spec->name +
                   "' is sequential-only and cannot run on a rank fleet");
  plan.params = algo::Params::parse(
      plan.spec->params, algo::parse_param_overrides(opts.get_all("param")));

  const std::string path = opts.get("input", "");
  const std::string dsg_path = opts.get("graph", "");
  const std::string gen_text = opts.get("gen", "");
  const int sources = static_cast<int>(!path.empty()) +
                      static_cast<int>(!dsg_path.empty()) +
                      static_cast<int>(!gen_text.empty());
  DS_CHECK_MSG(sources == 1,
               "exactly one of --input=FILE, --graph=FILE.dsg or --gen=SPEC "
               "is required");
  const bool general = plan.spec->input == algo::InputKind::kGeneralGraph;
  if (!gen_text.empty()) {
    plan.gen = graph::GenSpec::parse(gen_text);
    if (opts.has("materialize")) {
      // RSS-comparison control / fallback path: the whole instance, fully
      // generated in this process, through the classic executors.
      const graph::DistributedGenerator dg(plan.gen, opts.seed());
      if (general) {
        plan.graph = dg.generate_full();
      } else {
        DS_CHECK_MSG(dg.num_left() > 0,
                     "--algo=" + plan.spec->name +
                         " needs a bipartite instance; only the biregular "
                         "family carries a left/right split");
        plan.bipartite =
            graph::bipartite_from_unified(dg.generate_full(), dg.num_left());
      }
    } else {
      DS_CHECK_MSG(plan.spec->insitu != nullptr,
                   "--gen without --materialize runs in-situ, and "
                   "algorithm '" + plan.spec->name +
                       "' has no in-situ hooks (add --materialize)");
      DS_CHECK_MSG(general,
                   "in-situ: --algo=" + plan.spec->name +
                       " consumes a bipartite instance; the scale path "
                       "runs general-graph specs only (add --materialize)");
      plan.insitu = true;
    }
  } else if (!dsg_path.empty()) {
    graph::DsgHeader header;
    graph::Graph unified = graph::load_dsg(dsg_path, &header);
    if (general) {
      plan.graph = std::move(unified);
    } else {
      DS_CHECK_MSG(header.nu > 0,
                   "--algo=" + plan.spec->name +
                       " needs a bipartite instance, but " + dsg_path +
                       " carries no left/right split");
      plan.bipartite = graph::bipartite_from_unified(
          unified, static_cast<std::size_t>(header.nu));
    }
  } else {
    std::ifstream in(path);
    DS_CHECK_MSG(in.good(), "cannot open input file: " + path);
    if (general) {
      plan.graph = graph::io::read_edge_list(in);
    } else {
      plan.bipartite = graph::io::read_bipartite(in);
    }
  }
  return plan;
}

net::TcpOptions transport_options(const Options& opts) {
  net::TcpOptions topts;
  topts.sndbuf_bytes = static_cast<int>(opts.get_int("sndbuf", 0));
  topts.rcvbuf_bytes = static_cast<int>(opts.get_int("rcvbuf", 0));
  return topts;
}

/// One rank's full run: build this rank's executor factory and execute the
/// registry spec through it. Returns the process exit code.
int run_rank(const RankPlan& plan, const Options& opts, std::size_t rank,
             std::vector<net::Endpoint> hosts, net::Socket listen) {
  const std::size_t nranks = hosts.size();
  net::Socket* first_listen = &listen;
  // The live endpoints need the instruments: --http-port implies observing.
  const bool observe = opts.has("metrics") || opts.has("trace") ||
                       opts.has("stats") || opts.has("http-port") ||
                       opts.has("profile");
  obs::Recorder recorder;
  obs::Recorder* const rec = observe ? &recorder : nullptr;
  if (rec != nullptr) {
    rec->set_lane(static_cast<std::uint32_t>(rank));
    if (opts.has("event-cap")) {
      rec->set_event_capacity(
          static_cast<std::size_t>(opts.get_int("event-cap", 0)));
    }
  }
  // Per-rank sampling profiler. run_rank executes after the loopback fork,
  // so every rank (parent and children alike) arms its own timer; the
  // folded stacks ride the gather and only rank 0 writes the merged file.
  std::unique_ptr<obs::SampledProfiler> profiler;
  if (opts.has("profile")) {
    profiler = std::make_unique<obs::SampledProfiler>();
    rec->set_profiler(profiler.get());
    if (!profiler->start()) {
      std::cout << "[rank " << rank << "/" << nranks
                << "] profile: sampling unavailable (" << profiler->error()
                << ")" << std::endl;
    }
  }
  // Live introspection: every rank serves its own endpoints. A base port P
  // maps rank r to P+r (loopback ranks share one host); P=0 lets the
  // kernel pick, printed below. Declared before the server so the server
  // (a publisher reader) is torn down first.
  obs::SnapshotPublisher publisher;
  std::unique_ptr<obs::HttpServer> http;
  if (opts.has("http-port")) {
    rec->set_publisher(&publisher);
    std::vector<std::pair<std::string, std::string>> info = {
        {"tool", "distsplit_rank"},
        {"algo", plan.spec->name},
        {"runtime", std::string(plan.insitu ? "insitu-tcp(" : "tcp(") +
                        std::to_string(nranks) + " ranks)"},
        {"rank", std::to_string(rank)},
        {"seed", std::to_string(opts.seed())},
    };
    for (const auto& kv : Provenance::get().context()) info.push_back(kv);
    publisher.set_info(std::move(info));
    if (profiler != nullptr) {
      // Live view of this rank's own ring (the merged fleet profile only
      // exists after the end-of-run gather); reads without draining.
      obs::SampledProfiler* const prof = profiler.get();
      const std::string prefix =
          rec->lane_kind() + ":" + std::to_string(rec->lane());
      publisher.set_profile_source([prof, prefix] {
        std::ostringstream folded;
        obs::SampledProfiler::write_folded(folded,
                                           prof->collect_folded(prefix));
        return folded.str();
      });
    }
    const auto base = opts.get_int("http-port", 0);
    http = std::make_unique<obs::HttpServer>(
        publisher,
        static_cast<std::uint16_t>(base == 0 ? 0 : base + rank));
    std::cout << "[rank " << rank << "/" << nranks
              << "] http: listening on port " << http->port()
              << " (/metrics /status /healthz /api/v1/snapshot)" << std::endl;
    publisher.run_started(plan.spec->name);
  }
  std::string brief;
  try {
  if (plan.insitu) {
    // Scale path: nothing of the instance exists yet in this process; the
    // runner generates this rank's range behind the rendezvous.
    net::InsituConfig config;
    config.rank = rank;
    config.hosts = std::move(hosts);
    config.transport = transport_options(opts);
    config.listen = std::move(listen);
    brief = net::run_insitu(*plan.spec, plan.params, opts.seed(), plan.gen,
                            std::move(config), rec)
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
      config.rank = rank;
      config.hosts = hosts;
      config.transport = transport_options(opts);
      // The pre-bound socket (loopback mode) only serves the first
      // executor; a later one rebinds the known port itself.
      config.listen = std::move(*first_listen);
      auto exec = std::make_unique<net::TcpNetwork>(fg, strategy, seed,
                                                    std::move(config));
      exec->set_recorder(rec);
      return exec;
    };
    if (plan.spec->input == algo::InputKind::kGeneralGraph) {
      ctx.graph = &plan.graph;
    } else {
      ctx.bipartite = &plan.bipartite;
    }
    brief = algo::execute(*plan.spec, ctx).brief();
  }
  } catch (...) {
    // /healthz must answer 503 on this rank even when the abort originated
    // here (the transport only flips peers' health via the kAbort frame).
    if (http != nullptr) publisher.run_finished(/*ok=*/false);
    throw;
  }
  if (http != nullptr) publisher.run_finished(/*ok=*/true);
  // Explicit flush: loopback child ranks leave via _exit, skipping stdio
  // teardown, and their summary must not die in a buffer with them.
  std::cout << "[rank " << rank << "/" << nranks << "] " << plan.spec->name
            << ": " << brief << std::endl;
  if (profiler != nullptr) profiler->stop();
  // Every rank merged the fleet's observability blocks, but only rank 0
  // writes — loopback children would clobber the same paths.
  if (rec != nullptr && rank == 0) {
    const std::string metrics_path = opts.get("metrics", "");
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      DS_CHECK_MSG(out.good(),
                   "cannot open metrics output file: " + metrics_path);
      std::vector<std::pair<std::string, std::string>> context = {
          {"algo", plan.spec->name},
          {"runtime", std::string(plan.insitu ? "insitu-tcp(" : "tcp(") +
                          std::to_string(nranks) + " ranks)"},
          {"seed", std::to_string(opts.seed())}};
      for (const auto& kv : Provenance::get().context()) {
        context.push_back(kv);
      }
      obs::write_metrics_json(out, context, rec->metrics().snapshot());
      out.flush();
      DS_CHECK_MSG(out.good(),
                   "failed writing metrics output file: " + metrics_path);
    }
    const std::string trace_path = opts.get("trace", "");
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      DS_CHECK_MSG(out.good(), "cannot open trace output file: " + trace_path);
      rec->write_trace_json(out);
      out.flush();
      DS_CHECK_MSG(out.good(),
                   "failed writing trace output file: " + trace_path);
    }
    const std::string profile_path = opts.get("profile", "");
    if (!profile_path.empty()) {
      // The gather already merged every rank's drained folded stacks; this
      // absorbs rank 0's own post-gather tail samples on top.
      rec->absorb_profiler();
      std::ofstream out(profile_path);
      DS_CHECK_MSG(out.good(),
                   "cannot open profile output file: " + profile_path);
      rec->write_folded(out);
      out.flush();
      DS_CHECK_MSG(out.good(),
                   "failed writing profile output file: " + profile_path);
      std::cout << "[rank " << rank << "/" << nranks << "] profile: "
                << profile_path << " (" << rec->folded().size()
                << " stacks)" << std::endl;
    }
    if (opts.has("stats")) {
      rec->write_stats_table(std::cout);
      std::cout.flush();
    }
  }
  if (serve::shutdown_requested()) {
    // The latch swallowed a SIGINT/SIGTERM so the collectives could finish
    // instead of tearing the fleet mid-exchange; the run is complete, so a
    // clean exit 0 is the graceful answer.
    std::cout << "[rank " << rank << "/" << nranks
              << "] shutdown requested; exiting after the in-flight run"
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
    const auto local = opts.get_int("local", 0);
    const RankPlan plan = resolve(opts);
    if (local > 0) {
      // Loopback fleet: forked ranks on kernel-assigned 127.0.0.1 ports.
      const auto report = net::run_loopback_ranks(
          static_cast<std::size_t>(local), [&](net::LoopbackRank&& lr) {
            return run_rank(plan, opts, lr.rank, std::move(lr.hosts),
                            std::move(lr.listen));
          });
      if (!report.all_ok()) {
        std::cerr << "error: a rank failed (rank 0 -> " << report.rank0;
        for (std::size_t r = 0; r < report.peer_exit_codes.size(); ++r) {
          std::cerr << ", rank " << (r + 1) << " -> "
                    << report.peer_exit_codes[r];
        }
        std::cerr << ")\n";
        return 2;
      }
      return 0;
    }
    const std::string hosts_path = opts.get("hosts", "");
    if (hosts_path.empty()) return usage();
    const auto hosts = net::read_hosts_file(hosts_path);
    const auto rank = static_cast<std::size_t>(opts.get_int("rank", 0));
    DS_CHECK_MSG(rank < hosts.size(),
                 "--rank must be < the hosts file size (" +
                     std::to_string(hosts.size()) + ")");
    return run_rank(plan, opts, rank, hosts, net::Socket{});
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
