/// \file distsplit_cli.cpp
/// Command-line front end of the library, for downstream users who want to
/// run the solvers on their own instances without writing C++.
///
/// Subcommands (first positional argument):
///   gen      --nu=N --nv=N --delta=D [--seed=S] [--unified] [--out=F.dsg]
///            Generate a random (δ, r)-biregular bipartite instance and
///            write it to stdout in the edge-list format of graph/io.hpp
///            (--unified: the unified general graph instead, for the
///            general-input algorithms; --out: the packed binary .dsg
///            format instead of stdout, bipartite split recorded).
///   pack     (--gen=SPEC [--seed=S] | --input=FILE) --out=FILE.dsg
///            Pack an instance into the mmap-able binary CSR format of
///            graph/format.hpp: either a deterministic generator instance
///            ("torus:w=64,h=64", see graph/insitu.hpp for the families)
///            or an edge-list file. The written file is re-opened and its
///            payload digest verified before reporting success.
///   stats    --input=FILE
///            Print instance parameters (n, m, δ, Δ, r, girth).
///   list     [--names] [--scalable] [--markdown]
///            The algorithm catalog, straight from the registry: the
///            human-readable form, a machine-readable name listing for
///            scripts/CI, or the README markdown table.
///   run      --algo=NAME (--input=FILE | --graph=FILE.dsg | --gen=SPEC)
///            [--seed=S] [--param=key=value ...]
///            [--metrics=FILE] [--trace=FILE] [--stats]
///            [--profile=FILE] [--http-port=P] [--event-cap=N]
///            + the runtime flags below
///            Run any registered algorithm on any runtime. Dispatch, usage
///            text and parameter help all come from the registry — there
///            is no per-algorithm code in this tool. The observability
///            flags instrument the run: --metrics writes the aggregated
///            counter/histogram snapshot as JSON, --trace writes a Chrome
///            trace (open in Perfetto), --stats prints a summary table,
///            --profile writes the run's sampled flame-graph profile as
///            collapsed/folded stacks (flamegraph.pl / speedscope input).
///            On the distributed runtimes the recorder merges every
///            rank's drained block, so the files hold fleet-wide data.
///            --http-port=P serves live introspection while the run is in
///            flight (/metrics /status /healthz /api/v1/snapshot; P=0
///            binds an ephemeral port, printed at startup) and implies
///            observing; --event-cap=N bounds the trace flight recorder.
///            Input sources: --input reads a text edge list, --graph maps
///            a packed .dsg file read-only in O(1), --gen materializes a
///            generator instance in memory.
///   submit   --port=P [--host=H] --algo=NAME [--seed=S]
///            [--param=key=value ...] [--id=N] [--timeout-ms=MS]
///            Submit one run to a resident distsplit_serve daemon's request
///            port and print its answer. The daemon executes over its
///            standing fleet; for any scalable spec the reported
///            output-digest is bit-identical to the one-shot `run` on the
///            same (instance, seed, params). Exit 0 on a served run, 3 on a
///            rejection (queue full, draining, unhealthy fleet — retry
///            later), 2 on an error.
///
/// Exit code 0 on success, 1 on bad usage (unknown subcommand, algorithm,
/// flag or parameter — with a did-you-mean suggestion where possible) or a
/// rejected/corrupt .dsg file (versioned-magic validation names the byte
/// that failed), 2 on an execution failure (I/O, solver rejection, aborted
/// fleet), 3 on a rejected `submit`.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "dist/distributed_network.hpp"
#include "graph/format.hpp"
#include "graph/generators.hpp"
#include "graph/insitu.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "net/socket.hpp"
#include "obs/exposition.hpp"
#include "obs/http_server.hpp"
#include "obs/profile.hpp"
#include "obs/publish.hpp"
#include "obs/recorder.hpp"
#include "runtime/select.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/provenance.hpp"

namespace {

using namespace ds;

int usage() {
  std::cerr
      << "usage: distsplit_cli <gen|pack|stats|list|run|submit> "
         "[--key=value...]\n"
         "  gen    --nu=N --nv=N --delta=D [--seed=S] [--unified] "
         "[--out=F.dsg]\n"
         "  pack   (--gen=SPEC [--seed=S] | --input=FILE) --out=FILE.dsg\n"
         "  stats  --input=FILE\n"
         "  list   [--names] [--scalable] [--markdown]\n"
         "  run    --algo=NAME (--input=FILE | --graph=FILE.dsg | "
         "--gen=SPEC)\n"
         "         [--seed=S] [--param=key=value ...]\n"
         "         [--metrics=FILE] [--trace=FILE] [--stats]\n"
         "         [--profile=FILE] [--http-port=P] [--event-cap=N]\n"
         "         "
      << runtime::kRuntimeFlagsHelp
      << "\n  submit --port=P [--host=H] --algo=NAME [--seed=S] "
         "[--param=key=value ...]\n"
         "         [--id=N] [--timeout-ms=MS]"
      << "\n\nregistered algorithms (see also: distsplit_cli list):\n"
      << algo::usage_catalog();
  return 1;
}

graph::BipartiteGraph load_bipartite(const Options& opts) {
  const std::string path = opts.get("input", "");
  DS_CHECK_MSG(!path.empty(), "--input=FILE is required");
  std::ifstream in(path);
  DS_CHECK_MSG(in.good(), "cannot open input file: " + path);
  return graph::io::read_bipartite(in);
}

graph::Graph load_graph(const Options& opts) {
  const std::string path = opts.get("input", "");
  DS_CHECK_MSG(!path.empty(), "--input=FILE is required");
  std::ifstream in(path);
  DS_CHECK_MSG(in.good(), "cannot open input file: " + path);
  return graph::io::read_edge_list(in);
}

int cmd_gen(const Options& opts) {
  const auto nu = static_cast<std::size_t>(opts.get_int("nu", 256));
  const auto nv = static_cast<std::size_t>(opts.get_int("nv", 256));
  const auto delta = static_cast<std::size_t>(opts.get_int("delta", 16));
  Rng rng(opts.seed());
  // Right degrees (the rank) follow from nu*delta/nv; pick nv accordingly.
  const auto b = graph::gen::random_biregular(nu, nv, delta, rng);
  const std::string out = opts.get("out", "");
  if (!out.empty()) {
    // Packed binary form of the unified instance; the left-side size in the
    // header lets bipartite-input consumers recover the split.
    graph::write_dsg(b.unified(), out, b.num_left(), opts.seed());
    std::cout << "packed: " << out << " (n="
              << (b.num_left() + b.num_right()) << ", m=" << b.num_edges()
              << ", nu=" << b.num_left() << ")\n";
    return 0;
  }
  if (opts.has("unified")) {
    // General-graph edge list of the unified instance, consumable by the
    // general-input algorithms (`run --algo=mis` etc.).
    graph::io::write_edge_list(std::cout, b.unified());
  } else {
    graph::io::write_bipartite(std::cout, b);
  }
  return 0;
}

int cmd_pack(const Options& opts) {
  const std::string out = opts.get("out", "");
  DS_CHECK_MSG(!out.empty(), "--out=FILE.dsg is required");
  const std::string gen = opts.get("gen", "");
  if (!gen.empty()) {
    const graph::DistributedGenerator dg(graph::GenSpec::parse(gen),
                                         opts.seed());
    graph::write_dsg(dg.generate_full(), out, dg.num_left(), dg.seed());
  } else {
    graph::write_dsg(load_graph(opts), out, /*nu=*/0, opts.seed());
  }
  // Read-back verification: mmap the file we just wrote and check the
  // payload digest, so a pack that silently truncated cannot enter a CI
  // fixture cache looking healthy.
  graph::DsgHeader header;
  (void)graph::load_dsg(out, &header, /*verify_digest=*/true);
  std::cout << "packed: " << out << " (n=" << header.n << ", m=" << header.m
            << ", nu=" << header.nu << ", digest=0x" << std::hex
            << header.payload_digest << std::dec << ")\n";
  return 0;
}

int cmd_stats(const Options& opts) {
  const auto b = load_bipartite(opts);
  std::cout << "left nodes (U):   " << b.num_left() << "\n"
            << "right nodes (V):  " << b.num_right() << "\n"
            << "edges:            " << b.num_edges() << "\n"
            << "min left degree:  " << b.min_left_degree() << "\n"
            << "max left degree:  " << b.max_left_degree() << "\n"
            << "rank r:           " << b.rank() << "\n"
            << "girth:            ";
  const std::size_t girth = graph::girth(b.unified());
  if (girth == SIZE_MAX) {
    std::cout << "inf (forest)\n";
  } else {
    std::cout << girth << "\n";
  }
  return 0;
}

int cmd_list(const Options& opts) {
  if (opts.has("markdown")) {
    std::cout << algo::catalog_markdown();
  } else if (opts.has("names")) {
    std::cout << algo::names_listing(opts.has("scalable"));
  } else {
    std::cout << algo::usage_catalog(opts.has("scalable"));
  }
  return 0;
}

/// The `submit` flags (everything else must be an algorithm parameter
/// passed as --param=key=value — the daemon validates them server-side).
const std::vector<std::string> kSubmitFlags = {
    "host", "port", "algo", "seed", "param", "id", "timeout-ms",
};

int cmd_submit(const Options& opts) {
  for (const std::string& key : opts.keys()) {
    if (std::find(kSubmitFlags.begin(), kSubmitFlags.end(), key) !=
        kSubmitFlags.end()) {
      continue;
    }
    std::string msg = "unknown flag '--" + key + "'";
    const std::string hint = algo::suggest(key, kSubmitFlags);
    if (!hint.empty()) msg += "; did you mean '--" + hint + "'?";
    msg += " (algorithm parameters go through --param=key=value)";
    DS_CHECK_MSG(false, msg);
  }
  serve::ClientConfig config;
  config.host = opts.get("host", "127.0.0.1");
  const long long port = opts.get_int("port", 0);
  DS_CHECK_MSG(port > 0 && port <= 65535,
               "--port=P (the daemon's request port) is required");
  config.port = static_cast<std::uint16_t>(port);
  config.timeout_ms = static_cast<int>(opts.get_int("timeout-ms", 120000));

  serve::Request request;
  request.algo = opts.get("algo", "");
  DS_CHECK_MSG(!request.algo.empty(),
               "--algo=NAME is required (see: distsplit_cli list)");
  request.seed = opts.seed();
  request.id = static_cast<std::uint64_t>(opts.get_int("id", 1));
  request.params = algo::parse_param_overrides(opts.get_all("param"));

  const serve::Response response = serve::submit(config, request);
  switch (response.status) {
    case serve::Status::kOk:
      // The same digest line the one-shot `run` prints, so serving can be
      // diffed against it byte-for-byte.
      std::cout << request.algo << ": " << response.brief << "\n"
                << "rounds: " << response.rounds << "\n"
                << "wall-us: " << response.wall_us << "\n"
                << "output-digest: " << std::hex << response.output_digest
                << std::dec << "\n";
      return 0;
    case serve::Status::kRejected:
      std::cerr << "submit rejected: " << response.brief << "\n";
      return 3;
    case serve::Status::kError:
      break;
  }
  std::cerr << "submit failed: " << response.brief << "\n";
  return 2;
}

/// The `run` flags that belong to the driver itself (everything else must
/// be a registered algorithm parameter passed as --param=key=value).
const std::vector<std::string> kRunFlags = {
    "algo",       "input",   "graph",      "gen",          "seed",
    "param",      "runtime", "threads",    "workers",      "halo-words",
    "gather-words", "rank",  "ranks",      "hosts",        "sndbuf",
    "rcvbuf",     "metrics", "trace",      "stats",        "http-port",
    "event-cap",  "profile",
};

/// Resolution phase of `run`: anything wrong here is a usage error (exit
/// 1). Throws ds::CheckError with a did-you-mean suggestion on unknown
/// flags, algorithm names and parameter keys.
struct RunPlan {
  const algo::Spec* spec = nullptr;
  algo::Params params;
  runtime::RuntimeConfig runtime;
};

RunPlan resolve_run(const Options& opts) {
  for (const std::string& key : opts.keys()) {
    if (std::find(kRunFlags.begin(), kRunFlags.end(), key) !=
        kRunFlags.end()) {
      continue;
    }
    std::string msg = "unknown flag '--" + key + "'";
    const std::string hint = algo::suggest(key, kRunFlags);
    if (!hint.empty()) msg += "; did you mean '--" + hint + "'?";
    msg += " (algorithm parameters go through --param=key=value)";
    DS_CHECK_MSG(false, msg);
  }
  RunPlan plan;
  const std::string name = opts.get("algo", "");
  DS_CHECK_MSG(!name.empty(), "--algo=NAME is required (see: list)");
  plan.spec = &algo::find(name);
  plan.params = algo::Params::parse(
      plan.spec->params, algo::parse_param_overrides(opts.get_all("param")));
  plan.runtime = runtime::runtime_from_options(opts);
  return plan;
}

/// Edge-cut stats of the partition the distributed executors actually ran
/// — a pure function of the CSR degree profile and the part count.
void print_partition_stats(const graph::Graph& g, std::size_t parts) {
  const auto bounds = dist::degree_balanced_boundaries(g.offsets(), parts);
  const dist::PartitionStats stats =
      dist::partition_stats(g, g.offsets(), bounds);
  std::cout << "partition: " << stats.cut_edges << " cut edges, "
            << stats.internal_edges << " internal, balance "
            << stats.balance_factor << "\n";
}

/// Writes `body(out)` to `path`, failing loudly on I/O errors.
template <typename Body>
void write_file(const std::string& path, const char* what, Body body) {
  std::ofstream out(path);
  DS_CHECK_MSG(out.good(), std::string("cannot open ") + what +
                               " output file: " + path);
  body(out);
  out.flush();
  DS_CHECK_MSG(out.good(), std::string("failed writing ") + what +
                               " output file: " + path);
}

int cmd_run(const RunPlan& plan, const Options& opts) {
  const algo::Spec& spec = *plan.spec;
  // Observability: one recorder for the whole run when any of
  // --metrics/--trace/--stats/--http-port asks for it; the factory installs
  // it on the executor and `execute` snapshots it into the result. The live
  // endpoints need the instruments, so --http-port implies observing.
  const bool observe = opts.has("metrics") || opts.has("trace") ||
                       opts.has("stats") || opts.has("http-port") ||
                       opts.has("profile");
  obs::Recorder recorder;
  obs::Recorder* const rec = observe ? &recorder : nullptr;
  if (rec != nullptr && opts.has("event-cap")) {
    rec->set_event_capacity(
        static_cast<std::size_t>(opts.get_int("event-cap", 0)));
  }
  // Sampling profiler: attached to the recorder so the fleet gather merges
  // every lane's folded stacks. A refused timer/handler degrades to a
  // logged notice and an empty profile, never a failed run.
  std::unique_ptr<obs::SampledProfiler> profiler;
  if (opts.has("profile")) {
    profiler = std::make_unique<obs::SampledProfiler>();
    rec->set_profiler(profiler.get());
    if (!profiler->start()) {
      std::cout << "profile: sampling unavailable (" << profiler->error()
                << ")\n";
    }
  }
  // Live introspection: the round loop publishes seqlock snapshots at round
  // boundaries; the HTTP thread only ever reads the publisher. Declared
  // before the server so the server (a reader) is torn down first.
  obs::SnapshotPublisher publisher;
  std::unique_ptr<obs::HttpServer> http;
  if (opts.has("http-port")) {
    rec->set_publisher(&publisher);
    std::vector<std::pair<std::string, std::string>> info = {
        {"tool", "distsplit_cli"},
        {"algo", spec.name},
        {"runtime", runtime::runtime_description(plan.runtime)},
        {"seed", std::to_string(opts.seed())},
    };
    for (const auto& kv : Provenance::get().context()) info.push_back(kv);
    publisher.set_info(std::move(info));
    if (profiler != nullptr) {
      // Live profile endpoint: reads the ring without draining it, so the
      // final written file still carries the full run.
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
    http = std::make_unique<obs::HttpServer>(
        publisher,
        static_cast<std::uint16_t>(opts.get_int("http-port", 0)));
    std::cout << "http: listening on port " << http->port()
              << " (/metrics /status /healthz /api/v1/snapshot"
              << (profiler != nullptr ? " /api/v1/profile" : "") << ")"
              << std::endl;
  }
  algo::RunContext ctx;
  ctx.seed = opts.seed();
  ctx.params = plan.params;
  ctx.factory = runtime::make_executor_factory(plan.runtime, {}, rec);
  ctx.sequential_runtime = runtime::is_sequential(plan.runtime);
  ctx.recorder = rec;

  // Input source: a text edge list (--input), a packed .dsg mapped
  // read-only in O(1) (--graph), or an in-memory generator instance
  // (--gen). Bipartite-input specs recover the split from the .dsg header
  // / generator left-side size.
  const std::string dsg_path = opts.get("graph", "");
  const std::string gen_text = opts.get("gen", "");
  const int sources = static_cast<int>(!opts.get("input", "").empty()) +
                      static_cast<int>(!dsg_path.empty()) +
                      static_cast<int>(!gen_text.empty());
  DS_CHECK_MSG(sources == 1,
               "exactly one of --input=FILE, --graph=FILE.dsg or --gen=SPEC "
               "is required");
  graph::Graph g;
  graph::BipartiteGraph b;
  std::size_t nu = 0;
  if (!dsg_path.empty()) {
    graph::DsgHeader header;
    g = graph::load_dsg(dsg_path, &header);
    nu = static_cast<std::size_t>(header.nu);
  } else if (!gen_text.empty()) {
    const graph::DistributedGenerator dg(graph::GenSpec::parse(gen_text),
                                         opts.seed());
    g = dg.generate_full();
    nu = dg.num_left();
  }
  if (spec.input == algo::InputKind::kGeneralGraph) {
    if (dsg_path.empty() && gen_text.empty()) g = load_graph(opts);
    ctx.graph = &g;
  } else {
    if (dsg_path.empty() && gen_text.empty()) {
      b = load_bipartite(opts);
    } else {
      DS_CHECK_MSG(nu > 0, "--algo=" + spec.name +
                               " needs a bipartite instance, but this "
                               "source carries no left/right split");
      b = graph::bipartite_from_unified(g, nu);
    }
    ctx.bipartite = &b;
  }

  std::cout << "algorithm: " << spec.name << "\n";
  if (plan.runtime.kind == runtime::RuntimeKind::kTcp) {
    const std::size_t parts = net::read_hosts_file(plan.runtime.hosts).size();
    std::cout << "executor: tcp(rank " << plan.runtime.rank << " of " << parts
              << ")\n";
    if (ctx.graph != nullptr) print_partition_stats(*ctx.graph, parts);
  } else {
    std::cout << "executor: " << runtime::runtime_description(plan.runtime)
              << "\n";
    if (plan.runtime.kind == runtime::RuntimeKind::kMultiProcess &&
        ctx.graph != nullptr) {
      print_partition_stats(*ctx.graph,
                            dist::DistributedNetwork::resolve_workers(
                                plan.runtime.workers, g.num_nodes()));
    }
  }

  if (http != nullptr) publisher.run_started(spec.name);
  algo::Result result;
  try {
    result = algo::execute(spec, ctx);
  } catch (...) {
    // /healthz must flip to 503: a failed run marks the publisher aborted
    // (the TCP transport already did on a collective abort — idempotent).
    if (http != nullptr) publisher.run_finished(/*ok=*/false);
    throw;
  }
  if (http != nullptr) publisher.run_finished(/*ok=*/true);
  for (const auto& [key, value] : result.summary) {
    std::cout << key << ": " << value << "\n";
  }
  std::cout << "verified: " << (result.verified ? "yes" : "no") << "\n";
  std::cout << "output-digest: " << std::hex << result.output_digest()
            << std::dec << "\n";

  if (rec != nullptr) {
    if (profiler != nullptr) profiler->stop();
    const std::string metrics_path = opts.get("metrics", "");
    if (!metrics_path.empty()) {
      std::vector<std::pair<std::string, std::string>> context = {
          {"algo", spec.name},
          {"runtime", runtime::runtime_description(plan.runtime)},
          {"seed", std::to_string(ctx.seed)},
      };
      for (const auto& kv : Provenance::get().context()) {
        context.push_back(kv);
      }
      write_file(metrics_path, "metrics", [&](std::ostream& out) {
        obs::write_metrics_json(out, context, rec->metrics().snapshot());
      });
      std::cout << "metrics: " << metrics_path << "\n";
    }
    const std::string trace_path = opts.get("trace", "");
    if (!trace_path.empty()) {
      write_file(trace_path, "trace", [&](std::ostream& out) {
        rec->write_trace_json(out);
      });
      std::cout << "trace: " << trace_path << "\n";
    }
    const std::string profile_path = opts.get("profile", "");
    if (!profile_path.empty()) {
      // Samples taken after the last drain (output gather, run teardown)
      // are still in the ring; absorb them before writing.
      rec->absorb_profiler();
      write_file(profile_path, "profile", [&](std::ostream& out) {
        rec->write_folded(out);
      });
      std::cout << "profile: " << profile_path << " ("
                << rec->folded().size() << " stacks)\n";
    }
    if (opts.has("stats")) rec->write_stats_table(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const Options opts(argc - 1, argv + 1);
    if (cmd == "gen") return cmd_gen(opts);
    if (cmd == "pack") return cmd_pack(opts);
    if (cmd == "stats") return cmd_stats(opts);
    if (cmd == "list") return cmd_list(opts);
    if (cmd == "submit") return cmd_submit(opts);
    if (cmd == "run") {
      // Resolution errors (unknown algo/flag/param, bad values) are usage
      // errors: exit 1, with the did-you-mean text on stderr. Execution
      // errors keep the historical exit code 2.
      RunPlan plan;
      try {
        plan = resolve_run(opts);
      } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
      }
      return cmd_run(plan, opts);
    }
    std::cerr << "error: unknown subcommand '" << cmd << "'\n";
    return usage();
  } catch (const graph::FormatError& e) {
    // A rejected .dsg file (bad magic/version/endianness/size/digest) is a
    // usage-class failure: the file named on the command line is not a
    // valid instance. CI's corruption test keys on this exit code.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
