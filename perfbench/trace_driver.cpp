/// \file trace_driver.cpp
/// The benchmark's traced driver. It runs one one-shot job (`job`) or hosts
/// one resident serving fleet (`serve`) through the library's public entry
/// points, the way distsplit_cli / distsplit_rank / distsplit_serve do, and
/// wraps every call into a layer in a steady-clock span. The recorder's
/// existing round-phase spans are attached underneath the execute span.
/// Spans stay in memory and are written as one JSON file when the job ends
/// (or, for `serve`, when the daemon has drained). Nothing inside src/ is
/// instrumented beyond what the library already records.
///
///   perfbench_trace job --algo=NAME (--graph=F.dsg | --gen=SPEC) --seed=S
///       [--param=key=value ...] --spans=FILE
///       [--runtime=sequential|parallel|mp --threads=N --workers=N]
///       [--local=N [--materialize]]        (TCP loopback fleet)
///   perfbench_trace serve --graph=F.dsg --local=N --spans=FILE
///
/// Timestamps are steady-clock nanoseconds (CLOCK_MONOTONIC on Linux), the
/// same clock the benchmark's Python side reads, so the caller can hang the
/// driver's spans under its own process-wall span.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "algo/registry.hpp"
#include "coloring/reduce.hpp"
#include "coloring/verify.hpp"
#include "dist/partition.hpp"
#include "graph/format.hpp"
#include "graph/insitu.hpp"
#include "graph/properties.hpp"
#include "local/ids.hpp"
#include "local/topology.hpp"
#include "net/insitu_runner.hpp"
#include "net/loopback.hpp"
#include "net/tcp_network.hpp"
#include "obs/recorder.hpp"
#include "orient/sinkless.hpp"
#include "runtime/select.hpp"
#include "serve/daemon.hpp"
#include "serve/signal.hpp"
#include "splitting/weak_splitting.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"

namespace {

using namespace ds;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One span: `parent` indexes the same vector (-1 = top level, which the
/// caller hangs under its process-wall span).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint32_t lane = 0;
  std::uint64_t round = 0;
};

class Trace {
 public:
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), now_ns(), 0, parent, 0, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  template <typename F>
  auto timed(const std::string& name, int parent, F&& body) {
    const int id = open(name, parent);
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      close(id);
    } else {
      auto out = body();
      close(id);
      return out;
    }
  }

  /// Attaches the recorder's lane-0 round spans under `execute`, and each
  /// lane-0 phase span under the round that holds it (a serving fleet's
  /// recorder sees the same round numbers once per run, so the match is by
  /// round number and time). Other lanes ran concurrently with lane 0; they
  /// are kept with parent -2 (listed, not part of the self-time tree, whose
  /// children must not overlap).
  void attach(const obs::Recorder& rec, int execute) {
    const auto t0 = static_cast<std::int64_t>(rec.t0_ns());
    const std::vector<obs::TraceEvent> events = rec.ordered_events();
    std::map<std::uint64_t, std::vector<int>> rounds;  // round -> span ids
    auto add = [&](const obs::TraceEvent& e, int parent) {
      const std::int64_t start = t0 + static_cast<std::int64_t>(e.ts_us) * 1000;
      spans_.push_back({obs::phase_name(e.phase), start,
                        start + static_cast<std::int64_t>(e.dur_us) * 1000,
                        parent, e.lane, e.round});
      return static_cast<int>(spans_.size()) - 1;
    };
    for (const auto& e : events) {
      if (e.lane == 0 && e.phase == obs::Phase::kRound) {
        rounds[e.round].push_back(add(e, execute));
      }
    }
    for (const auto& e : events) {
      if (e.phase == obs::Phase::kRound && e.lane == 0) continue;
      int parent = -2;
      if (e.lane == 0) {
        parent = execute;
        const std::int64_t start =
            t0 + static_cast<std::int64_t>(e.ts_us) * 1000;
        const auto it = rounds.find(e.round);
        if (e.phase != obs::Phase::kGather && it != rounds.end()) {
          for (const int r : it->second) {
            const Span& round = spans_[static_cast<std::size_t>(r)];
            if (round.start_ns <= start && start <= round.end_ns) parent = r;
          }
        }
      }
      add(e, parent);
    }
  }

  std::vector<std::pair<std::string, double>> values;
  std::vector<std::pair<std::string, std::string>> facts;

  void write(const std::string& path,
             const std::vector<obs::MetricSnapshot>& metrics) const {
    std::ofstream out(path);
    DS_CHECK_MSG(out.good(), "cannot open spans file: " + path);
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \""
          << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
          << ", \"lane\": " << s.lane << ", \"round\": " << s.round << "}";
    }
    out << "],\n\"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      out << (i ? ", " : "") << "\"" << metrics[i].name
          << "\": " << metrics[i].value();
    }
    out << "},\n\"values\": {";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out << (i ? ", " : "") << "\"" << values[i].first
          << "\": " << values[i].second;
    }
    out << "},\n\"facts\": {";
    for (std::size_t i = 0; i < facts.size(); ++i) {
      out << (i ? ", " : "") << "\"" << facts[i].first << "\": \""
          << facts[i].second << "\"";
    }
    out << "}}\n";
    out.flush();
    DS_CHECK_MSG(out.good(), "failed writing spans file: " + path);
  }

 private:
  std::vector<Span> spans_;
};

/// Mean cost of constructing one `Rng` and forking one child stream — the
/// per-node RNG setup every NodeEnv pays.
double rng_new_ns(std::uint64_t seed) {
  constexpr int kReps = 512;
  std::uint64_t sink = 0;
  const std::int64_t start = now_ns();
  for (int i = 0; i < kReps; ++i) {
    Rng rng(seed + static_cast<std::uint64_t>(i));
    Rng child = rng.fork(static_cast<std::uint64_t>(i));
    sink ^= child.next_raw();
  }
  const std::int64_t end = now_ns();
  volatile std::uint64_t keep = sink;
  (void)keep;
  return static_cast<double>(end - start) / kReps;
}

/// The ID strategy a run of `spec` with `params` uses.
std::string ids_of(const algo::Spec& spec, const algo::Params& params) {
  for (const algo::ParamSpec& p : spec.params) {
    if (p.key == "ids") return params.get("ids");
  }
  return "sequential";
}

/// The spec's public verifier, re-run on the canonical output words.
bool verify_output(const algo::Spec& spec, const algo::Params& params,
                   const graph::Graph* g, const graph::BipartiteGraph* b,
                   const std::vector<std::uint64_t>& words) {
  if (spec.name == "mis") {
    std::vector<bool> in(words.begin(), words.end());
    return coloring::is_mis(*g, in);
  }
  if (spec.name == "color") {
    std::vector<std::uint32_t> colors(words.begin(), words.end());
    return coloring::is_proper_coloring(*g, colors);
  }
  if (spec.name == "sinkless") {
    std::vector<bool> toward(words.begin(), words.end());
    return orient::is_sinkless(
        *g, toward, static_cast<std::size_t>(params.get_int("min-degree")));
  }
  if (spec.name == "split" || spec.name == "weak-splitting") {
    splitting::Coloring colors;
    colors.reserve(words.size());
    for (const std::uint64_t w : words) {
      colors.push_back(static_cast<splitting::Color>(w));
    }
    const std::size_t min_degree =
        spec.name == "split"
            ? static_cast<std::size_t>(params.get_int("min-degree"))
            : 0;
    return splitting::is_weak_splitting(*b, colors, min_degree);
  }
  DS_CHECK_MSG(false, "no verifier wired for --algo=" + spec.name);
  return false;
}

void print_result(bool verified, std::uint64_t digest) {
  std::cout << "verified: " << (verified ? "yes" : "no") << "\n"
            << "output-digest: " << std::hex << digest << std::dec
            << std::endl;
}

int cmd_job(const Options& opts) {
  const algo::Spec& spec = algo::find(opts.get("algo", ""));
  const algo::Params params = algo::Params::parse(
      spec.params, algo::parse_param_overrides(opts.get_all("param")));
  const std::uint64_t seed = opts.seed();
  const std::string spans_path = opts.get("spans", "");
  DS_CHECK_MSG(!spans_path.empty(), "--spans=FILE is required");
  const auto ranks = static_cast<std::size_t>(opts.get_int("local", 0));
  const std::string gen_text = opts.get("gen", "");
  const std::string dsg_path = opts.get("graph", "");
  const bool bipartite = spec.input == algo::InputKind::kBipartiteGraph;

  Trace trace;
  obs::Recorder recorder;
  recorder.set_event_capacity(1 << 20);
  trace.values.emplace_back("support.rng_new_ns", trace.timed(
      "support.rng", -1, [&] { return rng_new_ns(seed); }));

  // In-situ path: nothing is materialized; the shard probe times the
  // generator over the same node-uniform rank ranges the runner uses.
  if (ranks > 0 && !gen_text.empty() && !opts.has("materialize")) {
    const graph::GenSpec gen = graph::GenSpec::parse(gen_text);
    trace.timed("graph.shard", -1, [&] {
      const graph::DistributedGenerator dg(gen, seed);
      std::size_t edges = 0;
      for (std::size_t r = 0; r < ranks; ++r) {
        const auto first =
            static_cast<graph::NodeId>(dg.num_nodes() * r / ranks);
        const auto last =
            static_cast<graph::NodeId>(dg.num_nodes() * (r + 1) / ranks);
        edges += dg.shard(first, last).size();
      }
      return edges;
    });
    net::InsituResult result;
    const int fleet = trace.open("net.fleet", -1);
    auto body = [&](net::LoopbackRank&& lr) {
      obs::Recorder own;
      obs::Recorder* rec = lr.rank == 0 ? &recorder : &own;
      rec->set_lane(static_cast<std::uint32_t>(lr.rank));
      net::InsituConfig config;
      config.rank = lr.rank;
      config.hosts = std::move(lr.hosts);
      config.listen = std::move(lr.listen);
      if (lr.rank != 0) {
        return net::run_insitu(spec, params, seed, gen, std::move(config), rec)
                       .verified
                   ? 0
                   : 2;
      }
      const int execute = trace.open("algo.execute", fleet);
      result = net::run_insitu(spec, params, seed, gen, std::move(config), rec);
      trace.close(execute);
      trace.attach(recorder, execute);
      return result.verified ? 0 : 2;
    };
    const auto report = net::run_loopback_ranks(ranks, body);
    trace.close(fleet);
    DS_CHECK_MSG(report.all_ok(), "a loopback rank failed");
    print_result(result.verified, result.output_digest);
    trace.facts.emplace_back("runtime", "insitu-tcp");
    trace.write(spans_path, recorder.metrics().snapshot());
    return result.verified ? 0 : 2;
  }

  // Input layer: the packed file (mmap) or the materialized generator.
  graph::Graph g;
  std::size_t nu = 0;
  if (!dsg_path.empty()) {
    trace.timed("graph.load", -1, [&] {
      graph::DsgHeader header;
      g = graph::load_dsg(dsg_path, &header);
      nu = static_cast<std::size_t>(header.nu);
    });
  } else {
    DS_CHECK_MSG(!gen_text.empty(),
                 "--graph=FILE.dsg or --gen=SPEC is required");
    trace.timed("graph.generate", -1, [&] {
      const graph::DistributedGenerator dg(graph::GenSpec::parse(gen_text),
                                           seed);
      g = dg.generate_full();
      nu = dg.num_left();
    });
  }

  runtime::RuntimeConfig rt;
  const std::string runtime_name = opts.get("runtime", "sequential");
  rt.threads = static_cast<std::size_t>(opts.get_int("threads", 0));
  rt.workers = static_cast<std::size_t>(opts.get_int("workers", 0));
  if (runtime_name == "parallel") rt.kind = runtime::RuntimeKind::kParallel;
  if (runtime_name == "mp") rt.kind = runtime::RuntimeKind::kMultiProcess;
  const std::size_t parts = ranks > 0 ? ranks : rt.workers;

  // Partition probe: the dist layer's per-run setup for a fleet of `parts`
  // (the executors build the same partition again inside the run).
  if (ranks > 0 || rt.kind == runtime::RuntimeKind::kMultiProcess) {
    const local::NetworkTopology topo(
        g, local::id_strategy_from_name(ids_of(spec, params)), seed);
    trace.timed("dist.partition", -1, [&] {
      const dist::Partition partition(topo, parts);
      return partition.num_workers();
    });
  }

  graph::BipartiteGraph b;
  if (bipartite) {
    trace.timed("graph.bipartite", -1, [&] {
      b = graph::bipartite_from_unified(g, nu);
      g = graph::Graph();
    });
  }
  if (spec.name == "weak-splitting") {
    trace.timed("graph.girth", -1, [&] { return graph::girth(b.unified()); });
  }

  algo::RunContext ctx;
  ctx.seed = seed;
  ctx.params = params;
  ctx.recorder = &recorder;
  if (bipartite) {
    ctx.bipartite = &b;
  } else {
    ctx.graph = &g;
  }

  auto finish = [&](const algo::Result& result, int parent) {
    const bool ok = trace.timed("algo.verify", parent, [&] {
      return verify_output(spec, params, bipartite ? nullptr : &g,
                           bipartite ? &b : nullptr, result.output_words);
    });
    const std::uint64_t digest = trace.timed(
        "algo.digest", parent, [&] { return result.output_digest(); });
    print_result(result.verified && ok, digest);
    return result.verified && ok;
  };

  if (ranks == 0) {
    ctx.factory = runtime::make_executor_factory(rt, {}, &recorder);
    ctx.sequential_runtime = runtime::is_sequential(rt);
    const int execute = trace.open("algo.execute", -1);
    const algo::Result result = algo::execute(spec, ctx);
    trace.close(execute);
    trace.attach(recorder, execute);
    const bool ok = finish(result, -1);
    trace.facts.emplace_back("runtime", runtime::runtime_description(rt));
    trace.write(spans_path, result.metrics);
    return ok ? 0 : 2;
  }

  // TCP loopback fleet: rank 0 runs here, the others are forked copies.
  bool ok = false;
  std::vector<obs::MetricSnapshot> metrics;
  const int fleet = trace.open("net.fleet", -1);
  auto body = [&](net::LoopbackRank&& lr) {
    obs::Recorder own;
    obs::Recorder* rec = lr.rank == 0 ? &recorder : &own;
    rec->set_lane(static_cast<std::uint32_t>(lr.rank));
    net::Socket listen = std::move(lr.listen);
    const int execute = lr.rank == 0 ? trace.open("algo.execute", fleet) : -1;
    algo::RunContext rctx = ctx;
    rctx.recorder = rec;
    rctx.sequential_runtime = false;
    rctx.factory = [&](const graph::Graph& fg, local::IdStrategy strategy,
                       std::uint64_t s) -> std::unique_ptr<local::Executor> {
      net::TcpNetworkConfig config;
      config.rank = lr.rank;
      config.hosts = lr.hosts;
      config.listen = std::move(listen);
      const int id = lr.rank == 0 ? trace.open("net.rendezvous", execute) : -1;
      auto exec =
          std::make_unique<net::TcpNetwork>(fg, strategy, s, std::move(config));
      if (id >= 0) trace.close(id);
      exec->set_recorder(rec);
      return exec;
    };
    const algo::Result result = algo::execute(spec, rctx);
    if (lr.rank != 0) return result.verified ? 0 : 2;
    trace.close(execute);
    trace.attach(recorder, execute);
    metrics = result.metrics;
    ok = finish(result, fleet);
    return ok ? 0 : 2;
  };
  const auto report = net::run_loopback_ranks(ranks, body);
  trace.close(fleet);
  DS_CHECK_MSG(report.all_ok(), "a loopback rank failed");
  trace.facts.emplace_back("runtime", "tcp");
  trace.write(spans_path, metrics);
  return ok ? 0 : 2;
}

/// Hosts a resident fleet like `distsplit_serve --local=N`, with a recorder
/// on rank 0. On SIGTERM the daemon drains; rank 0 then writes its
/// round-phase spans (the caller assigns them to requests by time).
int cmd_serve(const Options& opts) {
  const std::string spans_path = opts.get("spans", "");
  DS_CHECK_MSG(!spans_path.empty(), "--spans=FILE is required");
  const auto ranks = static_cast<std::size_t>(opts.get_int("local", 2));
  serve::install_shutdown_handler();
  Trace trace;
  graph::DsgHeader header;
  const graph::Graph g = graph::load_dsg(opts.get("graph", ""), &header);
  const auto nu = static_cast<std::size_t>(header.nu);
  // The partition a cache miss rebuilds (ids=random: a fresh topology).
  {
    const local::NetworkTopology topo(
        g, local::IdStrategy::kRandomPermutation, opts.seed());
    trace.timed("dist.partition", -1, [&] {
      const dist::Partition partition(topo, ranks);
      return partition.num_workers();
    });
  }
  auto body = [&](net::LoopbackRank&& lr) {
    obs::Recorder recorder;
    recorder.set_event_capacity(1 << 20);
    recorder.set_lane(static_cast<std::uint32_t>(lr.rank));
    serve::DaemonConfig config;
    config.rank = lr.rank;
    config.hosts = std::move(lr.hosts);
    config.listen = std::move(lr.listen);
    config.graph = &g;
    config.nu = nu;
    config.stop_requested = [] { return serve::shutdown_requested(); };
    config.recorder = lr.rank == 0 ? &recorder : nullptr;
    serve::Daemon daemon(std::move(config));
    if (lr.rank == 0) {
      std::cout << "serve: listening on port " << daemon.request_port()
                << std::endl;
    }
    const int code = daemon.run();
    if (lr.rank == 0) {
      trace.attach(recorder, -1);
      trace.write(spans_path, recorder.metrics().snapshot());
    }
    return code;
  };
  return net::run_loopback_ranks(ranks, body).all_ok() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_trace <job|serve> --key=value ...\n";
    return 1;
  }
  const std::string cmd = argv[1];
  try {
    const Options opts(argc - 1, argv + 1);
    if (cmd == "job") return cmd_job(opts);
    if (cmd == "serve") return cmd_serve(opts);
    std::cerr << "error: unknown subcommand '" << cmd << "'\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
