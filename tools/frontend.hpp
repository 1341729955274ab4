#pragma once

/// \file frontend.hpp
/// The run front end `distsplit_cli run`/`submit`, `distsplit_rank` and
/// `distsplit_serve` share: flag checks, the `--input | --graph | --gen`
/// instance loader, the observability session and the `--local=N` /
/// `--hosts --rank` fleet launcher. Tools-only: the library and
/// `perfbench_trace` do not link it.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algo/registry.hpp"
#include "graph/bipartite.hpp"
#include "net/loopback.hpp"
#include "net/tcp_transport.hpp"
#include "obs/http_server.hpp"
#include "obs/profile.hpp"
#include "obs/publish.hpp"
#include "obs/recorder.hpp"
#include "support/options.hpp"

namespace ds::tools {

/// Throws ds::CheckError naming the first flag of `opts` that is not in
/// `known`, with a did-you-mean suggestion and `tail` appended: silently
/// dropping a typo'd or stale flag would change the run's meaning.
void reject_unknown_flags(
    const Options& opts, const std::vector<std::string>& known,
    std::string_view tail =
        " (algorithm parameters go through --param=key=value)");

/// Throws ds::CheckError naming the flag when a shared tool flag is out of
/// range: --http-port=P needs 0 <= P and, for P > 0, P + ranks - 1 <= 65535
/// (rank r binds P + r); --port must lie in [0, 65535]; --event-cap and
/// --queue-cap must be >= 0; --sndbuf/--rcvbuf must fit an int.
void check_flag_ranges(const Options& opts, std::size_t ranks);

/// Which instance flag is set. Throws ds::CheckError unless exactly one of
/// --input, --graph and --gen is.
enum class Source { kInput, kGraph, kGen };
Source instance_source(const Options& opts);

/// A loaded instance: the unified graph, its left-side size (0 when the
/// source carries no left/right split) and, for a bipartite-input spec,
/// the bipartite view over the same CSR.
struct Instance {
  graph::Graph graph;
  std::size_t nu = 0;
  graph::BipartiteGraph bipartite;

  /// Points `ctx` at the view `spec` consumes.
  void attach(const algo::Spec& spec, algo::RunContext& ctx) const {
    if (spec.input == algo::InputKind::kGeneralGraph) {
      ctx.graph = &graph;
    } else {
      ctx.bipartite = &bipartite;
    }
  }
};

/// Loads --input (a text edge list), --graph (a packed .dsg, mapped
/// read-only in O(1)) or --gen (a generator instance seeded by --seed). A
/// bipartite-input `spec` reads --input in the bipartite format and gets
/// the split of a .dsg or generator instance from its left-side size; no
/// spec (the daemon serves every spec) reads a general edge list.
Instance load_instance(const Options& opts, const algo::Spec* spec);

/// One run's observability from the shared flags: a recorder when any of
/// --metrics/--trace/--stats/--profile/--http-port asks for it, bounded by
/// --event-cap, the sampling profiler of --profile, and for --http-port=P
/// a snapshot publisher read by an HTTP server on P + rank. Only rank 0
/// writes files: every rank merged the fleet's observability blocks, and
/// loopback ranks share a working directory.
class ObsSession {
 public:
  /// {key, value} pairs describing the run.
  using Context = std::vector<std::pair<std::string, std::string>>;

  /// `context` is the metrics file's run context ({algo, runtime, seed}, as
  /// far as `tool` knows them); `ranks` = 0 marks a single process, which
  /// prints unprefixed lines.
  ObsSession(const Options& opts, const std::string& tool, Context context,
             std::size_t rank = 0, std::size_t ranks = 0);
  /// A run that started and never finished failed: /healthz turns 503
  /// before the server goes down.
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// The recorder to install, or nullptr when nothing is observed.
  [[nodiscard]] obs::Recorder* recorder() { return rec_; }
  /// The live publisher, or nullptr without --http-port.
  [[nodiscard]] obs::SnapshotPublisher* publisher() {
    return http_ != nullptr ? &publisher_ : nullptr;
  }
  /// "" for a single process, "[rank r/N] " on a fleet.
  [[nodiscard]] const std::string& prefix() const { return prefix_; }

  /// Marks the live run started / finished (no-ops without --http-port).
  void started(const std::string& algo);
  void finished(bool ok);

  /// Stops the profiler, then (rank 0 only) writes --metrics, --trace and
  /// --profile and prints the --stats table.
  void write_outputs();

 private:
  const Options& opts_;
  Context context_;
  std::size_t rank_;
  std::string prefix_;
  bool running_ = false;
  // Teardown order: the server (a publisher reader) goes first, the
  // recorder (which points at the profiler and publisher) last.
  obs::Recorder recorder_;
  obs::Recorder* rec_ = nullptr;
  std::unique_ptr<obs::SampledProfiler> profiler_;
  obs::SnapshotPublisher publisher_;
  std::unique_ptr<obs::HttpServer> http_;
};

/// The socket buffer sizes of --sndbuf/--rcvbuf (0: the OS default), as
/// range-checked by `check_flag_ranges`.
net::TcpOptions tcp_options(const Options& opts);

/// Runs `body` for this process's ranks after checking the flag ranges
/// for the fleet's size: all N of --local=N (rank 0 here, the rest forked
/// on loopback), else rank --rank=R of --hosts=FILE, else returns
/// `usage()`. A failed loopback rank gives exit 2 and every rank's code.
int run_fleet(const Options& opts, int (*usage)(),
              const std::function<int(net::LoopbackRank&&)>& body);

}  // namespace ds::tools
