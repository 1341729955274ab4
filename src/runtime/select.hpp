#pragma once

/// \file select.hpp
/// Runtime selection of the LOCAL-model executor for experiment binaries:
/// `--runtime=sequential|parallel|mp|tcp`, `--threads=N` (parallel),
/// `--workers=N` (mp) and `--rank=R --ranks=N --hosts=FILE` (tcp) map to an
/// `local::ExecutorFactory` that algorithm entry points accept.

#include <cstddef>
#include <string>

#include "local/executor.hpp"
#include "local/round_stats.hpp"
#include "support/options.hpp"

namespace ds::runtime {

/// The selectable LOCAL executors.
enum class RuntimeKind {
  kSequential,    ///< local::Network (the reference implementation)
  kParallel,      ///< runtime::ParallelNetwork (thread-sharded)
  kMultiProcess,  ///< dist::DistributedNetwork (forked workers + halo)
  kTcp,           ///< net::TcpNetwork (one process per rank, TCP halo)
};

/// Executor choice of one binary invocation.
struct RuntimeConfig {
  RuntimeKind kind = RuntimeKind::kSequential;
  std::size_t threads = 0;  ///< 0 = hardware concurrency (parallel only)
  std::size_t workers = 0;  ///< 0 = hardware concurrency (mp only)
  /// mp transport reservations; 0 = the DistributedConfig defaults. Raise
  /// when a run aborts with a halo/gather overflow naming these knobs.
  std::size_t halo_words = 0;
  std::size_t gather_words = 0;
  /// tcp runtime: this process's rank, the expected fleet size (0 = take it
  /// from the hosts file), and the rank-ordered hosts file path.
  std::size_t rank = 0;
  std::size_t ranks = 0;
  std::string hosts;
  /// tcp socket buffer sizes in bytes (0 = OS default).
  std::size_t sndbuf = 0;
  std::size_t rcvbuf = 0;
};

/// One-line usage help for the flags `runtime_from_options` understands —
/// shared by the tools so their usage text cannot drift from the parser.
inline constexpr const char* kRuntimeFlagsHelp =
    "[--runtime=sequential|parallel|mp|tcp] [--threads=N] [--workers=N]\n"
    "  [--halo-words=N] [--gather-words=N]\n"
    "  [--rank=R --ranks=N --hosts=FILE] [--sndbuf=BYTES] [--rcvbuf=BYTES]";

/// True when `config` selects the sequential reference executor — the
/// capability gate sequential-only registry specs check.
inline bool is_sequential(const RuntimeConfig& config) {
  return config.kind == RuntimeKind::kSequential;
}

/// Parses `--runtime=sequential|parallel|mp|tcp` (default sequential),
/// `--threads=N`, `--workers=N`, the mp overflow knobs `--halo-words=N` /
/// `--gather-words=N`, and the tcp launch flags `--rank=R --ranks=N
/// --hosts=FILE [--sndbuf=BYTES --rcvbuf=BYTES]`. Throws ds::CheckError on
/// an unknown runtime name.
RuntimeConfig runtime_from_options(const Options& opts);

/// Factory honoring `config`: a `ParallelNetwork`, `DistributedNetwork`
/// or `TcpNetwork` factory, or an empty one for the sequential runtime
/// (algorithms then default to `local::Network`). Every executor it
/// creates gets `sink` installed as its per-round stats hook (for
/// experiment drivers that print per-round message/byte traces) and
/// `recorder` installed via `local::Executor::set_recorder` — phase
/// timings, deterministic round counters and transport counters land in
/// it, fleet-wide on the distributed runtimes. With a sink or a recorder the factory is always
/// non-empty (the sequential runtime then builds an instrumented
/// `local::Network`). The recorder must outlive every executor the factory
/// builds.
local::ExecutorFactory make_executor_factory(const RuntimeConfig& config,
                                             local::RoundStatsSink sink = {},
                                             obs::Recorder* recorder = nullptr);

/// Human-readable description of the *requested* config, e.g. "sequential",
/// "parallel(8 threads)" or "mp(4 workers)". The mp executor additionally
/// clamps its worker count to each instance's node count — use
/// `dist::DistributedNetwork::resolve_workers(workers, n)` when reporting
/// per-instance numbers.
std::string runtime_description(const RuntimeConfig& config);

}  // namespace ds::runtime
