#include "frontend.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "graph/format.hpp"
#include "graph/insitu.hpp"
#include "graph/io.hpp"
#include "net/socket.hpp"
#include "obs/exposition.hpp"
#include "support/check.hpp"
#include "support/provenance.hpp"

namespace ds::tools {

namespace {

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

}  // namespace

void reject_unknown_flags(const Options& opts,
                          const std::vector<std::string>& known,
                          std::string_view tail) {
  for (const std::string& key : opts.keys()) {
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string msg = "unknown flag '--" + key + "'";
    const std::string hint = algo::suggest(key, known);
    if (!hint.empty()) msg += "; did you mean '--" + hint + "'?";
    msg += tail;
    DS_CHECK_MSG(false, msg);
  }
}

void check_flag_ranges(const Options& opts, std::size_t ranks) {
  constexpr long long kMax = std::numeric_limits<long long>::max();
  const struct {
    const char* flag;
    long long hi;
  } ranges[] = {
      // Rank r binds P + r, so the last rank's port must exist too.
      {"http-port", std::max(0LL, 65536 - static_cast<long long>(ranks))},
      {"port", 65535},
      {"event-cap", kMax},
      {"queue-cap", kMax},
      {"sndbuf", std::numeric_limits<int>::max()},
      {"rcvbuf", std::numeric_limits<int>::max()},
  };
  for (const auto& [flag, hi] : ranges) {
    if (!opts.has(flag)) continue;
    const long long value = opts.get_int(flag, 0);
    DS_CHECK_MSG(value >= 0 && value <= hi,
                 std::string("--") + flag + "=" + std::to_string(value) +
                     " is out of range [0, " + std::to_string(hi) + "]");
  }
}

Source instance_source(const Options& opts) {
  const bool input = !opts.get("input", "").empty();
  const bool dsg = !opts.get("graph", "").empty();
  const bool gen = !opts.get("gen", "").empty();
  DS_CHECK_MSG(int{input} + int{dsg} + int{gen} == 1,
               "exactly one of --input=FILE, --graph=FILE.dsg or --gen=SPEC "
               "is required");
  return input ? Source::kInput : dsg ? Source::kGraph : Source::kGen;
}

Instance load_instance(const Options& opts, const algo::Spec* spec) {
  const bool bipartite =
      spec != nullptr && spec->input != algo::InputKind::kGeneralGraph;
  Instance inst;
  switch (instance_source(opts)) {
    case Source::kInput: {
      const std::string path = opts.get("input", "");
      std::ifstream in(path);
      DS_CHECK_MSG(in.good(), "cannot open input file: " + path);
      if (bipartite) {
        inst.bipartite = graph::io::read_bipartite(in);
        inst.graph = inst.bipartite.unified();
        inst.nu = inst.bipartite.num_left();
        return inst;
      }
      inst.graph = graph::io::read_edge_list(in);
      return inst;
    }
    case Source::kGraph: {
      graph::DsgHeader header;
      inst.graph = graph::load_dsg(opts.get("graph", ""), &header);
      inst.nu = static_cast<std::size_t>(header.nu);
      break;
    }
    case Source::kGen: {
      const graph::DistributedGenerator dg(
          graph::GenSpec::parse(opts.get("gen", "")), opts.seed());
      inst.graph = dg.generate_full();
      inst.nu = dg.num_left();
      break;
    }
  }
  if (bipartite) {
    DS_CHECK_MSG(inst.nu > 0, "--algo=" + spec->name +
                                  " needs a bipartite instance, but this "
                                  "source carries no left/right split");
    inst.bipartite = graph::bipartite_from_unified(inst.graph, inst.nu);
  }
  return inst;
}

ObsSession::ObsSession(const Options& opts, const std::string& tool,
                       Context context, std::size_t rank, std::size_t ranks)
    : opts_(opts), context_(std::move(context)), rank_(rank) {
  if (ranks > 0) {
    prefix_ =
        "[rank " + std::to_string(rank) + "/" + std::to_string(ranks) + "] ";
  }
  const bool observe = opts.has("metrics") || opts.has("trace") ||
                       opts.has("stats") || opts.has("http-port") ||
                       opts.has("profile");
  if (!observe) return;
  rec_ = &recorder_;
  rec_->set_lane(static_cast<std::uint32_t>(rank));
  if (opts.has("event-cap")) {
    rec_->set_event_capacity(
        static_cast<std::size_t>(opts.get_int("event-cap", 0)));
  }
  // Attached to the recorder so the fleet gather merges every lane's folded
  // stacks. Each rank arms its own timer (loopback ranks after the fork). A
  // refused timer/handler degrades to a logged notice and an empty profile,
  // never a failed run.
  if (opts.has("profile")) {
    profiler_ = std::make_unique<obs::SampledProfiler>();
    rec_->set_profiler(profiler_.get());
    if (!profiler_->start()) {
      std::cout << prefix_ << "profile: sampling unavailable ("
                << profiler_->error() << ")" << std::endl;
    }
  }
  // Live introspection: the round loop publishes seqlock snapshots at round
  // boundaries; the HTTP thread only ever reads the publisher.
  if (!opts.has("http-port")) return;
  rec_->set_publisher(&publisher_);
  Context info = {{"tool", tool}};
  info.insert(info.end(), context_.begin(), context_.end());
  if (ranks > 0) info.emplace_back("rank", std::to_string(rank));
  for (const auto& kv : Provenance::get().context()) info.push_back(kv);
  publisher_.set_info(std::move(info));
  if (profiler_ != nullptr) {
    // Live view of this process's own ring (a fleet's merged profile only
    // exists after the end-of-run gather); reads without draining, so the
    // written file still carries the full run.
    obs::SampledProfiler* const prof = profiler_.get();
    const std::string lane =
        rec_->lane_kind() + ":" + std::to_string(rec_->lane());
    publisher_.set_profile_source([prof, lane] {
      std::ostringstream folded;
      obs::SampledProfiler::write_folded(folded, prof->collect_folded(lane));
      return folded.str();
    });
  }
  const long long base = opts.get_int("http-port", 0);
  http_ = std::make_unique<obs::HttpServer>(
      publisher_, static_cast<std::uint16_t>(
                      base == 0 ? 0 : base + static_cast<long long>(rank)));
  std::cout << prefix_ << "http: listening on port " << http_->port()
            << " (/metrics /status /healthz /api/v1/snapshot /api/v1/runs"
            << (profiler_ != nullptr ? " /api/v1/profile" : "") << ")"
            << std::endl;
}

ObsSession::~ObsSession() {
  if (!running_) return;
  try {
    finished(/*ok=*/false);
  } catch (const std::exception& e) {
    std::cerr << prefix_ << "error: marking the failed run: " << e.what()
              << "\n";
  }
}

void ObsSession::started(const std::string& algo) {
  if (http_ == nullptr) return;
  publisher_.run_started(algo);
  running_ = true;
}

void ObsSession::finished(bool ok) {
  if (http_ == nullptr) return;
  running_ = false;
  publisher_.run_finished(ok);
}

void ObsSession::write_outputs() {
  if (profiler_ != nullptr) profiler_->stop();
  if (rec_ == nullptr || rank_ != 0) return;
  const std::string metrics_path = opts_.get("metrics", "");
  if (!metrics_path.empty()) {
    Context context = context_;
    for (const auto& kv : Provenance::get().context()) context.push_back(kv);
    write_file(metrics_path, "metrics", [&](std::ostream& out) {
      obs::write_metrics_json(out, context, rec_->metrics().snapshot());
    });
    std::cout << prefix_ << "metrics: " << metrics_path << std::endl;
  }
  const std::string trace_path = opts_.get("trace", "");
  if (!trace_path.empty()) {
    write_file(trace_path, "trace",
               [&](std::ostream& out) { rec_->write_trace_json(out); });
    std::cout << prefix_ << "trace: " << trace_path << std::endl;
  }
  const std::string profile_path = opts_.get("profile", "");
  if (!profile_path.empty()) {
    // Samples taken after the last drain (output gather, run teardown) are
    // still in the ring; absorb them before writing.
    rec_->absorb_profiler();
    write_file(profile_path, "profile",
               [&](std::ostream& out) { rec_->write_folded(out); });
    std::cout << prefix_ << "profile: " << profile_path << " ("
              << rec_->folded().size() << " stacks)" << std::endl;
  }
  if (opts_.has("stats")) {
    rec_->write_stats_table(std::cout);
    std::cout.flush();
  }
}

net::TcpOptions tcp_options(const Options& opts) {
  net::TcpOptions topts;
  topts.sndbuf_bytes = static_cast<int>(opts.get_int("sndbuf", 0));
  topts.rcvbuf_bytes = static_cast<int>(opts.get_int("rcvbuf", 0));
  return topts;
}

int run_fleet(const Options& opts, int (*usage)(),
              const std::function<int(net::LoopbackRank&&)>& body) {
  const long long local = opts.get_int("local", 0);
  if (local > 0) {
    const auto ranks = static_cast<std::size_t>(local);
    check_flag_ranges(opts, ranks);
    const auto report = net::run_loopback_ranks(ranks, body);
    if (report.all_ok()) return 0;
    std::cerr << "error: a rank failed (rank 0 -> " << report.rank0;
    for (std::size_t r = 0; r < report.peer_exit_codes.size(); ++r) {
      std::cerr << ", rank " << (r + 1) << " -> " << report.peer_exit_codes[r];
    }
    std::cerr << ")\n";
    return 2;
  }
  const std::string hosts_path = opts.get("hosts", "");
  if (hosts_path.empty()) return usage();
  net::LoopbackRank self;
  self.hosts = net::read_hosts_file(hosts_path);
  self.rank = static_cast<std::size_t>(opts.get_int("rank", 0));
  DS_CHECK_MSG(self.rank < self.hosts.size(),
               "--rank must be < the hosts file size (" +
                   std::to_string(self.hosts.size()) + ")");
  check_flag_ranges(opts, self.hosts.size());
  return body(std::move(self));
}

}  // namespace ds::tools
