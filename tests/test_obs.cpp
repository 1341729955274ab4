// Tests for the observability layer (src/obs/): metrics registry
// semantics, the disabled no-op path, the drain/merge codec, trace /
// metrics JSON well-formedness, the round clock's span nesting on all four
// runtimes, and — the load-bearing property — that the deterministic
// `rounds.*` counters are bit-identical across all four runtimes for a
// fixed (graph, IdStrategy, seed).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "determinism_probe.hpp"
#include "graph/generators.hpp"
#include "local/network.hpp"
#include "net/loopback.hpp"
#include "net/tcp_network.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/select.hpp"
#include "support/check.hpp"

namespace ds::obs {
namespace {

// ---- Metrics registry ----------------------------------------------------

TEST(Metrics, CounterAggregatesAcrossSlots) {
  Metrics m;
  Counter a = m.counter("c", /*slots=*/3, /*slot=*/0);
  Counter b = m.counter("c", /*slots=*/3, /*slot=*/2);
  a.add(5);
  a.add(7);
  b.add(100);
  const auto snap = m.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "c");
  EXPECT_EQ(snap[0].kind, Kind::kCounter);
  EXPECT_EQ(snap[0].value(), 112u);
  EXPECT_EQ(snap[0].count, 3u);  // three add() calls across the slots
}

TEST(Metrics, ReRegistrationGrowsSlotsAndKeepsHandlesValid) {
  Metrics m;
  Counter a = m.counter("c", 1, 0);
  a.add(1);
  // Growing the slot count must not invalidate `a` (cells live in a deque).
  Counter b = m.counter("c", 8, 7);
  a.add(1);
  b.add(40);
  EXPECT_EQ(m.snapshot()[0].value(), 42u);
  EXPECT_EQ(m.num_metrics(), 1u);
}

TEST(Metrics, GaugeKeepsLastSetValueAndMergesByMax) {
  Metrics m;
  Gauge g = m.gauge("g");
  g.set(9);
  g.set(4);
  EXPECT_EQ(m.snapshot()[0].value(), 4u);
  // Merge semantics: deterministic gauges agree across ranks, so max is
  // the identity; a rank that never set one must not pull it to zero.
  MetricSnapshot peer;
  peer.name = "g";
  peer.kind = Kind::kGauge;
  peer.sum = 2;
  peer.count = 1;
  m.merge(peer);
  EXPECT_EQ(m.snapshot()[0].value(), 4u);
}

TEST(Metrics, HistogramTracksCountSumMinMax) {
  Metrics m;
  Histogram h = m.histogram("h");
  h.record(10);
  h.record(3);
  h.record(30);
  const auto s = m.snapshot()[0];
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 43u);
  EXPECT_EQ(s.min, 3u);
  EXPECT_EQ(s.max, 30u);
}

TEST(Metrics, KindMismatchThrows) {
  Metrics m;
  m.counter("x");
  EXPECT_THROW(m.gauge("x"), CheckError);
  EXPECT_THROW(m.histogram("x"), CheckError);
}

TEST(Metrics, DisabledHandlesAreNoOps) {
  // The whole "zero-cost when off" contract: default-constructed handles
  // swallow every operation.
  Counter c;
  Gauge g;
  Histogram h;
  c.add(1);
  g.set(2);
  h.record(3);
  EXPECT_FALSE(c.enabled());
  EXPECT_FALSE(g.enabled());
  EXPECT_FALSE(h.enabled());
}

TEST(Metrics, ResetZeroesButKeepsRegistrations) {
  Metrics m;
  Counter c = m.counter("c");
  c.add(5);
  m.reset();
  EXPECT_EQ(m.num_metrics(), 1u);
  EXPECT_EQ(m.snapshot()[0].value(), 0u);
  c.add(2);  // handle still valid after reset
  EXPECT_EQ(m.snapshot()[0].value(), 2u);
}

// ---- Drain / merge codec -------------------------------------------------

TEST(Recorder, DrainZeroesAndMergeReconstructs) {
  Recorder rec;
  Counter c = rec.metrics().counter("c");
  Histogram h = rec.metrics().histogram("h");
  c.add(11);
  h.record(7);
  rec.add_span(Phase::kRound, /*round=*/0, /*ts_us=*/5, /*dur_us=*/9);

  // Look metrics up by name: the recorder registers its own instruments
  // (obs.events.dropped), so positional indexing would be fragile.
  const auto by_name = [&](const std::string& name) {
    for (const MetricSnapshot& s : rec.metrics().snapshot()) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << "metric not found: " << name;
    return MetricSnapshot{};
  };

  const std::vector<std::uint64_t> block = rec.drain_words();
  // Draining zeroed the local state (that is what prevents double counting
  // when a rank merges its own gathered block back in)...
  EXPECT_EQ(by_name("c").value(), 0u);
  EXPECT_TRUE(rec.events().empty());
  // ...and merging reconstructs it exactly.
  rec.merge_words(block.data(), block.size());
  EXPECT_EQ(by_name("c").value(), 11u);
  EXPECT_EQ(by_name("h").sum, 7u);
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].phase, Phase::kRound);
  EXPECT_EQ(rec.events()[0].ts_us, 5u);
  EXPECT_EQ(rec.events()[0].dur_us, 9u);

  // Merging the same block again doubles the counter (merge is additive).
  rec.merge_words(block.data(), block.size());
  EXPECT_EQ(by_name("c").value(), 22u);
}

TEST(Recorder, MergeRejectsMalformedBlocks) {
  Recorder rec;
  rec.metrics().counter("c").add(1);
  std::vector<std::uint64_t> block = rec.drain_words();

  Recorder target;
  std::vector<std::uint64_t> bad = block;
  bad[0] ^= 1;  // wrong magic
  EXPECT_THROW(target.merge_words(bad.data(), bad.size()), CheckError);
  EXPECT_THROW(target.merge_words(block.data(), block.size() - 1),
               CheckError);
}

// ---- JSON writers --------------------------------------------------------

/// Minimal recursive-descent JSON validator. The repo deliberately has no
/// JSON dependency; "the exporters emit parseable JSON" is the property
/// CI's `python3 -m json.tool` gate relies on, so the test asserts it
/// in-process too.
class JsonValidator {
 public:
  static bool valid(const std::string& text) {
    JsonValidator v(text);
    v.ws();
    if (!v.value()) return false;
    v.ws();
    return v.pos_ == v.text_.size();
  }

 private:
  explicit JsonValidator(const std::string& text) : text_(text) {}
  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  void ws() {
    while (!eof() && (peek() == ' ' || peek() == '\n' || peek() == '\t' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }
  bool lit(const char* s) {
    for (; *s != '\0'; ++s) {
      if (eof() || peek() != *s) return false;
      ++pos_;
    }
    return true;
  }
  bool value() {
    if (eof()) return false;
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return lit("true");
      case 'f':
        return lit("false");
      case 'n':
        return lit("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (eof() || peek() != ':') return false;
      ++pos_;
      ws();
      if (!value()) return false;
      ws();
      if (!eof() && peek() == ',') {
        ++pos_;
        continue;
      }
      if (!eof() && peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      ws();
      if (!value()) return false;
      ws();
      if (!eof() && peek() == ',') {
        ++pos_;
        continue;
      }
      if (!eof() && peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool string() {
    if (eof() || peek() != '"') return false;
    ++pos_;
    while (!eof() && peek() != '"') {
      if (peek() == '\\') {
        ++pos_;
        if (eof()) return false;
      }
      ++pos_;
    }
    if (eof()) return false;
    ++pos_;  // closing '"'
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof() &&
           (std::isdigit(static_cast<unsigned char>(peek())) != 0 ||
            peek() == '.' || peek() == 'e' || peek() == 'E' ||
            peek() == '+' || peek() == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(JsonValidator, SanityOnHandWrittenCases) {
  EXPECT_TRUE(JsonValidator::valid(R"({"a": [1, 2.5, "x\"y"], "b": {}})"));
  EXPECT_TRUE(JsonValidator::valid("[]"));
  EXPECT_FALSE(JsonValidator::valid("{"));
  EXPECT_FALSE(JsonValidator::valid(R"({"a": 1,})"));
  EXPECT_FALSE(JsonValidator::valid(R"({"a": 1} trailing)"));
}

// ---- Instrumented runs ---------------------------------------------------

const algo::Spec& mis_spec() { return algo::find("mis"); }

algo::RunContext context_for(const graph::Graph& g, Recorder* rec,
                             const runtime::RuntimeConfig& config) {
  algo::RunContext ctx;
  ctx.graph = &g;
  ctx.seed = 9;
  ctx.params = algo::Params::parse(mis_spec().params, {});
  ctx.factory = runtime::make_executor_factory(config, {}, rec);
  ctx.sequential_runtime = runtime::is_sequential(config);
  ctx.recorder = rec;
  return ctx;
}

/// The deterministic counter totals of one instrumented run, keyed by name.
std::map<std::string, std::uint64_t> deterministic_counters(
    const std::vector<MetricSnapshot>& metrics) {
  std::map<std::string, std::uint64_t> out;
  for (const MetricSnapshot& m : metrics) {
    if (m.name == "rounds.live_nodes" || m.name == "rounds.messages" ||
        m.name == "rounds.payload_words" || m.name == "rounds.executed") {
      out[m.name] = m.value();
    }
  }
  return out;
}

TEST(Recorder, SequentialRunEmitsSpansAndValidJson) {
  Rng rng(11);
  const graph::Graph g = graph::gen::gnp(60, 0.12, rng);
  Recorder rec;
  const algo::Result result =
      algo::execute(mis_spec(), context_for(g, &rec, {}));
  EXPECT_TRUE(result.verified);
  EXPECT_FALSE(result.metrics.empty());
  EXPECT_FALSE(rec.events().empty());

  // One kRound span per executed round, timestamps monotone per phase.
  std::size_t round_spans = 0;
  std::uint64_t last_ts = 0;
  for (const TraceEvent& e : rec.events()) {
    if (e.phase == Phase::kRound) {
      ++round_spans;
      EXPECT_GE(e.ts_us, last_ts);
      last_ts = e.ts_us;
    }
  }
  EXPECT_EQ(round_spans, result.executed_rounds);

  std::ostringstream trace;
  rec.write_trace_json(trace);
  EXPECT_TRUE(JsonValidator::valid(trace.str())) << trace.str();
  EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);

  std::ostringstream metrics;
  write_metrics_json(metrics, {{"algo", "mis"}, {"seed", "9"}},
                     rec.metrics().snapshot());
  EXPECT_TRUE(JsonValidator::valid(metrics.str())) << metrics.str();
  EXPECT_NE(metrics.str().find("\"rounds.messages\""), std::string::npos);

  std::ostringstream table;
  rec.write_stats_table(table);
  EXPECT_NE(table.str().find("rounds.messages"), std::string::npos);
}

TEST(Recorder, MpRunHasOneLanePerWorkerAndMonotoneTimestamps) {
  Rng rng(11);
  const graph::Graph g = graph::gen::gnp(60, 0.12, rng);
  Recorder rec;
  runtime::RuntimeConfig config;
  config.kind = runtime::RuntimeKind::kMultiProcess;
  config.workers = 2;
  const algo::Result result =
      algo::execute(mis_spec(), context_for(g, &rec, config));
  EXPECT_TRUE(result.verified);

  // Both workers' drained blocks were merged: every lane present, and
  // within each (lane, phase) track the timestamps are monotone (that is
  // what makes the Perfetto rendering honest).
  std::map<std::uint32_t, std::size_t> spans_per_lane;
  std::map<std::pair<std::uint32_t, Phase>, std::uint64_t> last_ts;
  for (const TraceEvent& e : rec.events()) {
    ++spans_per_lane[e.lane];
    auto [it, inserted] = last_ts.try_emplace({e.lane, e.phase}, e.ts_us);
    if (!inserted) {
      EXPECT_GE(e.ts_us, it->second)
          << "lane " << e.lane << " phase " << phase_name(e.phase);
      it->second = e.ts_us;
    }
  }
  ASSERT_EQ(spans_per_lane.size(), 2u);
  EXPECT_GT(spans_per_lane[0], 0u);
  EXPECT_GT(spans_per_lane[1], 0u);

  std::ostringstream trace;
  rec.write_trace_json(trace);
  EXPECT_TRUE(JsonValidator::valid(trace.str()));
}

// ---- Cross-runtime determinism -------------------------------------------

TEST(Conformance, DeterministicCountersIdenticalAcrossRuntimes) {
  Rng rng(11);
  const std::vector<std::pair<std::string, graph::Graph>> instances = {
      {"gnp", graph::gen::gnp(60, 0.12, rng)},
      {"torus", graph::gen::torus(7, 6)},
  };
  for (const auto& [label, g] : instances) {
    Recorder seq_rec;
    const algo::Result expected =
        algo::execute(mis_spec(), context_for(g, &seq_rec, {}));
    const auto want = deterministic_counters(expected.metrics);
    ASSERT_EQ(want.size(), 4u) << label;
    EXPECT_GT(want.at("rounds.messages"), 0u) << label;

    for (const char* runtime : {"parallel", "mp"}) {
      runtime::RuntimeConfig config;
      if (std::string(runtime) == "parallel") {
        config.kind = runtime::RuntimeKind::kParallel;
        config.threads = 2;
      } else {
        config.kind = runtime::RuntimeKind::kMultiProcess;
        config.workers = 2;
      }
      Recorder rec;
      const algo::Result got =
          algo::execute(mis_spec(), context_for(g, &rec, config));
      EXPECT_EQ(deterministic_counters(got.metrics), want)
          << label << "/" << runtime;
    }

    // TCP loopback fleet: exit-code checks, not EXPECT — a gtest failure
    // on a forked child rank would die silently with the process.
    net::TcpOptions topts;
    topts.handshake_timeout_ms = 20000;
    topts.round_timeout_ms = 30000;
    const graph::Graph& graph_ref = g;
    const net::LoopbackReport report = net::run_loopback_ranks(
        2, [&](net::LoopbackRank&& lr) -> int {
          net::Socket* first_listen = &lr.listen;
          const std::size_t rank = lr.rank;
          const auto hosts = lr.hosts;
          Recorder rec;
          algo::RunContext ctx;
          ctx.graph = &graph_ref;
          ctx.seed = 9;
          ctx.params = algo::Params::parse(mis_spec().params, {});
          ctx.sequential_runtime = false;
          ctx.recorder = &rec;
          ctx.factory = [&](const graph::Graph& fg,
                            local::IdStrategy strategy, std::uint64_t seed)
              -> std::unique_ptr<local::Executor> {
            net::TcpNetworkConfig config;
            config.rank = rank;
            config.hosts = hosts;
            config.transport = topts;
            config.listen = std::move(*first_listen);
            auto exec = std::make_unique<net::TcpNetwork>(
                fg, strategy, seed, std::move(config));
            exec->set_recorder(&rec);
            return exec;
          };
          const algo::Result got = algo::execute(mis_spec(), ctx);
          if (!got.verified) return 3;
          if (got.output_words != expected.output_words) return 4;
          if (deterministic_counters(got.metrics) != want) return 5;
          // The merged trace must have one lane per rank.
          bool lane0 = false;
          bool lane1 = false;
          for (const TraceEvent& e : rec.events()) {
            if (e.lane == 0) lane0 = true;
            if (e.lane == 1) lane1 = true;
          }
          if (!lane0 || !lane1) return 6;
          return 0;
        });
    EXPECT_TRUE(report.all_ok()) << label;
  }
}

// ---- Round span nesting ---------------------------------------------------

/// The first violation of the round clock's nesting contract in `events`
/// ("" when none), lane by lane: round r's phase spans lie inside the
/// lane's kRound span for r and do not overlap one another, and
/// consecutive kRound spans do not overlap. Lanes without kRound spans
/// (parallel shards past lane 0) only carry kEpoch spans and are skipped.
std::string nesting_violation(const std::vector<TraceEvent>& events) {
  std::map<std::pair<std::uint32_t, std::uint64_t>, TraceEvent> rounds;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::vector<TraceEvent>>
      phases;
  std::set<std::uint32_t> round_lanes;
  for (const TraceEvent& e : events) {
    if (e.phase == Phase::kRound) {
      round_lanes.insert(e.lane);
      if (!rounds.emplace(std::make_pair(e.lane, e.round), e).second) {
        return "two round spans for lane " + std::to_string(e.lane) +
               " round " + std::to_string(e.round);
      }
    } else if (e.phase != Phase::kGather) {
      phases[{e.lane, e.round}].push_back(e);
    }
  }
  const auto where = [](const TraceEvent& e) {
    return std::string(phase_name(e.phase)) + " lane " +
           std::to_string(e.lane) + " round " + std::to_string(e.round);
  };
  const TraceEvent* prev = nullptr;
  for (const auto& [key, round] : rounds) {
    if (prev != nullptr && prev->lane == round.lane &&
        prev->ts_us + prev->dur_us > round.ts_us) {
      return "overlapping round spans: " + where(*prev) + " and " +
             where(round);
    }
    prev = &round;
  }
  for (auto& [key, spans] : phases) {
    if (round_lanes.count(key.first) == 0) continue;
    const auto it = rounds.find(key);
    if (it == rounds.end()) return "no round span for " + where(spans[0]);
    const TraceEvent& round = it->second;
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.ts_us < b.ts_us;
              });
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const TraceEvent& e = spans[i];
      if (e.ts_us < round.ts_us ||
          e.ts_us + e.dur_us > round.ts_us + round.dur_us) {
        return where(e) + " outside its round span";
      }
      if (i > 0 && spans[i - 1].ts_us + spans[i - 1].dur_us > e.ts_us) {
        return where(spans[i - 1]) + " overlaps " + where(e);
      }
    }
  }
  return "";
}

/// The first RoundStats whose phase seconds add up to more than its wall
/// time ("" when none). The slack absorbs the rounding of summing
/// separately converted nanosecond durations.
std::string stats_violation(const std::vector<local::RoundStats>& stats) {
  for (const local::RoundStats& s : stats) {
    const double phases = s.send_seconds + s.ship_seconds +
                          s.barrier_seconds + s.patch_seconds +
                          s.receive_seconds;
    if (phases > s.wall_seconds + 1e-9) {
      return "round " + std::to_string(s.round) + ": phases " +
             std::to_string(phases) + " s > wall " +
             std::to_string(s.wall_seconds) + " s";
    }
  }
  return "";
}

TEST(RoundClock, PhaseSpansNestInRoundSpansOnEveryRuntime) {
  Rng rng(23);
  const graph::Graph g = graph::gen::gnp(90, 0.06, rng);
  const auto probe = probes::probe_factory();

  runtime::RuntimeConfig parallel;
  parallel.kind = runtime::RuntimeKind::kParallel;
  parallel.threads = 3;
  runtime::RuntimeConfig mp;
  mp.kind = runtime::RuntimeKind::kMultiProcess;
  mp.workers = 2;
  const std::vector<std::pair<std::string, runtime::RuntimeConfig>> configs =
      {{"sequential", {}}, {"parallel", parallel}, {"mp", mp}};
  for (const auto& [label, config] : configs) {
    Recorder rec;
    std::vector<local::RoundStats> stats;
    const auto exec = local::make_executor(
        runtime::make_executor_factory(config, {}, &rec), g,
        local::IdStrategy::kSequential, 5);
    exec->set_stats_sink(
        [&](const local::RoundStats& s) { stats.push_back(s); });
    const std::size_t rounds = exec->run(probe, 100);
    EXPECT_GT(rounds, 1u) << label;
    EXPECT_EQ(stats.size(), rounds) << label;
    EXPECT_FALSE(rec.events().empty()) << label;
    EXPECT_EQ(nesting_violation(rec.ordered_events()), "") << label;
    EXPECT_EQ(stats_violation(stats), "") << label;
  }

  // TCP loopback fleet: exit-code checks, not EXPECT — a gtest failure on
  // a forked child rank would die silently with the process. Rank 0's
  // recorder holds both lanes after the fleet merge; every rank's sink
  // sees the fleet's stats.
  net::TcpOptions topts;
  topts.handshake_timeout_ms = 20000;
  topts.round_timeout_ms = 30000;
  std::string rank0_violation;
  const net::LoopbackReport report = net::run_loopback_ranks(
      2, [&](net::LoopbackRank&& lr) -> int {
        net::TcpNetworkConfig config;
        config.rank = lr.rank;
        config.hosts = std::move(lr.hosts);
        config.listen = std::move(lr.listen);
        config.transport = topts;
        const std::size_t rank = config.rank;
        net::TcpNetwork net(g, local::IdStrategy::kSequential, 5,
                            std::move(config));
        Recorder rec;
        net.set_recorder(&rec);
        std::vector<local::RoundStats> stats;
        net.set_stats_sink(
            [&](const local::RoundStats& s) { stats.push_back(s); });
        const std::size_t rounds = net.run(probe, 100);
        if (stats.size() != rounds) return 3;
        if (!stats_violation(stats).empty()) return 4;
        if (rank != 0) return 0;
        std::set<std::uint32_t> lanes;
        for (const TraceEvent& e : rec.events()) lanes.insert(e.lane);
        if (lanes != std::set<std::uint32_t>{0, 1}) return 5;
        rank0_violation = nesting_violation(rec.ordered_events());
        return rank0_violation.empty() ? 0 : 6;
      });
  EXPECT_TRUE(report.all_ok()) << "rank0=" << report.rank0;
  EXPECT_EQ(rank0_violation, "");
}

TEST(Conformance, UnobservedRunsStayUnobserved) {
  // A null recorder must leave the result's metrics empty — the disabled
  // path is the default and must not grow state behind the user's back.
  Rng rng(11);
  const graph::Graph g = graph::gen::gnp(40, 0.15, rng);
  const algo::Result result =
      algo::execute(mis_spec(), context_for(g, nullptr, {}));
  EXPECT_TRUE(result.verified);
  EXPECT_TRUE(result.metrics.empty());
}

}  // namespace
}  // namespace ds::obs
