// Tests for the multi-process executor: the determinism contract — for a
// fixed (graph, IdStrategy, seed), DistributedNetwork must produce
// bit-identical per-node outputs, round counts and RoundStats to the
// sequential Network at every worker count — plus the executor-portable
// output gather, the abort paths, and a >= 100k-node stress instance.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coloring/randcolor.hpp"
#include "determinism_probe.hpp"
#include "dist/distributed_network.hpp"
#include "graph/generators.hpp"
#include "local/network.hpp"
#include "local/round_stats.hpp"
#include "mis/mis.hpp"
#include "orient/sinkless.hpp"
#include "runtime/select.hpp"
#include "support/check.hpp"

namespace ds::dist {
namespace {

// The probe program is shared with the thread-runtime determinism suite
// (tests/determinism_probe.hpp), so the two suites pin the same traffic
// pattern against every executor.
using probes::probe_factory;

local::OutputFn probe_output_fn() {
  return [](graph::NodeId, const local::NodeProgram& p,
            std::vector<std::uint64_t>& out) {
    out.push_back(static_cast<const probes::ProbeBase&>(p).digest());
  };
}

std::vector<std::uint64_t> probe_digests(local::Executor& exec,
                                         std::size_t* rounds = nullptr) {
  exec.set_output_fn(probe_output_fn());
  const std::size_t r = exec.run(probe_factory(), 100);
  if (rounds != nullptr) *rounds = r;
  std::vector<std::uint64_t> digests(exec.graph().num_nodes());
  for (graph::NodeId v = 0; v < digests.size(); ++v) {
    digests[v] = exec.outputs().value(v);
  }
  return digests;
}

void expect_bit_identical(const graph::Graph& g, local::IdStrategy strategy,
                          std::uint64_t seed) {
  local::Network sequential(g, strategy, seed);
  std::size_t seq_rounds = 0;
  const auto expected = probe_digests(sequential, &seq_rounds);
  for (std::size_t workers : {1, 2, 4}) {
    DistributedConfig config;
    config.workers = workers;
    DistributedNetwork mp(g, strategy, seed, config);
    EXPECT_EQ(mp.uids(), sequential.uids());
    std::size_t mp_rounds = 0;
    const auto got = probe_digests(mp, &mp_rounds);
    EXPECT_EQ(mp_rounds, seq_rounds) << "workers=" << workers;
    EXPECT_EQ(got, expected) << "workers=" << workers;
  }
}

// ---- Determinism suite ---------------------------------------------------

TEST(DistributedDeterminism, Gnp) {
  Rng rng(7);
  const auto g = graph::gen::gnp(300, 0.03, rng);
  expect_bit_identical(g, local::IdStrategy::kRandomPermutation, 11);
}

TEST(DistributedDeterminism, Torus) {
  const auto g = graph::gen::torus(20, 20);
  expect_bit_identical(g, local::IdStrategy::kSequential, 3);
}

TEST(DistributedDeterminism, RandomBiregular) {
  Rng rng(5);
  const auto b = graph::gen::random_biregular(120, 240, 6, rng);
  expect_bit_identical(b.unified(), local::IdStrategy::kDegreeDescending, 9);
}

TEST(DistributedDeterminism, BarabasiAlbertSkew) {
  // Preferential attachment: hub nodes concentrate cut edges on one worker —
  // the worst case for the halo tables.
  Rng rng(13);
  const auto g = graph::gen::barabasi_albert(2000, 4, rng);
  expect_bit_identical(g, local::IdStrategy::kRandomPermutation, 17);
}

TEST(DistributedDeterminism, StressHundredThousandNodes) {
  // >= 100k nodes: torus 370x370 = 136,900 (also exercised under ASan/UBSan
  // in the sanitizer CI job).
  const auto g = graph::gen::torus(370, 370);
  local::Network sequential(g, local::IdStrategy::kSequential, 123);
  const auto expected = probe_digests(sequential);
  DistributedConfig config;
  config.workers = 2;
  DistributedNetwork mp(g, local::IdStrategy::kSequential, 123, config);
  EXPECT_EQ(probe_digests(mp), expected);
}

// Algorithm-level equality through the ExecutorFactory plumbing: Luby MIS,
// trial coloring and the sinkless-orientation program, at 2 and 4 workers.
TEST(DistributedDeterminism, LubyTrialColoringSinkless) {
  Rng rng(2);
  const auto g = graph::gen::random_regular(384, 8, rng);
  const auto seq_mis = mis::luby(g, 77);
  const auto seq_col = coloring::randomized_coloring(g, 78);
  const auto seq_orient = orient::sinkless_program(g, 79, 3);
  for (std::size_t workers : {2, 4}) {
    runtime::RuntimeConfig config;
    config.kind = runtime::RuntimeKind::kMultiProcess;
    config.workers = workers;
    const auto executor = runtime::make_executor_factory(config);

    const auto mp_mis = mis::luby(g, 77, nullptr, 10000,
                                  local::IdStrategy::kSequential, executor);
    EXPECT_EQ(mp_mis.in_mis, seq_mis.in_mis) << "workers=" << workers;
    EXPECT_EQ(mp_mis.executed_rounds, seq_mis.executed_rounds);

    const auto mp_col = coloring::randomized_coloring(
        g, 78, nullptr, 10000, local::IdStrategy::kSequential, executor);
    EXPECT_EQ(mp_col.colors, seq_col.colors) << "workers=" << workers;
    EXPECT_EQ(mp_col.num_colors, seq_col.num_colors);
    EXPECT_EQ(mp_col.executed_rounds, seq_col.executed_rounds);

    const auto mp_orient =
        orient::sinkless_program(g, 79, 3, nullptr, 30, executor);
    EXPECT_EQ(mp_orient.toward_v, seq_orient.toward_v)
        << "workers=" << workers;
    EXPECT_EQ(mp_orient.executed_rounds, seq_orient.executed_rounds);
    EXPECT_EQ(mp_orient.trials, seq_orient.trials);
  }
}

TEST(DistributedRoundStats, MatchesSequentialExecutor) {
  Rng rng(31);
  const auto g = graph::gen::gnp(200, 0.03, rng);
  local::Network seq(g, local::IdStrategy::kSequential, 8);
  DistributedConfig config;
  config.workers = 3;
  DistributedNetwork mp(g, local::IdStrategy::kSequential, 8, config);
  std::vector<local::RoundStats> seq_stats;
  std::vector<local::RoundStats> mp_stats;
  seq.set_stats_sink([&](const local::RoundStats& s) {
    seq_stats.push_back(s);
  });
  mp.set_stats_sink([&](const local::RoundStats& s) {
    mp_stats.push_back(s);
  });
  const std::size_t seq_rounds = seq.run(probe_factory(), 100);
  const std::size_t mp_rounds = mp.run(probe_factory(), 100);
  EXPECT_EQ(seq_rounds, mp_rounds);
  ASSERT_EQ(seq_stats.size(), seq_rounds);
  ASSERT_EQ(mp_stats.size(), mp_rounds);
  for (std::size_t r = 0; r < seq_stats.size(); ++r) {
    EXPECT_EQ(mp_stats[r].round, r);
    EXPECT_EQ(seq_stats[r].live_nodes, mp_stats[r].live_nodes) << r;
    EXPECT_EQ(seq_stats[r].messages, mp_stats[r].messages) << r;
    EXPECT_EQ(seq_stats[r].payload_words, mp_stats[r].payload_words) << r;
    EXPECT_GE(mp_stats[r].wall_seconds, 0.0);
  }
}

// ---- Executor behavior ---------------------------------------------------

TEST(DistributedNetwork, CostMeterAndReuse) {
  const auto g = graph::gen::torus(8, 8);
  DistributedConfig config;
  config.workers = 2;
  DistributedNetwork net(g, local::IdStrategy::kSequential, 4, config);
  local::CostMeter meter;
  net.set_output_fn(probe_output_fn());
  const std::size_t r1 = net.run(probe_factory(), 100, &meter);
  EXPECT_EQ(meter.executed_rounds(), r1);
  // Re-running the same executor (a fresh worker fleet per run) must be
  // deterministic too.
  const auto first = probe_digests(net);
  const auto second = probe_digests(net);
  EXPECT_EQ(first, second);
}

TEST(DistributedNetwork, ThrowsWhenRoundLimitHit) {
  const auto g = graph::gen::cycle(16);
  DistributedConfig config;
  config.workers = 2;
  DistributedNetwork net(g, local::IdStrategy::kSequential, 1, config);
  EXPECT_THROW(net.run(probe_factory(), 2), ds::CheckError);
  // The executor must stay usable after the aborted fleet is torn down.
  EXPECT_GT(net.run(probe_factory(), 100), 2u);
}

TEST(DistributedNetwork, HaloOverflowAbortsCleanly) {
  // A program whose cut messages exceed the transport reservation must fail
  // loudly (naming the knob) in every worker, not hang or corrupt.
  const auto g = graph::gen::complete(16);
  DistributedConfig config;
  config.workers = 2;
  config.halo_words_per_port = 1;  // floor is 64 words/pair; send > that
  DistributedNetwork net(g, local::IdStrategy::kSequential, 5, config);
  const auto chatty = [](const local::NodeEnv& env) {
    class Chatty final : public local::NodeProgram {
     public:
      explicit Chatty(std::size_t degree) : degree_(degree) {}
      void send(std::size_t, local::Outbox& out) override {
        for (std::size_t p = 0; p < degree_; ++p) {
          const std::vector<std::uint64_t> payload(64, p);
          out.write(p, payload.data(), payload.size());
        }
      }
      void receive(std::size_t, const local::Inbox&) override {
        done_ = true;
      }
      [[nodiscard]] bool done() const override { return done_; }

     private:
      std::size_t degree_;
      bool done_ = false;
    };
    return std::make_unique<Chatty>(env.degree);
  };
  try {
    net.run(chatty, 10);
    FAIL() << "expected halo overflow";
  } catch (const ds::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("halo"), std::string::npos);
  }
}

// A process-local count of factory calls. Each worker is a forked copy of
// the calling process, so it counts only the calls made in that worker.
std::uint64_t g_factory_calls = 0;

// The factory contract of local/program.hpp: a worker builds the programs of
// its own range and no others.
TEST(DistributedNetwork, EachWorkerBuildsOnlyItsOwnRange) {
  const auto g = graph::gen::torus(12, 12);
  for (const std::size_t workers : {2, 4}) {
    DistributedConfig config;
    config.workers = workers;
    DistributedNetwork net(g, local::IdStrategy::kSequential, 4, config);
    net.set_output_fn([](graph::NodeId, const local::NodeProgram&,
                         std::vector<std::uint64_t>& out) {
      out.push_back(g_factory_calls);
    });
    const local::ProgramFactory probes = probe_factory();
    g_factory_calls = 0;
    net.run(
        [&probes](const local::NodeEnv& env) {
          ++g_factory_calls;
          return probes(env);
        },
        100);
    const Partition& part = net.partition();
    ASSERT_EQ(part.num_workers(), workers);
    for (std::size_t w = 0; w < workers; ++w) {
      for (graph::NodeId v = part.first_node(w); v < part.last_node(w); ++v) {
        EXPECT_EQ(net.outputs().value(v), part.num_nodes(w))
            << "workers=" << workers << " worker=" << w << " node=" << v;
      }
    }
  }
}

TEST(DistributedNetwork, DegenerateInstances) {
  // More workers than nodes: the fleet is clamped to the node count (an
  // empty range would pay fork + barrier costs for nothing) and the run
  // must still be bit-identical to the sequential executor.
  const auto small = graph::gen::cycle(3);
  expect_bit_identical(small, local::IdStrategy::kSequential, 2);
  {
    DistributedConfig config;
    config.workers = 8;
    DistributedNetwork net(small, local::IdStrategy::kSequential, 2, config);
    EXPECT_EQ(net.num_workers(), 3u);
  }

  // Isolated nodes only (no edges at all, nothing to exchange).
  const graph::Graph isolated(5);
  expect_bit_identical(isolated, local::IdStrategy::kSequential, 6);

  // Empty graph: zero rounds, empty output table.
  const graph::Graph empty(0);
  DistributedConfig config;
  config.workers = 2;
  DistributedNetwork net(empty, local::IdStrategy::kSequential, 1, config);
  net.set_output_fn(probe_output_fn());
  EXPECT_EQ(net.run(probe_factory(), 10), 0u);
  EXPECT_EQ(net.outputs().size(), 0u);
}

TEST(DistributedNetwork, DegreeSizedOutputRowsFitTheGather) {
  // Regression: the gather reservation must accommodate degree-proportional
  // output rows (e.g. sinkless ships one word per port) even when the
  // degree-balanced split gives one worker a single huge-degree hub and
  // nothing else — a flat per-node budget used to overflow here while the
  // in-process executors succeeded.
  std::vector<graph::Edge> spokes;
  for (graph::NodeId v = 1; v < 201; ++v) spokes.push_back({0, v});
  const graph::Graph star(201, std::move(spokes));
  // Worker 0 owns exactly the hub (its 200 ports are half of all ports).
  DistributedConfig config;
  config.workers = 2;
  DistributedNetwork mp(star, local::IdStrategy::kSequential, 1, config);
  ASSERT_EQ(mp.partition().last_node(0), 1u);
  mp.set_output_fn([](graph::NodeId v, const local::NodeProgram& p,
                      std::vector<std::uint64_t>& out) {
    const auto& probe = static_cast<const probes::ProbeBase&>(p);
    // Degree-sized row: 200 words for the hub, 1 for each leaf.
    out.assign(v == 0 ? 200 : 1, probe.digest());
  });
  local::Network seq(star, local::IdStrategy::kSequential, 1);
  seq.set_output_fn([](graph::NodeId v, const local::NodeProgram& p,
                       std::vector<std::uint64_t>& out) {
    const auto& probe = static_cast<const probes::ProbeBase&>(p);
    out.assign(v == 0 ? 200 : 1, probe.digest());
  });
  EXPECT_EQ(mp.run(probe_factory(), 100), seq.run(probe_factory(), 100));
  for (graph::NodeId v = 0; v < 201; ++v) {
    ASSERT_EQ(mp.outputs().row(v).size(), seq.outputs().row(v).size()) << v;
    EXPECT_EQ(mp.outputs().row(v)[0], seq.outputs().row(v)[0]) << v;
  }
}

TEST(DistributedNetwork, TransportKnobsReachTheExecutor) {
  // --halo-words / --gather-words are the escape hatch the overflow
  // messages name; they must parse and actually relax the reservations.
  const char* argv[] = {"x", "--runtime=mp", "--workers=2",
                        "--halo-words=1024", "--gather-words=512"};
  const auto config = runtime::runtime_from_options(Options(5, argv));
  EXPECT_EQ(config.halo_words, 1024u);
  EXPECT_EQ(config.gather_words, 512u);
  const auto factory = runtime::make_executor_factory(config);
  const auto g = graph::gen::torus(8, 8);
  const auto exec =
      factory(g, local::IdStrategy::kSequential, 3);
  exec->set_output_fn(probe_output_fn());
  local::Network seq(g, local::IdStrategy::kSequential, 3);
  EXPECT_EQ(probe_digests(*exec), probe_digests(seq));
}

TEST(DistributedNetwork, PartitionStatsExposed) {
  const auto g = graph::gen::torus(16, 16);
  DistributedConfig config;
  config.workers = 4;
  DistributedNetwork net(g, local::IdStrategy::kSequential, 9, config);
  const PartitionStats stats = net.partition().stats();
  EXPECT_EQ(stats.parts, 4u);
  EXPECT_EQ(stats.cut_edges + stats.internal_edges, g.num_edges());
  EXPECT_GT(stats.cut_edges, 0u);
  EXPECT_GE(stats.balance_factor, 1.0);
  EXPECT_LT(stats.balance_factor, 2.0);
}

}  // namespace
}  // namespace ds::dist
