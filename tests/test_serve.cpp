// Tests for the serving subsystem (src/serve/): the request/response codec
// (round-trip + garbage rejection), the bounded request queue's
// never-blocking backpressure, the structure-keyed partition cache, and
// the resident daemon end to end on loopback fleets — sequential and
// concurrent submissions bit-identical to one-shot execution over one
// standing rendezvous, graceful-shutdown drain (backlog included),
// microsecond latency, per-run obs deltas, and a dead follower flipping
// the fleet unhealthy instead of hanging clients.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/registry.hpp"
#include "graph/generators.hpp"
#include "local/ids.hpp"
#include "local/topology.hpp"
#include "net/frame.hpp"
#include "net/loopback.hpp"
#include "net/rendezvous.hpp"
#include "obs/publish.hpp"
#include "obs/recorder.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/partition_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/request_queue.hpp"
#include "support/check.hpp"

namespace ds::serve {
namespace {

// ---- Codec ---------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTrip) {
  Request req;
  req.id = 42;
  req.algo = "mis";
  req.seed = 7;
  req.params = {{"max-rounds", "500"}, {"ids", "random"}};
  const std::vector<std::uint64_t> words = encode_request(req);
  const Request back = decode_request(words.data(), words.size());
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.algo, "mis");
  EXPECT_EQ(back.seed, 7u);
  EXPECT_EQ(back.params, req.params);
}

TEST(ServeProtocol, ResponseRoundTrip) {
  Response resp;
  resp.id = 9;
  resp.status = Status::kOk;
  resp.output_digest = 0xdeadbeefcafef00dull;
  resp.rounds = 13;
  resp.wall_us = 250000;
  resp.brief = "mis: mis-size=5 verified=yes";
  const std::vector<std::uint64_t> words = encode_response(resp);
  const Response back = decode_response(words.data(), words.size());
  EXPECT_EQ(back.id, 9u);
  EXPECT_EQ(back.status, Status::kOk);
  EXPECT_EQ(back.output_digest, 0xdeadbeefcafef00dull);
  EXPECT_EQ(back.rounds, 13u);
  EXPECT_EQ(back.wall_us, 250000u);
  EXPECT_EQ(back.brief, resp.brief);
}

TEST(ServeProtocol, MalformedPayloadsAreRejected) {
  Request req;
  req.id = 1;
  req.algo = "color";
  req.params = {{"eps", "0.25"}};
  std::vector<std::uint64_t> words = encode_request(req);

  // Empty and truncated payloads.
  EXPECT_THROW(decode_request(words.data(), 0), ds::CheckError);
  EXPECT_THROW(decode_request(words.data(), 2), ds::CheckError);
  EXPECT_THROW(decode_request(words.data(), words.size() - 1), ds::CheckError);

  // A version the codec does not speak.
  std::vector<std::uint64_t> wrong = words;
  wrong[0] = kServeProtocolVersion + 1;
  EXPECT_THROW(decode_request(wrong.data(), wrong.size()), ds::CheckError);

  // A parameter count pointing past the payload.
  std::vector<std::uint64_t> lying = words;
  lying[3] = 1000;
  EXPECT_THROW(decode_request(lying.data(), lying.size()), ds::CheckError);

  // The response decoder survives the same abuse.
  Response resp;
  resp.brief = "ok";
  std::vector<std::uint64_t> rwords = encode_response(resp);
  EXPECT_THROW(decode_response(rwords.data(), 0), ds::CheckError);
  EXPECT_THROW(decode_response(rwords.data(), rwords.size() - 1),
               ds::CheckError);
  rwords[0] = kServeProtocolVersion + 5;
  EXPECT_THROW(decode_response(rwords.data(), rwords.size()), ds::CheckError);
}

TEST(ServeProtocol, ParamsDigestFingerprintsOverrides) {
  const std::uint64_t none = params_digest({});
  const std::uint64_t eps = params_digest({{"eps", "0.1"}});
  const std::uint64_t eps2 = params_digest({{"eps", "0.2"}});
  EXPECT_NE(none, eps);
  EXPECT_NE(eps, eps2);
  EXPECT_EQ(eps, params_digest({{"eps", "0.1"}}));
}

// ---- Request queue -------------------------------------------------------

TEST(RequestQueue, BackpressureRefusesWithoutBlocking) {
  RequestQueue q(2);
  PendingRequest a;
  a.request.id = 1;
  PendingRequest b;
  b.request.id = 2;
  EXPECT_TRUE(q.try_push(std::move(a)));
  EXPECT_TRUE(q.try_push(std::move(b)));
  EXPECT_EQ(q.depth(), 2u);

  // The refusal must be immediate — try_push never waits for room.
  PendingRequest c;
  c.request.id = 3;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.try_push(std::move(c)));
  const double refused_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(refused_s, 0.1);
  EXPECT_EQ(q.rejected(), 1u);

  // FIFO order, and room reopens after a pop.
  PendingRequest out;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out.request.id, 1u);
  PendingRequest d;
  d.request.id = 4;
  EXPECT_TRUE(q.try_push(std::move(d)));

  // close(): no further pushes, but the queued entries stay poppable (the
  // shutdown drain relies on exactly this).
  q.close();
  PendingRequest e;
  EXPECT_FALSE(q.try_push(std::move(e)));
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out.request.id, 2u);
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out.request.id, 4u);
  EXPECT_FALSE(q.try_pop(out));
  EXPECT_FALSE(q.pop_wait(out, 10));
}

// ---- Partition cache -----------------------------------------------------

TEST(PartitionCache, HitsAcrossSeedsAndIdStrategiesOfOneGraph) {
  Rng rng(3);
  const graph::Graph g = graph::gen::gnp(30, 0.2, rng);
  const graph::Graph other = graph::gen::gnp(30, 0.2, rng);
  // Two seeds and a random ID assignment of one graph: a partition reads
  // only the structure, so all three build the identical partition...
  const local::NetworkTopology seq1(g, local::IdStrategy::kSequential, 1);
  const local::NetworkTopology seq2(g, local::IdStrategy::kSequential, 2);
  const local::NetworkTopology random3(
      g, local::IdStrategy::kRandomPermutation, 3);
  const dist::Partition reference(seq1, 2);
  for (const local::NetworkTopology* topo : {&seq2, &random3}) {
    const dist::Partition p(*topo, 2);
    EXPECT_EQ(p.boundaries(), reference.boundaries());
    for (std::size_t w = 0; w < 2; ++w) {
      EXPECT_EQ(p.local_delivery(w), reference.local_delivery(w));
    }
  }

  // ...and the daemon's key (structure digest salted with the rank count)
  // makes every one of them a hit after the first build.
  PartitionCache cache(8);
  std::size_t builds = 0;
  const auto get = [&](const local::NetworkTopology& topo,
                       const graph::Graph& graph, std::size_t ranks) {
    return cache.get_or_build(net::structure_digest(graph, ranks), [&] {
      ++builds;
      return dist::Partition(topo, ranks);
    });
  };
  const auto p1 = get(seq1, g, 2);
  const auto p2 = get(seq2, g, 2);
  const auto p3 = get(random3, g, 2);
  EXPECT_EQ(builds, 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(p1.get(), p3.get());

  // Another rank count or another graph is a miss.
  const auto p4 = get(seq1, g, 3);
  const local::NetworkTopology other_topo(other, local::IdStrategy::kSequential,
                                          1);
  const auto p5 = get(other_topo, other, 2);
  EXPECT_EQ(builds, 3u);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_NE(p1.get(), p4.get());
  EXPECT_NE(p1.get(), p5.get());
  EXPECT_EQ(cache.size(), 3u);
}

TEST(PartitionCache, EvictsLeastRecentlyUsedPastCapacity) {
  Rng rng(4);
  const graph::Graph g = graph::gen::gnp(20, 0.2, rng);
  const local::NetworkTopology topo(g, local::IdStrategy::kSequential, 1);
  PartitionCache cache(2);
  std::size_t builds = 0;
  const auto build = [&] {
    ++builds;
    return dist::Partition(topo, 2);
  };
  // Keys are arbitrary digests: the cache never inspects the partitions.
  (void)cache.get_or_build(101, build);
  (void)cache.get_or_build(102, build);
  (void)cache.get_or_build(101, build);  // refresh 101: 102 is now LRU
  (void)cache.get_or_build(103, build);  // evicts 102
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(builds, 3u);
  (void)cache.get_or_build(101, build);  // still resident
  EXPECT_EQ(builds, 3u);
  (void)cache.get_or_build(102, build);  // evicted: rebuilt
  EXPECT_EQ(builds, 4u);
}

// ---- Daemon --------------------------------------------------------------

// The sequential reference digest the served runs must match bit-for-bit.
std::uint64_t one_shot_digest(const graph::Graph& g, const std::string& name,
                              std::uint64_t seed) {
  const algo::Spec& spec = algo::find(name);
  algo::RunContext ctx;
  ctx.graph = &g;
  ctx.seed = seed;
  ctx.params = algo::Params::parse(spec.params, {});
  ctx.sequential_runtime = true;
  return algo::execute(spec, ctx).output_digest();
}

Request make_request(std::uint64_t id, const std::string& algo,
                     std::uint64_t seed) {
  Request req;
  req.id = id;
  req.algo = algo;
  req.seed = seed;
  return req;
}

DaemonConfig daemon_config(net::LoopbackRank&& lr, const graph::Graph& g) {
  DaemonConfig config;
  config.rank = lr.rank;
  config.hosts = std::move(lr.hosts);
  config.listen = std::move(lr.listen);
  config.graph = &g;
  config.idle_poll_ms = 50;
  return config;
}

TEST(ServeDaemon, ServesSequentialAndConcurrentSubmissionsBitIdentically) {
  Rng rng(11);
  const graph::Graph g = graph::gen::gnp(40, 0.15, rng);
  // mis@7, color@7 and mis@9 run on one graph, and partitions are cached
  // by structure and rank count: 6 requests come to exactly 1 partition
  // build.
  const std::uint64_t mis7 = one_shot_digest(g, "mis", 7);
  const std::uint64_t color7 = one_shot_digest(g, "color", 7);
  const std::uint64_t mis9 = one_shot_digest(g, "mis", 9);

  const net::LoopbackReport report = net::run_loopback_ranks(
      2, [&](net::LoopbackRank&& lr) -> int {
        const std::size_t rank = lr.rank;
        Daemon daemon(daemon_config(std::move(lr), g));
        if (rank != 0) return daemon.run();

        int run_code = -1;
        std::thread runner([&] { run_code = daemon.run(); });
        ClientConfig client;
        client.port = daemon.request_port();
        client.timeout_ms = 60000;

        int rc = 0;
        const auto check = [&](const Response& resp, std::uint64_t id,
                               std::uint64_t digest, int fail_code) {
          if (rc != 0) return;
          if (resp.status != Status::kOk || resp.id != id ||
              resp.output_digest != digest) {
            rc = fail_code;
          }
        };
        // Three sequential submissions over the one standing fleet.
        check(submit(client, make_request(1, "mis", 7)), 1, mis7, 10);
        check(submit(client, make_request(2, "color", 7)), 2, color7, 11);
        check(submit(client, make_request(3, "mis", 9)), 3, mis9, 12);

        // Three concurrent ones: the queue serializes them onto the fleet,
        // every digest still matches the one-shot reference.
        std::vector<Response> concurrent(3);
        {
          std::vector<std::thread> clients;
          const std::vector<std::pair<std::string, std::uint64_t>> jobs = {
              {"mis", 7}, {"color", 7}, {"mis", 9}};
          for (std::size_t i = 0; i < jobs.size(); ++i) {
            clients.emplace_back([&, i] {
              // A client error leaves the default response (id 0), which
              // fails its check below instead of ending the process.
              try {
                concurrent[i] = submit(
                    client,
                    make_request(4 + i, jobs[i].first, jobs[i].second));
              } catch (const std::exception&) {
              }
            });
          }
          for (std::thread& t : clients) t.join();
        }
        check(concurrent[0], 4, mis7, 13);
        check(concurrent[1], 5, color7, 14);
        check(concurrent[2], 6, mis9, 15);

        // An invalid submission is answered kError without touching the
        // fleet (and therefore without breaking it).
        const Response bad = submit(client, make_request(7, "no-such", 1));
        if (rc == 0 && bad.status != Status::kError) rc = 16;
        if (rc == 0 && bad.brief.find("unknown algorithm") == std::string::npos)
          rc = 17;

        daemon.request_shutdown();
        runner.join();
        if (rc != 0) return rc;
        if (run_code != 0) return 18;
        const Daemon::Stats stats = daemon.stats();
        if (stats.served != 6) return 19;
        if (stats.failed != 1) return 20;
        if (stats.cache_misses != 1) return 21;
        if (stats.cache_hits != 5) return 22;
        if (!daemon.fleet_ok()) return 23;
        return 0;
      });
  EXPECT_TRUE(report.all_ok())
      << "rank0=" << report.rank0 << " peers=["
      << (report.peer_exit_codes.empty() ? -1 : report.peer_exit_codes[0])
      << "]";
}

TEST(ServeDaemon, MixedObservabilityFleetServesRepeatedRequestsSafely) {
  // Only rank 0 observes (the --http-port deployment shape). The pre-round
  // observability agreement then makes the non-observing follower record
  // into its fleet recorder, whose counter handles the standing transport
  // keeps between requests; regression coverage for a use-after-free when
  // that recorder lived only as long as one request. Three sequential
  // requests make the follower's transport await dispatches twice after
  // its first run.
  Rng rng(23);
  const graph::Graph g = graph::gen::gnp(32, 0.18, rng);
  const std::uint64_t mis7 = one_shot_digest(g, "mis", 7);
  const std::uint64_t color7 = one_shot_digest(g, "color", 7);
  const std::uint64_t mis9 = one_shot_digest(g, "mis", 9);

  const net::LoopbackReport report = net::run_loopback_ranks(
      2, [&](net::LoopbackRank&& lr) -> int {
        const std::size_t rank = lr.rank;
        obs::Recorder recorder;  // rank 0 only; followers stay bare
        DaemonConfig config = daemon_config(std::move(lr), g);
        if (rank == 0) config.recorder = &recorder;
        Daemon daemon(std::move(config));
        if (rank != 0) return daemon.run();

        int run_code = -1;
        std::thread runner([&] { run_code = daemon.run(); });
        ClientConfig client;
        client.port = daemon.request_port();
        client.timeout_ms = 60000;

        int rc = 0;
        const auto check = [&](const Response& resp, std::uint64_t id,
                               std::uint64_t digest, int fail_code) {
          if (rc != 0) return;
          if (resp.status != Status::kOk || resp.id != id ||
              resp.output_digest != digest) {
            rc = fail_code;
          }
        };
        check(submit(client, make_request(1, "mis", 7)), 1, mis7, 10);
        check(submit(client, make_request(2, "color", 7)), 2, color7, 11);
        check(submit(client, make_request(3, "mis", 9)), 3, mis9, 12);

        daemon.request_shutdown();
        runner.join();
        if (rc != 0) return rc;
        if (run_code != 0) return 13;
        if (daemon.stats().served != 3) return 14;
        if (!daemon.fleet_ok()) return 15;
        // The observing rank's recorder saw every served request.
        for (const obs::MetricSnapshot& m : recorder.metrics().snapshot()) {
          if (m.name == "serve.requests") return m.sum == 3 ? 0 : 16;
        }
        return 17;  // serve.requests never registered
      });
  EXPECT_TRUE(report.all_ok())
      << "rank0=" << report.rank0 << " peers=["
      << (report.peer_exit_codes.empty() ? -1 : report.peer_exit_codes[0])
      << "]";
}

/// One client's outcome: the daemon's answer, or what the client raised.
struct Outcome {
  Response response;
  std::string error;  ///< non-empty when no answer arrived
};

/// The client side of `submit` on an already connected socket, so a test
/// can order connects against the daemon's drain.
Outcome exchange(const net::Socket& sock, const Request& req) {
  Outcome outcome;
  try {
    const std::vector<std::uint64_t> payload = encode_request(req);
    net::write_frame(sock.fd(), net::FrameType::kRequest, /*seq=*/0,
                     payload.data(), payload.size(), "test request");
    const net::Frame frame = net::read_frame(sock.fd(), "test response");
    outcome.response =
        decode_response(frame.payload.data(), frame.payload.size());
  } catch (const std::exception& e) {
    outcome.error = e.what();
  }
  return outcome;
}

net::Socket connect_client(std::uint16_t port, int timeout_ms) {
  net::Socket sock = net::connect_to(net::Endpoint{"127.0.0.1", port},
                                     timeout_ms);
  net::set_io_timeouts(sock.fd(), timeout_ms);
  return sock;
}

/// A single-rank daemon (dispatch short-circuits, so the whole drain stays
/// in-process) stopped through `stop`.
DaemonConfig single_rank_config(const graph::Graph& g,
                                const std::atomic<bool>& stop) {
  net::Socket listen = net::listen_on(net::Endpoint{"127.0.0.1", 0});
  DaemonConfig config;
  config.rank = 0;
  config.hosts = {net::local_endpoint(listen.fd())};
  config.listen = std::move(listen);
  config.graph = &g;
  config.idle_poll_ms = 20;
  config.stop_requested = [&stop] { return stop.load(); };
  return config;
}

TEST(ServeDaemon, GracefulShutdownAnswersEveryClientAndExitsZero) {
  Rng rng(5);
  const graph::Graph g = graph::gen::gnp(30, 0.2, rng);
  std::atomic<bool> stop{false};
  Daemon daemon(single_rank_config(g, stop));

  int run_code = -1;
  std::thread runner([&] { run_code = daemon.run(); });
  ClientConfig client;
  client.port = daemon.request_port();
  client.timeout_ms = 60000;

  // One request served while healthy...
  const Response first = submit(client, make_request(1, "mis", 3));
  ASSERT_EQ(first.status, Status::kOk);
  EXPECT_EQ(first.output_digest, one_shot_digest(g, "mis", 3));

  // ...then a burst racing the shutdown latch. Every burst client is
  // connected before the latch flips (a connect after the drain is refused
  // by design), and each then races its request against the drain: it
  // must still get a terminal answer — kOk if its request was accepted
  // before the drain, kRejected("daemon is draining") after — and the
  // daemon must exit 0. Failures are collected per client, never thrown
  // out of a thread.
  std::vector<Outcome> burst(4);
  std::atomic<std::size_t> connected{0};
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    clients.emplace_back([&, i] {
      try {
        const net::Socket sock = connect_client(client.port, 60000);
        connected.fetch_add(1);
        burst[i] = exchange(sock, make_request(10 + i, "mis", 3));
      } catch (const std::exception& e) {
        connected.fetch_add(1);
        burst[i].error = e.what();
      }
    });
  }
  while (connected.load() < burst.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  runner.join();
  EXPECT_EQ(run_code, 0);

  std::uint64_t ok = 0;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    const Outcome& outcome = burst[i];
    ASSERT_TRUE(outcome.error.empty())
        << "client " << i << " got no answer: " << outcome.error;
    const Response& resp = outcome.response;
    EXPECT_EQ(resp.id, 10 + i);
    if (resp.status == Status::kOk) {
      ++ok;
      EXPECT_EQ(resp.output_digest, one_shot_digest(g, "mis", 3));
    } else {
      ASSERT_EQ(resp.status, Status::kRejected);
      EXPECT_NE(resp.brief.find("draining"), std::string::npos) << resp.brief;
    }
  }
  EXPECT_EQ(daemon.stats().served, ok + 1);

  // Submissions after exit fail to connect at all — the port is gone.
  ClientConfig late = client;
  late.timeout_ms = 2000;
  EXPECT_THROW(submit(late, make_request(99, "mis", 3)), std::exception);
}

TEST(ServeDaemon, DrainAnswersTheBacklogAndClosesThePort) {
  // Deterministic reproducer of the drain race: the accept thread is busy
  // with a client that stalls mid-frame while a second client connects
  // behind it and the drain starts. The second client sits in the listen
  // backlog when the accept thread is told to stop; it must still be
  // answered, and the port must refuse connects as soon as run() returns.
  Rng rng(8);
  const graph::Graph g = graph::gen::gnp(30, 0.2, rng);
  std::atomic<bool> stop{false};
  DaemonConfig config = single_rank_config(g, stop);
  config.client_timeout_ms = 300;  // bounds the stalled client
  Daemon daemon(std::move(config));
  const std::uint16_t port = daemon.request_port();

  int run_code = -1;
  std::thread runner([&] { run_code = daemon.run(); });

  // The stalled client: half a frame header, then silence.
  const net::Socket stalled = connect_client(port, 10000);
  const char partial[4] = {1, 2, 3, 4};
  ASSERT_EQ(::send(stalled.fd(), partial, sizeof(partial), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(partial)));
  // Give the accept thread time to pick the stalled client up (it then
  // blocks reading it); the next connect queues behind it either way.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The client connecting at the drain instant.
  const net::Socket late = connect_client(port, 10000);
  stop.store(true);
  const Outcome answer = exchange(late, make_request(7, "mis", 3));
  runner.join();
  EXPECT_EQ(run_code, 0);

  ASSERT_TRUE(answer.error.empty()) << answer.error;
  EXPECT_EQ(answer.response.id, 7u);
  EXPECT_EQ(answer.response.status, Status::kRejected);
  EXPECT_NE(answer.response.brief.find("draining"), std::string::npos)
      << answer.response.brief;

  // The stalled client got a terminal answer too: kError once its read
  // budget ran out.
  const net::Frame frame = net::read_frame(stalled.fd(), "stalled response");
  const Response stalled_resp =
      decode_response(frame.payload.data(), frame.payload.size());
  EXPECT_EQ(stalled_resp.status, Status::kError);

  // run() closed the request port: a connect is refused at once, while the
  // Daemon object still exists.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  const int err = errno;
  ::close(fd);
  EXPECT_EQ(rc, -1);
  EXPECT_EQ(err, ECONNREFUSED);
}

TEST(ServeDaemon, LatencyHasMicrosecondResolution) {
  Rng rng(9);
  const graph::Graph g = graph::gen::gnp(30, 0.2, rng);
  std::atomic<bool> stop{false};
  Daemon daemon(single_rank_config(g, stop));
  int run_code = -1;
  std::thread runner([&] { run_code = daemon.run(); });
  ClientConfig client;
  client.port = daemon.request_port();
  client.timeout_ms = 60000;
  // Sub-millisecond requests: whole-millisecond timing would report only
  // multiples of 1000 µs.
  std::size_t fine = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const Response resp = submit(client, make_request(i + 1, "mis", 3));
    ASSERT_EQ(resp.status, Status::kOk);
    if (resp.wall_us % 1000 != 0) ++fine;
  }
  stop.store(true);
  runner.join();
  EXPECT_EQ(run_code, 0);
  EXPECT_GT(fine, 0u);
}

TEST(ServeDaemon, ObsBlocksArePerRunDeltasOnAStandingFleet) {
  // Recorders on both ranks of a standing fleet. A drained obs block
  // carries only what its rank recorded since its last drain, so the
  // gathered blocks of identical requests do not grow with the fleet's
  // history (measured as the fleet's tcp bytes per request in rank 0's
  // merged counters), and merged totals are exact: rank 0's
  // rounds.executed is the sum over the served requests.
  Rng rng(31);
  const graph::Graph g = graph::gen::gnp(32, 0.18, rng);
  constexpr std::uint64_t kRequests = 50;

  const net::LoopbackReport report = net::run_loopback_ranks(
      2, [&](net::LoopbackRank&& lr) -> int {
        const std::size_t rank = lr.rank;
        obs::Recorder recorder;
        obs::SnapshotPublisher publisher;
        DaemonConfig config = daemon_config(std::move(lr), g);
        config.recorder = &recorder;
        if (rank == 0) {
          recorder.set_publisher(&publisher);
          config.publisher = &publisher;
        }
        Daemon daemon(std::move(config));
        if (rank != 0) return daemon.run();

        int run_code = -1;
        std::thread runner([&] { run_code = daemon.run(); });
        ClientConfig client;
        client.port = daemon.request_port();
        client.timeout_ms = 60000;

        // The daemon republishes after each request, before answering it.
        const auto tcp_bytes = [&] {
          obs::PublishedSnapshot snap;
          std::uint64_t total = 0;
          if (!publisher.read(snap)) return total;
          for (const obs::PublishedMetric& m : snap.metrics) {
            if (m.name == "tcp.tx.bytes" || m.name == "tcp.rx.bytes") {
              total += m.aggregate().sum;
            }
          }
          return total;
        };
        std::vector<std::uint64_t> per_request;
        std::uint64_t rounds = 0;
        std::uint64_t last = 0;
        int rc = 0;
        for (std::uint64_t i = 1; i <= kRequests && rc == 0; ++i) {
          const Response resp = submit(client, make_request(i, "mis", 7));
          if (resp.status != Status::kOk) rc = 10;
          rounds += resp.rounds;
          const std::uint64_t now = tcp_bytes();
          per_request.push_back(now - last);
          last = now;
        }
        daemon.request_shutdown();
        runner.join();
        if (rc != 0) return rc;
        if (run_code != 0) return 11;
        if (per_request[1] == 0) return 12;  // nothing measured
        if (per_request[kRequests - 1] > per_request[1]) {
          std::cerr << "request " << kRequests << " moved "
                    << per_request[kRequests - 1]
                    << " tcp bytes, request 2 moved " << per_request[1]
                    << "\n";
          return 13;
        }
        for (const obs::MetricSnapshot& m : recorder.metrics().snapshot()) {
          if (m.name == "rounds.executed") {
            if (m.sum == rounds) return 0;
            std::cerr << "rounds.executed " << m.sum << ", served rounds "
                      << rounds << "\n";
            return 14;
          }
        }
        return 15;  // rounds.executed never registered
      });
  EXPECT_TRUE(report.all_ok())
      << "rank0=" << report.rank0 << " peers=["
      << (report.peer_exit_codes.empty() ? -1 : report.peer_exit_codes[0])
      << "]";
}

TEST(ServeDaemon, DeadFollowerFlipsFleetUnhealthyInsteadOfHanging) {
  Rng rng(6);
  const graph::Graph g = graph::gen::gnp(30, 0.2, rng);
  std::vector<pid_t> children;
  const auto t0 = std::chrono::steady_clock::now();
  const net::LoopbackReport report = net::run_loopback_ranks(
      2,
      [&](net::LoopbackRank&& lr) -> int {
        const std::size_t rank = lr.rank;
        Daemon daemon(daemon_config(std::move(lr), g));
        if (rank != 0) return daemon.run();  // idles until SIGKILLed

        int run_code = -1;
        std::thread runner([&] { run_code = daemon.run(); });
        // The fleet is up (the ctor rendezvoused); now kill the follower
        // while the daemon is *idle* — the liveness probe, not a round
        // timeout, must notice.
        if (children.size() == 1) ::kill(children[0], SIGKILL);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (daemon.fleet_ok() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        const bool noticed = !daemon.fleet_ok();

        // A submission against the broken fleet is answered, not hung.
        ClientConfig client;
        client.port = daemon.request_port();
        client.timeout_ms = 30000;
        const Response resp = submit(client, make_request(1, "mis", 3));

        daemon.request_shutdown();
        runner.join();
        if (!noticed) return 10;
        if (resp.status != Status::kRejected) return 11;
        if (resp.brief.find("unhealthy") == std::string::npos) return 12;
        if (run_code != 0) return 13;
        return 0;
      },
      [&](const std::vector<pid_t>& pids) { children = pids; });
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(report.rank0, 0);
  ASSERT_EQ(report.peer_exit_codes.size(), 1u);
  EXPECT_EQ(report.peer_exit_codes[0], 128 + SIGKILL);
  EXPECT_LT(elapsed, 30.0);
}

}  // namespace
}  // namespace ds::serve
