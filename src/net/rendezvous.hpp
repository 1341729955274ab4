#pragma once

/// \file rendezvous.hpp
/// Bootstrap of a TCP rank fleet: digest computation, the kHello/kWelcome
/// handshake, and the deadlock-free pair-connection mesh.
///
/// Every rank listens on its hosts-file port. Rank 0 is the rendezvous
/// point: ranks 1..N-1 connect to it and send a kHello carrying their rank,
/// fleet size, protocol version, and the topology/partition digests; rank 0
/// verifies all of them against its own state and answers kWelcome — or a
/// kAbort naming the mismatch, so a launch where the ranks disagree about
/// the instance, seed, ID strategy or partition fails fast instead of
/// diverging silently. After its welcome, each peer dials the remaining
/// pairs directly (rank a connects to rank b for 0 < a < b, each rank
/// accepting its lower peers before dialing its higher ones — a total
/// order, so the mesh build cannot deadlock), repeating the same handshake
/// per pair; a dialed rank that has not bound its listener yet (launch
/// order is arbitrary, and rank 0 welcomes peers one by one) is covered by
/// `connect_to`'s retry-until-deadline loop. The rendezvous connections
/// themselves are kept as the (0, r) pair connections.

#include <cstdint>
#include <vector>

#include "dist/partition.hpp"
#include "local/topology.hpp"
#include "net/socket.hpp"

namespace ds::net {

/// The identity a rank asserts in its kHello.
struct Handshake {
  std::uint64_t version = 0;
  std::uint64_t rank = 0;
  std::uint64_t ranks = 0;
  std::uint64_t topology_digest = 0;
  std::uint64_t partition_digest = 0;
};

/// FNV-1a digest over the topology identity: node/edge structure, UID
/// assignment (which covers IdStrategy and seed) and the seed itself.
std::uint64_t topology_digest(const local::NetworkTopology& topo);

/// FNV-1a digest over the graph's structure alone — node count, `salt`,
/// then every adjacency row (degree, neighbors in port order) — and nothing
/// seed- or ID-dependent. It determines everything a `dist::Partition`
/// reads (adjacency, port offsets, delivery slots), so `salt` = rank count
/// keys a partition cache; the serve daemon's handshake uses it with `salt`
/// = the bipartite left-node count.
std::uint64_t structure_digest(const graph::Graph& g, std::uint64_t salt);

/// FNV-1a digest over the partition: rank count and range boundaries.
std::uint64_t partition_digest(const dist::Partition& part);

/// Same digest from the raw boundary list (`bounds` has ranks + 1 entries)
/// — for the in-situ path, where no rank holds a full Partition. Agrees
/// with `partition_digest(part)` for the same boundaries.
std::uint64_t partition_digest(std::size_t ranks,
                               const std::vector<graph::NodeId>& bounds);

/// FNV-1a digest over an instance identity string. The in-situ path uses
/// the generator spec's canonical form plus seed and algorithm as the
/// topology digest — the instance identity without materializing it.
std::uint64_t instance_digest(const std::string& identity);

/// This rank's estimated clock relation to rank 0, measured from the
/// hello/welcome round-trip of the rendezvous connection to rank 0: the
/// welcome carries rank 0's steady-clock time, and the NTP-style midpoint
/// estimate `offset_us = remote_now - (t_send + t_recv) / 2` is accurate to
/// ±RTT/2. Adding `offset_us` to a local steady-clock µs reading maps it
/// onto rank 0's clock — the merged-trace lane alignment (recorder.hpp).
struct ClockSync {
  bool valid = false;
  std::int64_t offset_us = 0;  ///< 0 on rank 0 by definition
};

/// Builds the full pair-connection mesh for `mine.rank`. `hosts` is the
/// rank-ordered endpoint list; `listen` must already be bound to
/// `hosts[rank]` (pass a pre-bound socket, e.g. from the loopback helper).
/// Returns one connected socket per peer, indexed by rank (the own slot is
/// invalid). All sockets are left in blocking mode; the caller sets
/// nonblocking/nodelay as needed. `clock`, when non-null, receives the
/// rank-0 clock estimate (exact zero on rank 0 itself). Throws
/// ds::CheckError on timeout, version or digest mismatch, or a peer abort.
std::vector<Socket> rendezvous(const Handshake& mine,
                               const std::vector<Endpoint>& hosts,
                               Socket& listen, int timeout_ms,
                               ClockSync* clock = nullptr);

}  // namespace ds::net
