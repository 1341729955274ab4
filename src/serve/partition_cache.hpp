#pragma once

/// \file partition_cache.hpp
/// Bounded LRU cache of `dist::Partition`s, so a resident daemon never
/// re-partitions a graph it already partitioned. A partition depends only on
/// the graph structure and the rank count, and the daemon keys it on
/// exactly that (`net::structure_digest(graph, ranks)`): every request over
/// one graph hits, whatever its seed or ID strategy. The partition routing
/// tables are the expensive part of standing up a run (they scale with the
/// cut); the per-request `NetworkTopology` rebuild that remains is cheap by
/// comparison.
///
/// Entries are shared_ptrs: an executor holds its partition across a run
/// even if a burst of distinct graphs evicts the entry meanwhile.
/// Single-consumer by design — only the daemon's worker loop touches the
/// cache, so there is no internal locking.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dist/partition.hpp"

namespace ds::serve {

class PartitionCache {
 public:
  explicit PartitionCache(std::size_t capacity = 8);

  /// Returns the cached partition for `key`, or builds one via
  /// `build`, caches it (evicting the least recently used entry past
  /// capacity) and returns it.
  std::shared_ptr<const dist::Partition> get_or_build(
      std::uint64_t key, const std::function<dist::Partition()>& build);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const dist::Partition> partition;
    std::uint64_t last_use = 0;
  };

  const std::size_t capacity_;
  std::vector<Entry> entries_;
  std::uint64_t use_clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace ds::serve
