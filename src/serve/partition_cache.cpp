#include "serve/partition_cache.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace ds::serve {

PartitionCache::PartitionCache(std::size_t capacity) : capacity_(capacity) {
  DS_CHECK_MSG(capacity_ >= 1, "PartitionCache: capacity must be >= 1");
  entries_.reserve(capacity_);
}

std::shared_ptr<const dist::Partition> PartitionCache::get_or_build(
    std::uint64_t key, const std::function<dist::Partition()>& build) {
  ++use_clock_;
  for (Entry& e : entries_) {
    if (e.key == key) {
      e.last_use = use_clock_;
      ++hits_;
      return e.partition;
    }
  }
  ++misses_;
  auto part = std::make_shared<const dist::Partition>(build());
  if (entries_.size() >= capacity_) {
    auto lru = std::min_element(entries_.begin(), entries_.end(),
                                [](const Entry& a, const Entry& b) {
                                  return a.last_use < b.last_use;
                                });
    entries_.erase(lru);
  }
  entries_.push_back(Entry{key, part, use_clock_});
  return part;
}

}  // namespace ds::serve
