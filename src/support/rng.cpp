#include "support/rng.hpp"

#include "support/check.hpp"

namespace ds {

namespace {

/// SplitMix64's Weyl increment: the odd integer nearest 2^64 / phi.
constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ull;

}  // namespace

std::uint64_t splitmix64(std::uint64_t x) {
  x += kGamma;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_(seed), state_(seed) {}

Rng Rng::fork(std::uint64_t stream) const {
  // Mix the parent's seed with the stream id; double application keeps
  // adjacent streams well separated.
  return Rng(splitmix64(seed_ ^ splitmix64(stream + 0x5EEDull)));
}

std::uint64_t Rng::next_raw() {
  // splitmix64 adds the gamma itself, so this yields mix(state + gamma) and
  // leaves state advanced by one gamma — the textbook SplitMix64 step.
  const std::uint64_t x = state_;
  state_ += kGamma;
  return splitmix64(x);
}

std::uint64_t Rng::next_u64(std::uint64_t bound) {
  DS_CHECK(bound > 0);
  // Lemire's multiply-and-reject: the high word of x * bound is uniform on
  // [0, bound) once the low words below 2^64 mod bound are rejected.
  unsigned __int128 m = static_cast<unsigned __int128>(next_raw()) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      m = static_cast<unsigned __int128>(next_raw()) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next_raw() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) { return next_double() < p; }

std::size_t Rng::next_index(std::size_t n) {
  DS_CHECK(n > 0);
  return static_cast<std::size_t>(next_u64(n));
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  shuffle(perm);
  return perm;
}

}  // namespace ds
