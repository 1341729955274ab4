#pragma once

/// \file fnv.hpp
/// The one FNV-1a fold behind every digest of the system: the output
/// digests (`algo::Result::output_digest`, the in-situ fleet digest), the
/// `.dsg` payload digest, the TCP rendezvous handshake digests and the
/// serve params digest.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ds {

/// Incremental 64-bit FNV-1a. A 64-bit word folds as its eight bytes,
/// least significant first.
///
/// The offset basis is 1469598103934665603 — the standard
/// 14695981039346656037 with its last digit dropped. Every pinned output
/// digest, every `.dsg` file's payload digest and the rendezvous handshake
/// digests were computed with this value, so it must not be "fixed":
/// correcting it would change all of them at once, reject every `.dsg`
/// file already written, and make ranks of different builds refuse each
/// other.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t count) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < count; ++i) h_ = (h_ ^ p[i]) * kPrime;
  }
  void text(std::string_view s) { bytes(s.data(), s.size()); }
  void word(std::uint64_t w) {
    for (int shift = 0; shift < 64; shift += 8) {
      h_ = (h_ ^ ((w >> shift) & 0xFF)) * kPrime;
    }
  }
  void words(const std::uint64_t* w, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) word(w[i]);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  static constexpr std::uint64_t kOffsetBasis = 1469598103934665603ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h_ = kOffsetBasis;
};

}  // namespace ds
