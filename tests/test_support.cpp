// Unit tests for the support substrate: checks, RNG, statistics, tables,
// option parsing.

#include <gtest/gtest.h>

#include <sstream>
#include <type_traits>

#include "local/program.hpp"

#include "support/check.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace ds {
namespace {

// Per-node streams cost two words, and node environments copy as raw bytes.
static_assert(sizeof(Rng) == 16);
static_assert(std::is_trivially_copyable_v<local::NodeEnv>);

TEST(Check, PassingCheckDoesNothing) { DS_CHECK(1 + 1 == 2); }

TEST(Check, FailingCheckThrowsWithLocation) {
  try {
    DS_CHECK_MSG(false, "context message");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("context message"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_raw(), b.next_raw());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(7);
  Rng b(8);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_raw() == b.next_raw()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, ForkIsStableAndIndependentOfCallOrder) {
  Rng parent(99);
  Rng c1 = parent.fork(5);
  Rng c2 = parent.fork(6);
  // Forking again with the same stream id reproduces the same child.
  Rng c1_again = parent.fork(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(c1.next_raw(), c1_again.next_raw());
  }
  // Distinct streams diverge.
  Rng c2_again = parent.fork(6);
  EXPECT_EQ(c2.next_raw(), c2_again.next_raw());
}

TEST(Rng, BoundedDrawsStayInBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_u64(17), 17u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(11);
  const auto perm = rng.permutation(50);
  std::vector<bool> seen(50, false);
  for (std::size_t x : perm) {
    ASSERT_LT(x, 50u);
    EXPECT_FALSE(seen[x]);
    seen[x] = true;
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(123);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.next_bool()) ++heads;
  }
  EXPECT_NEAR(heads, 5000, 300);
}

// ---- Known-answer tests: Rng against the textbook SplitMix64 -------------

/// Textbook SplitMix64 step (Steele, Lea, Flood 2014): advance the Weyl
/// state by the golden gamma, return the variant-13 finalizer of it.
std::uint64_t reference_splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// One finalizer application to `x` (a fresh stream seeded at x, one step).
std::uint64_t reference_mix(std::uint64_t x) { return reference_splitmix(x); }

TEST(Rng, KnownAnswerRawMatchesTextbookSplitMix64) {
  // Published first outputs of SplitMix64 seeded with 0.
  Rng zero(0);
  EXPECT_EQ(zero.next_raw(), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(zero.next_raw(), 0x6E789E6AA1B965F4ull);
  EXPECT_EQ(zero.next_raw(), 0x06C45D188009454Full);
  for (const std::uint64_t seed : {1ull, 7ull, 0xD15751A17ull, ~0ull}) {
    Rng rng(seed);
    std::uint64_t state = seed;
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(rng.next_raw(), reference_splitmix(state))
          << "seed=" << seed << " draw=" << i;
    }
  }
}

TEST(Rng, KnownAnswerForkSeedsChildFromMixedStreamId) {
  for (const std::uint64_t seed : {0ull, 9ull, 0xD15751A17ull}) {
    const Rng parent(seed);
    for (const std::uint64_t k : {0ull, 1ull, 2ull, 1000003ull}) {
      Rng child = parent.fork(k);
      std::uint64_t state = reference_mix(seed ^ reference_mix(k + 0x5EEDull));
      for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(child.next_raw(), reference_splitmix(state))
            << "seed=" << seed << " stream=" << k << " draw=" << i;
      }
    }
  }
}

TEST(Rng, KnownAnswerBoundedDrawIsLemireMultiplyReject) {
  // Bounds that are not powers of two, including one whose rejection zone
  // (2^64 mod bound) is nearly half the range, so rejections do occur.
  for (const std::uint64_t bound :
       {3ull, 10ull, 1000003ull, (1ull << 63) + 1}) {
    Rng rng(42);
    std::uint64_t state = 42;
    const std::uint64_t threshold = (0 - bound) % bound;
    for (int i = 0; i < 256; ++i) {
      unsigned __int128 m = 0;
      do {
        m = static_cast<unsigned __int128>(reference_splitmix(state)) * bound;
      } while (static_cast<std::uint64_t>(m) < threshold);
      ASSERT_EQ(rng.next_u64(bound), static_cast<std::uint64_t>(m >> 64))
          << "bound=" << bound << " draw=" << i;
    }
  }
  // First bounded draws of the seed-0 stream, computed independently.
  Rng zero(0);
  EXPECT_EQ(zero.next_u64(1000003), 883313u);
  EXPECT_EQ(zero.next_u64(1000003), 431529u);
  EXPECT_EQ(zero.next_u64(1000003), 26433u);
}

TEST(Rng, KnownAnswerDoubleUsesTop53Bits) {
  Rng zero(0);
  EXPECT_EQ(zero.next_double(), 0.8833108082136426);
  EXPECT_EQ(zero.next_double(), 0.43152799704850997);
  EXPECT_EQ(zero.next_double(), 0.026433771592597743);
  Rng rng(5);
  std::uint64_t state = 5;
  for (int i = 0; i < 64; ++i) {
    const double expected =
        static_cast<double>(reference_splitmix(state) >> 11) / 0x1.0p53;
    ASSERT_EQ(rng.next_double(), expected) << "draw=" << i;
  }
}

TEST(Summary, BasicStatistics) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
  EXPECT_DOUBLE_EQ(s.percentile(50), 2.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 4.0);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(LinearFit, RecoversLine) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{3, 5, 7, 9, 11};  // y = 1 + 2x
  const LinearFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(LinearFit, DegenerateXGivesZeroSlope) {
  std::vector<double> x{2, 2, 2};
  std::vector<double> y{1, 2, 3};
  const LinearFit fit = fit_line(x, y);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(Table, RendersAlignedCells) {
  Table t({"name", "value"});
  t.row().cell("alpha").num(static_cast<long long>(42));
  t.row().cell("b").num(3.14159, 2);
  std::ostringstream os;
  t.print(os);
  const std::string rendered = os.str();
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("42"), std::string::npos);
  EXPECT_NE(rendered.find("3.14"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CellWithoutRowThrows) {
  Table t({"x"});
  EXPECT_THROW(t.cell("oops"), CheckError);
}

TEST(FormatDouble, SwitchesToScientificForExtremes) {
  EXPECT_NE(format_double(1.5e-9).find("e"), std::string::npos);
  EXPECT_EQ(format_double(12.5).find("e"), std::string::npos);
}

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=128", "--verbose", "--eps=0.25"};
  Options opts(4, argv);
  EXPECT_EQ(opts.get_int("n", 0), 128);
  EXPECT_TRUE(opts.has("verbose"));
  EXPECT_DOUBLE_EQ(opts.get_double("eps", 0.0), 0.25);
  EXPECT_EQ(opts.get_int("missing", 7), 7);
  EXPECT_EQ(opts.seed(), 1u);
}

TEST(Options, RejectsMalformedArguments) {
  const char* argv[] = {"prog", "n=128"};
  EXPECT_THROW(Options(2, argv), CheckError);
}

}  // namespace
}  // namespace ds
