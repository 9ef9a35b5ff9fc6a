// Unit tests for src/util: saturating arithmetic, error machinery,
// string helpers, content hashing, byte-weight traits and the
// work-stealing scheduler.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <vector>

#include "util/expect.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"
#include "util/weight.hpp"
#include "util/worker_pool.hpp"

namespace wharf {
namespace {

TEST(Types, SatAddBasics) {
  EXPECT_EQ(sat_add(2, 3), 5);
  EXPECT_EQ(sat_add(0, 0), 0);
  EXPECT_EQ(sat_add(kTimeInfinity, 1), kTimeInfinity);
  EXPECT_EQ(sat_add(1, kTimeInfinity), kTimeInfinity);
  EXPECT_EQ(sat_add(kTimeInfinity, kTimeInfinity), kTimeInfinity);
}

TEST(Types, SatAddClampsNearOverflow) {
  const Time huge = kTimeInfinity - 5;
  EXPECT_EQ(sat_add(huge, 10), kTimeInfinity);
  EXPECT_EQ(sat_add(huge, 5), kTimeInfinity);
  EXPECT_EQ(sat_add(huge, 4), kTimeInfinity - 1);
}

TEST(Types, SatMulBasics) {
  EXPECT_EQ(sat_mul(6, 7), 42);
  EXPECT_EQ(sat_mul(0, kTimeInfinity), 0);
  EXPECT_EQ(sat_mul(kTimeInfinity, 0), 0);
  EXPECT_EQ(sat_mul(kTimeInfinity, 2), kTimeInfinity);
  EXPECT_EQ(sat_mul(3, kTimeInfinity), kTimeInfinity);
}

TEST(Types, SatMulClampsNearOverflow) {
  const Time big = Time{1} << 62;
  EXPECT_EQ(sat_mul(big, 4), kTimeInfinity);
  EXPECT_EQ(sat_mul(big, 1), big);
}

TEST(Types, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 5), 0);
  EXPECT_EQ(ceil_div(1, 5), 1);
  EXPECT_EQ(ceil_div(5, 5), 1);
  EXPECT_EQ(ceil_div(6, 5), 2);
  EXPECT_EQ(ceil_div(331, 200), 2);
  EXPECT_EQ(ceil_div(731, 700), 2);
}

TEST(Types, FloorDiv) {
  EXPECT_EQ(floor_div(0, 5), 0);
  EXPECT_EQ(floor_div(4, 5), 0);
  EXPECT_EQ(floor_div(5, 5), 1);
  EXPECT_EQ(floor_div(9, 5), 1);
}

TEST(Types, InfinityPredicate) {
  EXPECT_TRUE(is_infinite(kTimeInfinity));
  EXPECT_FALSE(is_infinite(kTimeInfinity - 1));
  EXPECT_FALSE(is_infinite(0));
}

TEST(Expect, ThrowsInvalidArgumentWithMessage) {
  try {
    WHARF_EXPECT(1 == 2, "one is not " << 2);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("one is not 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Expect, PassesSilently) {
  EXPECT_NO_THROW(WHARF_EXPECT(true, "never happens"));
  EXPECT_NO_THROW(WHARF_ASSERT(2 + 2 == 4));
}

TEST(Expect, AssertThrowsLogicError) {
  EXPECT_THROW(WHARF_ASSERT(false), std::logic_error);
}

TEST(Expect, ParseErrorCarriesLine) {
  const ParseError e("bad token", 42);
  EXPECT_EQ(e.line(), 42);
  EXPECT_NE(std::string(e.what()).find("line 42"), std::string::npos);
}

TEST(Strings, Trim) {
  EXPECT_EQ(util::trim("  abc  "), "abc");
  EXPECT_EQ(util::trim("abc"), "abc");
  EXPECT_EQ(util::trim("   "), "");
  EXPECT_EQ(util::trim(""), "");
  EXPECT_EQ(util::trim("\t a b \n"), "a b");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = util::split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitSingleField) {
  const auto parts = util::split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  const auto parts = util::split_whitespace("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitWhitespaceEmptyInput) {
  EXPECT_TRUE(util::split_whitespace("").empty());
  EXPECT_TRUE(util::split_whitespace("   \t ").empty());
}

TEST(Strings, Join) {
  EXPECT_EQ(util::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(util::join({}, ", "), "");
  EXPECT_EQ(util::join({"x"}, ", "), "x");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(util::starts_with("periodic(200)", "periodic"));
  EXPECT_FALSE(util::starts_with("periodic", "periodic(200)"));
  EXPECT_TRUE(util::starts_with("abc", ""));
}

TEST(Strings, ParseInt64) {
  long long v = 0;
  EXPECT_TRUE(util::parse_int64("123", v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(util::parse_int64("-7", v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(util::parse_int64("", v));
  EXPECT_FALSE(util::parse_int64("12x", v));
  EXPECT_FALSE(util::parse_int64("x12", v));
  EXPECT_FALSE(util::parse_int64("99999999999999999999999", v));  // overflow
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(util::parse_double("1.5", v));
  EXPECT_DOUBLE_EQ(v, 1.5);
  EXPECT_TRUE(util::parse_double("-2", v));
  EXPECT_DOUBLE_EQ(v, -2.0);
  EXPECT_FALSE(util::parse_double("", v));
  EXPECT_FALSE(util::parse_double("1.5x", v));
}

TEST(Strings, Cat) {
  EXPECT_EQ(util::cat("a", 1, 'b', 2.5), "a1b2.5");
  EXPECT_EQ(util::cat(), "");
}

TEST(Hash, Fnv1a64KnownVectorsAndSensitivity) {
  // Reference digests of the FNV-1a test vectors.
  EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(util::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(util::fnv1a64("busy|c1"), util::fnv1a64("busy|c2"));
}

TEST(Weight, HeapBytesShapes) {
  EXPECT_EQ(util::heap_bytes(42), 0u);
  std::string s = "hello";
  EXPECT_GE(util::heap_bytes(s), s.size());
  std::vector<Time> v(10);
  EXPECT_GE(util::heap_bytes(v), 10 * sizeof(Time));
  std::optional<std::string> none;
  EXPECT_EQ(util::heap_bytes(none), 0u);
  EXPECT_EQ(util::byte_weight(42), sizeof(int));
  EXPECT_GT(util::byte_weight(v), util::heap_bytes(v));
}

TEST(ParallelForIndex, RunsEveryIndexExactlyOnce) {
  for (const int jobs : {1, 2, 4, 0}) {
    constexpr std::size_t kN = 500;
    std::vector<std::atomic<int>> runs(kN);
    util::parallel_for_index(kN, jobs, [&](std::size_t i) {
      runs[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(ParallelForIndex, HandlesEmptyAndSingle) {
  int calls = 0;
  util::parallel_for_index(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  util::parallel_for_index(1, 4, [&](std::size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForIndex, SkewedTasksAllComplete) {
  // Wildly skewed task sizes (the ILP-subproblem shape): the shared
  // counter must still complete everything, each into its own slot.
  constexpr std::size_t kN = 64;
  std::vector<long long> results(kN, 0);
  util::parallel_for_index(kN, 4, [&](std::size_t i) {
    long long acc = 0;
    const long long rounds = i % 8 == 0 ? 200'000 : 100;
    for (long long r = 0; r < rounds; ++r) acc += static_cast<long long>(i) + r;
    results[i] = acc;
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_NE(results[i], 0) << "index " << i;
  }
}

TEST(ParallelForIndex, FirstExceptionPropagates) {
  EXPECT_THROW(
      util::parallel_for_index(100, 4,
                               [&](std::size_t i) {
                                 if (i == 37) throw InvalidArgument("boom");
                               }),
      InvalidArgument);
}

}  // namespace
}  // namespace wharf
