#include "hw/fixed_point.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace mfdfp::hw {
namespace {

TEST(FixedPoint, BitRangeLimits) {
  EXPECT_EQ(min_for_bits(8), -128);
  EXPECT_EQ(max_for_bits(8), 127);
  EXPECT_EQ(min_for_bits(16), -32768);
  EXPECT_EQ(max_for_bits(20), 524287);
}

TEST(FixedPoint, FitsBits) {
  EXPECT_TRUE(fits_bits(127, 8));
  EXPECT_TRUE(fits_bits(-128, 8));
  EXPECT_FALSE(fits_bits(128, 8));
  EXPECT_FALSE(fits_bits(-129, 8));
  EXPECT_TRUE(fits_bits(0, 2));
}

TEST(FixedPoint, CheckWidthThrowsWithWireName) {
  EXPECT_EQ(check_width(100, 8, "wire"), 100);
  try {
    check_width(300, 8, "test_wire");
    FAIL() << "expected throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("test_wire"), std::string::npos);
  }
}

TEST(FixedPoint, SaturateClamps) {
  EXPECT_EQ(saturate(300, 8), 127);
  EXPECT_EQ(saturate(-300, 8), -128);
  EXPECT_EQ(saturate(50, 8), 50);
}

TEST(FixedPoint, ShiftRoundHalfAwayFromZero) {
  // shift 1: /2 with 0.5 rounding away from zero.
  EXPECT_EQ(shift_round(3, 1), 2);    // 1.5 -> 2
  EXPECT_EQ(shift_round(-3, 1), -2);  // -1.5 -> -2
  EXPECT_EQ(shift_round(5, 1), 3);    // 2.5 -> 3
  EXPECT_EQ(shift_round(-5, 1), -3);
  EXPECT_EQ(shift_round(4, 2), 1);
  EXPECT_EQ(shift_round(5, 2), 1);    // 1.25 -> 1
  EXPECT_EQ(shift_round(6, 2), 2);    // 1.5 -> 2
  EXPECT_EQ(shift_round(-6, 2), -2);
  EXPECT_EQ(shift_round(7, 0), 7);
  EXPECT_EQ(shift_round(123, 63), 0);
}

TEST(FixedPoint, ShiftRoundMatchesDoubleRounding) {
  // Property: shift_round(v, s) == round-half-away(v / 2^s) for many values.
  for (std::int64_t v = -1000; v <= 1000; v += 7) {
    for (int s = 1; s <= 6; ++s) {
      const double scaled = static_cast<double>(v) / (1 << s);
      const double expected =
          scaled >= 0 ? std::floor(scaled + 0.5) : std::ceil(scaled - 0.5);
      EXPECT_EQ(shift_round(v, s), static_cast<std::int64_t>(expected))
          << "v=" << v << " s=" << s;
    }
  }
}

/// The branchy form shift_round had before its sign-mask rewrite, kept as
/// the oracle. It runs on __int128 so that -value and value + half stay
/// defined at the int64 extremes.
std::int64_t branchy_shift_round(std::int64_t value, int shift) {
  if (shift == 0) return value;
  if (shift >= 63) return 0;
  const __int128 wide = value;
  const __int128 half = __int128{1} << (shift - 1);
  if (wide >= 0) return static_cast<std::int64_t>((wide + half) >> shift);
  return static_cast<std::int64_t>(-((-wide + half) >> shift));
}

TEST(FixedPoint, ShiftRoundMatchesTheBranchyOracle) {
  constexpr std::int64_t kMin = INT64_MIN, kMax = INT64_MAX;
  for (int s = 0; s <= 63; ++s) {
    std::vector<std::int64_t> values = {0, 1, -1, kMin, kMin + 1, kMax,
                                        kMax - 1};
    const std::int64_t half = s == 0 ? 0 : std::int64_t{1} << (s - 1);
    // k * 2^s for |k| <= 3, then the rounding boundaries around each.
    for (std::int64_t k = -3; k <= 3; ++k) {
      if (s >= 62 && k != 0) continue;  // k * 2^s past int64
      const std::int64_t base = k * (std::int64_t{1} << s);
      for (const std::int64_t d : {std::int64_t{0}, half, half - 1, half + 1,
                                   -half, -half + 1, -half - 1}) {
        values.push_back(base + d);
      }
    }
    for (const std::int64_t v : values) {
      EXPECT_EQ(shift_round(v, s), branchy_shift_round(v, s))
          << "v=" << v << " s=" << s;
    }
  }
  // INT64_MIN has magnitude 2^63, which rounds to exactly 2^(63-s).
  for (int s = 1; s <= 62; ++s) {
    EXPECT_EQ(shift_round(INT64_MIN, s), -(std::int64_t{1} << (63 - s)))
        << "s=" << s;
  }
}

TEST(FixedPoint, ShiftRoundRejectsNegativeShift) {
  EXPECT_THROW(shift_round(1, -1), std::invalid_argument);
}

TEST(FixedPoint, ShiftLeftChecked) {
  EXPECT_EQ(shift_left_checked(5, 3), 40);
  EXPECT_EQ(shift_left_checked(-5, 2), -20);
  EXPECT_EQ(shift_left_checked(0, 63), 0);
  EXPECT_EQ(shift_left_checked(0, 71), 0);  // past the carrier width
  EXPECT_THROW(shift_left_checked(1, 63), std::overflow_error);
  EXPECT_THROW(shift_left_checked(std::int64_t{1} << 40, 30),
               std::overflow_error);
  EXPECT_THROW(shift_left_checked(1, -1), std::invalid_argument);
}

}  // namespace
}  // namespace mfdfp::hw
