#include "hw/datapath.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hw/kernels.hpp"
#include "quant/dfp.hpp"
#include "util/rng.hpp"

namespace mfdfp::hw {
namespace {

using quant::DfpFormat;
using quant::Pow2Weight;

TEST(SynapseProduct, MatchesRealArithmetic) {
  // product (units 2^-(m+7)) must equal x_code * 2^(7+e).
  for (int e = quant::kPow2MinExp; e <= quant::kPow2MaxExp; ++e) {
    for (std::int32_t x : {-128, -37, -1, 0, 1, 100, 127}) {
      for (bool negative : {false, true}) {
        const Pow2Weight w{negative, e};
        const std::int64_t p = synapse_product(x, w);
        const std::int64_t expected =
            (negative ? -1 : 1) * (static_cast<std::int64_t>(x) << (7 + e));
        EXPECT_EQ(p, expected);
        // Value check: p * 2^-(m+7) == (x * 2^-m) * w.value() for any m.
        const double value = std::ldexp(static_cast<double>(p), -7);
        EXPECT_DOUBLE_EQ(value, static_cast<double>(x) * w.value());
      }
    }
  }
}

TEST(SynapseProduct, FitsSixteenBitWire) {
  // Worst case: x = -128, e = 0 -> -16384; always within 16 bits.
  EXPECT_NO_THROW(synapse_product(-128, Pow2Weight{false, 0}));
  EXPECT_NO_THROW(synapse_product(-128, Pow2Weight{true, 0}));
  EXPECT_NO_THROW(synapse_product(127, Pow2Weight{true, 0}));
}

TEST(SynapseProduct, RejectsBadInputs) {
  EXPECT_THROW(synapse_product(200, Pow2Weight{false, 0}), std::logic_error);
  EXPECT_THROW(synapse_product(1, Pow2Weight{false, 1}),
               std::invalid_argument);
  EXPECT_THROW(synapse_product(1, Pow2Weight{false, -8}),
               std::invalid_argument);
}

TEST(AdderTree, SumsUpToSixteenLanes) {
  util::Rng rng{1};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t lanes = 1 + rng.uniform_u64(16);
    std::vector<std::int64_t> products(lanes);
    std::int64_t expected = 0;
    for (auto& p : products) {
      p = rng.uniform_int(-16384, 16383);
      expected += p;
    }
    EXPECT_EQ(adder_tree(products), expected);
  }
}

TEST(AdderTree, RejectsTooManyLanes) {
  std::vector<std::int64_t> products(17, 0);
  EXPECT_THROW(adder_tree(products), std::invalid_argument);
}

TEST(AdderTree, WorstCaseFitsTwentyBits) {
  // 16 x (-16384) = -262144 needs exactly 19 bits + sign: must not throw.
  std::vector<std::int64_t> products(16, -16384);
  EXPECT_EQ(adder_tree(products), -262144);
  std::vector<std::int64_t> positive(16, 16383);
  EXPECT_EQ(adder_tree(positive), 16 * 16383);
}

TEST(AdderTree, RejectsOverwideInputs) {
  std::vector<std::int64_t> products(2, 40000);  // > 16-bit input wire
  EXPECT_THROW(adder_tree(products), std::logic_error);
}

TEST(Routing, MatchesDfpEncodeSemantics) {
  // Property: for random accumulations, routing must produce exactly the
  // 8-bit code DfpFormat::encode gives for the real-valued sum.
  util::Rng rng{2};
  for (int trial = 0; trial < 2000; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(-2, 10));
    const int n = static_cast<int>(rng.uniform_int(-2, 12));
    const auto bias_code = static_cast<std::int32_t>(
        rng.uniform_int(-128, 127));
    AccumulatorRouting acc(m, n, bias_code);
    double real_sum = 0.0;
    const int tiles = 1 + static_cast<int>(rng.uniform_u64(4));
    for (int t = 0; t < tiles; ++t) {
      const std::int64_t tile = rng.uniform_int(-200000, 200000);
      acc.accumulate(tile);
      real_sum += std::ldexp(static_cast<double>(tile), -(m + 7));
    }
    real_sum += std::ldexp(static_cast<double>(bias_code), -n);

    const std::int32_t code = acc.route();
    const DfpFormat format{8, n};
    EXPECT_EQ(code, format.encode(static_cast<float>(real_sum)))
        << "m=" << m << " n=" << n << " bias=" << bias_code;
  }
}

TEST(Routing, ReluClampsBeforeRounding) {
  AccumulatorRouting acc(0, 0, 0);
  acc.accumulate(-1000);  // negative sum
  EXPECT_EQ(acc.route(true), 0);
  EXPECT_LT(acc.route(false), 0);
}

TEST(Routing, SaturatesToEightBits) {
  AccumulatorRouting acc(0, 7, 0);  // huge upscale: 2^7 per unit of 2^-7
  acc.accumulate(1 << 14);
  EXPECT_EQ(acc.route(), 127);
  AccumulatorRouting neg(0, 7, 0);
  neg.accumulate(-(1 << 14));
  EXPECT_EQ(neg.route(), -128);
}

/// The checked Accumulator & Routing block, one output at a time — the
/// reference SumRouter must match; nullopt when it throws overflow_error.
std::optional<std::int32_t> checked_route(std::int64_t sum, int m, int n,
                                          std::int32_t bias) {
  try {
    AccumulatorRouting acc(m, n, bias);
    acc.accumulate(sum);
    return acc.route();
  } catch (const std::overflow_error&) {
    return std::nullopt;
  }
}

constexpr std::int32_t kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kI32Max = std::numeric_limits<std::int32_t>::max();

// Over every (m, n) in [-4, 24]^2 — all inside the hoisted shift bounds —
// and every bias code, the per-step router gives the checked block's code
// for sums at and around each rounding tie k * 2^lb + 2^(lb-1), the int32
// extremes, small values and seeded random sums, on both its int32
// (plain-shift) and int64 (checked) entries.
TEST(SumRouter, MatchesCheckedRoutingOverEveryBiasAndTie) {
  util::Rng rng{18};
  std::size_t compared = 0;
  for (int m = -4; m <= 24; ++m) {
    for (int n = -4; n <= 24; ++n) {
      const SumRouter route(m, n);
      ASSERT_TRUE(route.unchecked()) << "m=" << m << " n=" << n;
      const int lb = std::max(m + kProductFracBits, n) - n;
      std::vector<std::int32_t> sums{0, 1, -1, kI32Min, kI32Max};
      for (const std::int64_t k : {-129, -128, -127, -3, -2, -1, 0, 1, 2, 3,
                                   127, 128, 129}) {
        const std::int64_t tie =
            k * (std::int64_t{1} << lb) +
            (lb > 0 ? std::int64_t{1} << (lb - 1) : 0);
        for (const std::int64_t d : {-1, 0, 1}) {
          if (tie + d >= kI32Min && tie + d <= kI32Max) {
            sums.push_back(static_cast<std::int32_t>(tie + d));
          }
        }
      }
      for (int r = 0; r < 6; ++r) {
        sums.push_back(static_cast<std::int32_t>(rng.next_u64()));
      }
      for (std::int32_t bias = -128; bias <= 127; ++bias) {
        const auto code = static_cast<std::int8_t>(bias);
        for (const std::int32_t sum : sums) {
          const std::optional<std::int32_t> expected =
              checked_route(sum, m, n, bias);
          ASSERT_TRUE(expected.has_value());
          const std::int32_t fast = route(sum, code);
          const std::int32_t wide = route(std::int64_t{sum}, code);
          if (fast != *expected || wide != *expected) {
            FAIL() << "m=" << m << " n=" << n << " bias=" << bias
                   << " sum=" << sum << ": router " << fast << "/" << wide
                   << " vs checked " << *expected;
          }
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 29u * 29u * 256u * 40u);
}

// (m, n) pairs outside the hoisted bounds (la > 30 or lb > 54) route through
// the checked block: the same code where it fits, and the same
// std::overflow_error where the int64 carrier would overflow. The pairs
// exactly at the bounds take the plain shifts and still agree.
TEST(SumRouter, PairsOutsideTheHoistedBoundsStayChecked) {
  struct Pair {
    int m, n;
    bool unchecked;
  };
  bool saw_throw = false;
  for (const Pair pair : {Pair{0, 38, false}, Pair{0, 60, false},
                          Pair{-4, 40, false}, Pair{48, 0, false},
                          Pair{56, 0, false}, Pair{60, -4, false},
                          Pair{0, 37, true}, Pair{47, 0, true}}) {
    const auto [m, n, unchecked] = pair;
    const SumRouter route(m, n);
    EXPECT_EQ(route.unchecked(), unchecked) << "m=" << m << " n=" << n;
    for (const std::int32_t sum : {0, 1, -1, 12345, kI32Min, kI32Max}) {
      for (const std::int32_t bias : {-128, -1, 0, 1, 127}) {
        const auto code = static_cast<std::int8_t>(bias);
        const std::optional<std::int32_t> expected =
            checked_route(sum, m, n, bias);
        if (expected.has_value()) {
          EXPECT_EQ(route(sum, code), *expected)
              << "m=" << m << " n=" << n << " sum=" << sum;
          EXPECT_EQ(route(std::int64_t{sum}, code), *expected);
        } else {
          saw_throw = true;
          EXPECT_FALSE(unchecked);
          EXPECT_THROW((void)route(sum, code), std::overflow_error)
              << "m=" << m << " n=" << n << " sum=" << sum;
          EXPECT_THROW((void)route(std::int64_t{sum}, code),
                       std::overflow_error);
        }
      }
    }
  }
  EXPECT_TRUE(saw_throw);
  // The two throwing shapes: a sum realigned by la = 53, a bias by lb = 60.
  EXPECT_THROW((void)SumRouter(0, 60)(kI32Max, std::int8_t{0}),
               std::overflow_error);
  EXPECT_THROW((void)SumRouter(60, -4)(0, std::int8_t{1}),
               std::overflow_error);
}

TEST(ConvertCode, MatchesDecodeEncodeRoundTrip) {
  // Property over all codes and format pairs in the practical range.
  for (int from = -2; from <= 10; ++from) {
    for (int to = -2; to <= 10; ++to) {
      const DfpFormat from_format{8, from};
      const DfpFormat to_format{8, to};
      for (std::int32_t code = -128; code <= 127; code += 5) {
        const float value = from_format.decode(code);
        EXPECT_EQ(convert_code(code, from, to), to_format.encode(value))
            << "from=" << from << " to=" << to << " code=" << code;
      }
    }
  }
}

TEST(CheckRadix, BoundsEveryRadixAtPlusMinus256) {
  EXPECT_NO_THROW(check_radix(0, "t"));
  EXPECT_NO_THROW(check_radix(kMaxRadix, "t"));
  EXPECT_NO_THROW(check_radix(-kMaxRadix, "t"));
  EXPECT_THROW(check_radix(kMaxRadix + 1, "t"), std::out_of_range);
  EXPECT_THROW(check_radix(-kMaxRadix - 1, "t"), std::out_of_range);
  // The radix difference of these would overflow int: rejected before any
  // shift is computed.
  constexpr int kMin = std::numeric_limits<int>::min();
  constexpr int kMax = std::numeric_limits<int>::max();
  EXPECT_THROW((void)convert_code(1, kMin, kMax), std::out_of_range);
  EXPECT_THROW((void)CodeTable(kMin, 0, true), std::out_of_range);
  EXPECT_THROW((void)SumRouter(kMax, 0), std::out_of_range);
}

/// convert_code of one (rectified) code, or nullopt where it throws
/// std::overflow_error.
std::optional<std::int8_t> converted(std::int8_t code, int from, int to,
                                     bool rectify) {
  const std::int32_t in = rectify ? std::max<std::int32_t>(0, code) : code;
  try {
    return static_cast<std::int8_t>(convert_code(in, from, to));
  } catch (const std::overflow_error&) {
    return std::nullopt;
  }
}

void expect_table_matches(int from, int to, bool rectify) {
  const CodeTable table(from, to, rectify);
  for (int i = -128; i <= 127; ++i) {
    const auto code = static_cast<std::int8_t>(i);
    const std::optional<std::int8_t> want = converted(code, from, to, rectify);
    if (want) {
      EXPECT_EQ(table(code), *want) << "from=" << from << " to=" << to
                                    << " rectify=" << rectify << " code=" << i;
    } else {
      EXPECT_THROW((void)table(code), std::overflow_error)
          << "from=" << from << " to=" << to << " code=" << i;
    }
  }
}

TEST(CodeTable, MatchesConvertCodeOnEveryCode) {
  for (const bool rectify : {false, true}) {
    for (int from = -16; from <= 16; ++from) {
      for (int to = -16; to <= 16; ++to) {
        expect_table_matches(from, to, rectify);
      }
    }
    // Left shifts of 56+ bits throw for some or all nonzero codes; a
    // right shift past the carrier rounds everything to 0.
    expect_table_matches(0, 57, rectify);
    expect_table_matches(0, 60, rectify);
    expect_table_matches(0, kMaxRadix, rectify);
    expect_table_matches(kMaxRadix, -kMaxRadix, rectify);
  }
}

TEST(CodeTable, ThrowsAtTheSameElementAsThePerElementLoop) {
  // 0 -> 57: codes 1..63 saturate to 127, 64..127 overflow the carrier.
  const std::vector<std::int8_t> codes{1, -3, 0, 70, 2, 100};
  std::vector<std::int8_t> expected = codes;
  std::size_t thrown_at = codes.size();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    try {
      expected[i] = static_cast<std::int8_t>(convert_code(expected[i], 0, 57));
    } catch (const std::overflow_error&) {
      thrown_at = i;
      break;
    }
  }
  ASSERT_EQ(thrown_at, 3u);

  std::vector<std::int8_t> tabled = codes;
  EXPECT_THROW(CodeTable(0, 57, false).apply(tabled), std::overflow_error);
  EXPECT_EQ(tabled, expected);

  // The kernels that use the table leave the same partial state.
  CodeTensor flat;
  flat.shape = tensor::Shape{1, codes.size()};
  flat.codes = codes;
  EXPECT_THROW(apply_flatten(flat, 57), std::overflow_error);
  EXPECT_EQ(flat.codes, expected);

  // Rectified, every negative code maps to 0 and cannot throw.
  std::vector<std::int8_t> negatives{-1, -128, -64, 0};
  CodeTable(0, 57, true).apply(negatives);
  EXPECT_EQ(negatives, (std::vector<std::int8_t>{0, 0, 0, 0}));
}

TEST(AvgPoolCode, MatchesTheLdexpEncodeSpelling) {
  // The hoisted-scale expression against the float model's spelling,
  // ldexp then DfpFormat::encode, over sums, radices and areas including
  // the radix bound and round-half ties.
  for (const int in_frac : {-kMaxRadix, -9, -1, 0, 3, 7, 12, kMaxRadix}) {
    for (const int out_frac : {-kMaxRadix, -4, 0, 2, 5, 9, kMaxRadix}) {
      const DfpFormat out_format{8, out_frac};
      const double in_scale = std::ldexp(1.0, -in_frac);
      const double out_scale = std::ldexp(1.0, out_frac);
      for (const std::size_t window : {1u, 2u, 3u, 5u}) {
        const float inv_area = 1.0f / static_cast<float>(window * window);
        for (std::int64_t sum = -128 * 25; sum <= 127 * 25; sum += 7) {
          const float value =
              static_cast<float>(std::ldexp(static_cast<double>(sum),
                                            -in_frac)) *
              inv_area;
          ASSERT_EQ(avg_pool_code(sum, in_scale, inv_area, out_scale),
                    static_cast<std::int8_t>(out_format.encode(value)))
              << "sum=" << sum << " in=" << in_frac << " out=" << out_frac
              << " window=" << window;
        }
      }
    }
  }
}

TEST(FloatNeuron, DotProduct) {
  const std::vector<float> inputs{1.0f, 2.0f, 3.0f};
  const std::vector<float> weights{0.5f, -1.0f, 2.0f};
  EXPECT_FLOAT_EQ(float_neuron(inputs, weights, 0.25f),
                  0.25f + 0.5f - 2.0f + 6.0f);
  const std::vector<float> short_w{1.0f};
  EXPECT_THROW(float_neuron(inputs, short_w, 0.0f), std::invalid_argument);
}

}  // namespace
}  // namespace mfdfp::hw
