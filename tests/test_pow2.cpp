#include "quant/pow2.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mfdfp::quant {
namespace {

TEST(Pow2, ExactPowersAreFixedPoints) {
  for (int e = kPow2MinExp; e <= kPow2MaxExp; ++e) {
    const float v = std::ldexp(1.0f, e);
    const Pow2Weight q = quantize_pow2(v);
    EXPECT_EQ(q.exponent, e);
    EXPECT_FALSE(q.negative);
    EXPECT_FLOAT_EQ(q.value(), v);
    const Pow2Weight qn = quantize_pow2(-v);
    EXPECT_TRUE(qn.negative);
    EXPECT_FLOAT_EQ(qn.value(), -v);
  }
}

TEST(Pow2, RoundsInLogDomain) {
  // 0.7: log2 = -0.515 -> rounds to -1 -> 0.5.
  EXPECT_FLOAT_EQ(pow2_value(0.7f), 0.5f);
  // 0.75: log2 = -0.415 -> rounds to 0 -> 1.0 (log-domain, not linear!).
  EXPECT_FLOAT_EQ(pow2_value(0.75f), 1.0f);
  // 0.35 -> log2 ~ -1.51 -> -2 -> 0.25.
  EXPECT_FLOAT_EQ(pow2_value(0.35f), 0.25f);
  EXPECT_FLOAT_EQ(pow2_value(-0.35f), -0.25f);
}

TEST(Pow2, ClampsToEncodableExponentRange) {
  EXPECT_EQ(quantize_pow2(100.0f).exponent, kPow2MaxExp);
  EXPECT_EQ(quantize_pow2(1e-6f).exponent, kPow2MinExp);
}

TEST(Pow2, ZeroMapsToSmallestMagnitude) {
  const Pow2Weight q = quantize_pow2(0.0f);
  EXPECT_EQ(q.exponent, kPow2MinExp);
  EXPECT_FLOAT_EQ(std::fabs(q.value()), std::ldexp(1.0f, kPow2MinExp));
}

TEST(Pow2, StochasticNeedsRng) {
  EXPECT_THROW(quantize_pow2(0.5f, Rounding::kStochastic, nullptr),
               std::invalid_argument);
}

TEST(Pow2, StochasticIsUnbiasedInLogDomain) {
  util::Rng rng{42};
  const float v = 0.35f;  // log2 = -1.515 between -2 and -1
  const double frac = std::log2(0.35) - std::floor(std::log2(0.35));
  int ups = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (quantize_pow2(v, Rounding::kStochastic, &rng).exponent == -1) ++ups;
  }
  EXPECT_NEAR(static_cast<double>(ups) / kTrials, frac, 0.02);
}

class NibbleRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(NibbleRoundTrip, AllSixteenCodes) {
  const auto nibble = static_cast<std::uint8_t>(GetParam());
  const Pow2Weight w = decode_nibble(nibble);
  EXPECT_EQ(encode_nibble(w), nibble);
  EXPECT_GE(w.exponent, kPow2MinExp);
  EXPECT_LE(w.exponent, kPow2MaxExp);
}

INSTANTIATE_TEST_SUITE_P(AllNibbles, NibbleRoundTrip, ::testing::Range(0, 16));

TEST(Pack, RoundTripThroughNibbles) {
  tensor::Tensor weights{tensor::Shape{7},
                         {0.9f, -0.5f, 0.26f, -0.12f, 0.06f, -0.03f, 0.01f}};
  const auto packed = pack_pow2(weights);
  EXPECT_EQ(packed.size(), 4u);  // ceil(7/2)
  const auto values = unpack_pow2(packed, 7);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_FLOAT_EQ(values[i].value(), pow2_value(weights[i])) << i;
  }
}

// Every one of the 16 codes, plus one more so the count is odd and the last
// byte holds a single low nibble: pack -> unpack returns the exact weights,
// and the same stream one byte short throws.
TEST(Pack, AllSixteenCodesRoundTripAtAnOddCount) {
  std::vector<Pow2Weight> expected;
  for (int code = 0; code < 16; ++code) {
    expected.push_back(decode_nibble(static_cast<std::uint8_t>(code)));
  }
  expected.push_back(decode_nibble(0x9));
  tensor::Tensor weights{tensor::Shape{expected.size()}};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    weights[i] = expected[i].value();
  }

  std::vector<std::uint8_t> packed = pack_pow2(weights);
  ASSERT_EQ(packed.size(), 9u);  // ceil(17/2)
  EXPECT_EQ(packed.back(), 0x9);  // the high nibble of the last byte is 0
  EXPECT_EQ(unpack_pow2(packed, expected.size()), expected);

  packed.pop_back();
  EXPECT_THROW((void)unpack_pow2(packed, expected.size()),
               std::invalid_argument);
  EXPECT_EQ(unpack_pow2(packed, expected.size() - 1).size(), 16u);
}

TEST(Pack, ShortStreamThrows) {
  EXPECT_THROW(unpack_pow2({0x12}, 3), std::invalid_argument);
}

TEST(Pow2, TensorQuantizeMatchesScalar) {
  util::Rng rng{7};
  tensor::Tensor src{tensor::Shape{64}};
  src.fill_normal(rng, 0.0f, 0.3f);
  tensor::Tensor dst{src.shape()};
  quantize_tensor_pow2(src, dst);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_FLOAT_EQ(dst[i], pow2_value(src[i]));
  }
}

TEST(Pow2, RelativeErrorBounded) {
  // Log-domain rounding bounds the multiplicative error by sqrt(2) on the
  // unclamped range.
  util::Rng rng{8};
  for (int i = 0; i < 2000; ++i) {
    const float v = rng.uniform_f(0.008f, 1.0f);
    const float q = std::fabs(pow2_value(v));
    const float ratio = q / v;
    EXPECT_LE(ratio, std::sqrt(2.0f) * 1.001f);
    EXPECT_GE(ratio, 1.0f / std::sqrt(2.0f) * 0.999f);
  }
}

}  // namespace
}  // namespace mfdfp::quant
