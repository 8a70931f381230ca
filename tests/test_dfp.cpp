#include "quant/dfp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "hw/datapath.hpp"
#include "util/rng.hpp"

namespace mfdfp::quant {
namespace {

TEST(DfpFormat, StepAndRange) {
  const DfpFormat f{8, 5};
  EXPECT_DOUBLE_EQ(f.step(), 1.0 / 32.0);
  EXPECT_EQ(f.min_code(), -128);
  EXPECT_EQ(f.max_code(), 127);
  EXPECT_DOUBLE_EQ(f.min_value(), -4.0);
  EXPECT_DOUBLE_EQ(f.max_value(), 127.0 / 32.0);
}

TEST(DfpFormat, NegativeFracMeansCoarseGrid) {
  const DfpFormat f{8, -2};
  EXPECT_DOUBLE_EQ(f.step(), 4.0);
  EXPECT_FLOAT_EQ(f.quantize(5.0f), 4.0f);
  EXPECT_FLOAT_EQ(f.quantize(6.0f), 8.0f);  // half rounds away from zero
}

TEST(DfpFormat, RoundHalfAwayFromZero) {
  const DfpFormat f{8, 0};
  EXPECT_EQ(f.encode(0.5f), 1);
  EXPECT_EQ(f.encode(-0.5f), -1);
  EXPECT_EQ(f.encode(1.5f), 2);
  EXPECT_EQ(f.encode(-1.5f), -2);
  EXPECT_EQ(f.encode(0.49f), 0);
}

TEST(DfpFormat, SaturatesAtRails) {
  const DfpFormat f{8, 7};
  EXPECT_EQ(f.encode(10.0f), 127);
  EXPECT_EQ(f.encode(-10.0f), -128);
  EXPECT_FLOAT_EQ(f.quantize(10.0f), 127.0f / 128.0f);
}

TEST(DfpFormat, QuantizeIdempotent) {
  util::Rng rng{1};
  const DfpFormat f{8, 4};
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform_f(-10.0f, 10.0f);
    const float q = f.quantize(v);
    EXPECT_EQ(q, f.quantize(q));
  }
}

TEST(DfpFormat, ErrorBoundedByHalfStep) {
  util::Rng rng{2};
  const DfpFormat f{8, 5};
  const float half_step = static_cast<float>(f.step()) / 2.0f;
  for (int i = 0; i < 1000; ++i) {
    // In-range values only; saturation breaks the half-step bound.
    const float v = rng.uniform_f(-3.9f, 3.9f);
    EXPECT_LE(std::fabs(f.quantize(v) - v), half_step + 1e-7f);
  }
}

TEST(DfpFormat, ToString) {
  EXPECT_EQ((DfpFormat{8, 5}).to_string(), "<8,5>");
  EXPECT_EQ((DfpFormat{8, -3}).to_string(), "<8,-3>");
}

// The floor/ceil spelling encode_scaled used before it became branch-free,
// kept as the oracle. Defined for every non-NaN `scaled`.
std::int32_t floor_ceil_encode(const DfpFormat& f, double scaled) {
  const double rounded =
      scaled >= 0.0 ? std::floor(scaled + 0.5) : std::ceil(scaled - 0.5);
  return static_cast<std::int32_t>(
      std::clamp(rounded, static_cast<double>(f.min_code()),
                 static_cast<double>(f.max_code())));
}

// Every half-way point k + 0.5 of the 8-bit range and one code past each
// rail, k in [-130, 129].
std::vector<double> half_way_points() {
  std::vector<double> points;
  for (int k = -130; k <= 129; ++k) points.push_back(k + 0.5);
  return points;
}

// Zeros, infinities, subnormals and the float extremes, both signs.
std::vector<float> special_floats() {
  std::vector<float> values;
  for (const float v :
       {0.0f, std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::denorm_min(),
        std::nextafter(FLT_MIN, 0.0f),  // largest subnormal
        FLT_MIN, FLT_MAX, 1.0f, 0.5f}) {
    values.push_back(v);
    values.push_back(-v);
  }
  return values;
}

TEST(DfpFormat, EncodeScaledMatchesFloorCeilAroundEveryHalfWayPoint) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const int bits : {2, 8, 16, 31}) {
    const DfpFormat f{bits, 0};
    std::vector<double> points = half_way_points();
    // Half-way points around the rails of the wider formats too.
    for (const double rail : {static_cast<double>(f.min_code()),
                              static_cast<double>(f.max_code())}) {
      for (int d = -2; d <= 1; ++d) points.push_back(rail + d + 0.5);
    }
    for (const double y : points) {
      const float yf = static_cast<float>(y);
      for (const double scaled :
           {y, std::nextafter(y, -kInf), std::nextafter(y, kInf),
            static_cast<double>(yf),
            static_cast<double>(std::nextafter(yf, -FLT_MAX)),
            static_cast<double>(std::nextafter(yf, FLT_MAX))}) {
        for (const double signed_scaled : {scaled, -scaled}) {
          EXPECT_EQ(f.encode_scaled(signed_scaled),
                    floor_ceil_encode(f, signed_scaled))
              << "bits " << bits << " scaled " << signed_scaled;
        }
      }
    }
    for (const float v : special_floats()) {
      EXPECT_EQ(f.encode_scaled(v), floor_ceil_encode(f, v))
          << "bits " << bits << " scaled " << v;
    }
    for (const double v : {DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
                           std::numeric_limits<double>::denorm_min(), -0.0}) {
      EXPECT_EQ(f.encode_scaled(v), floor_ceil_encode(f, v))
          << "bits " << bits << " scaled " << v;
    }
  }
}

// encode() at every radix check_radix accepts, on the float nearest each
// half-way point's value (exact for frac in [-120, 148]), its 1-ulp float
// neighbours and the special floats.
TEST(DfpFormat, EncodeMatchesFloorCeilAtEveryRadix) {
  for (int frac = -hw::kMaxRadix; frac <= hw::kMaxRadix; ++frac) {
    const DfpFormat f{8, frac};
    std::vector<float> values = special_floats();
    for (const double y : half_way_points()) {
      const float v = static_cast<float>(std::ldexp(y, -frac));
      if (frac >= -120 && frac <= 148) {
        ASSERT_EQ(static_cast<double>(v) / f.step(), y) << "frac " << frac;
      }
      values.insert(values.end(), {v, std::nextafter(v, -FLT_MAX),
                                   std::nextafter(v, FLT_MAX)});
    }
    for (const float v : values) {
      EXPECT_EQ(f.encode(v),
                floor_ceil_encode(f, static_cast<double>(v) / f.step()))
          << "frac " << frac << " value " << v;
    }
  }
}

TEST(DfpFormat, NanEncodesAsZero) {
  for (const double nan : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN()}) {
    for (const int bits : {2, 8, 31}) {
      EXPECT_EQ((DfpFormat{bits, 0}).encode_scaled(nan), 0) << bits;
    }
  }
  for (int frac = -hw::kMaxRadix; frac <= hw::kMaxRadix; ++frac) {
    const DfpFormat f{8, frac};
    EXPECT_EQ(f.encode(std::numeric_limits<float>::quiet_NaN()), 0) << frac;
    EXPECT_EQ(f.quantize(-std::numeric_limits<float>::quiet_NaN()), 0.0f)
        << frac;
  }
}

struct FormatCase {
  float max_abs;
  int expected_frac;
};

class ChooseFormatTest : public ::testing::TestWithParam<FormatCase> {};

TEST_P(ChooseFormatTest, PicksMinimalCoveringFormat) {
  const auto [max_abs, expected_frac] = GetParam();
  const DfpFormat f = choose_format(max_abs, 8);
  EXPECT_EQ(f.frac, expected_frac) << "max_abs=" << max_abs;
  // Coverage: |max_abs| must be representable (up to the asymmetric
  // positive rail).
  EXPECT_GE(-f.min_value(), max_abs);
}

INSTANTIATE_TEST_SUITE_P(
    RangeSweep, ChooseFormatTest,
    ::testing::Values(FormatCase{0.9f, 7},     // <1   -> il=1
                      FormatCase{1.0f, 7},     // exactly 1 -> il=1
                      FormatCase{1.5f, 6},     // il=2
                      FormatCase{2.0f, 6},     // il=2
                      FormatCase{3.9f, 5},     // il=3
                      FormatCase{16.0f, 3},    // il=5
                      FormatCase{100.0f, 0},   // il=8
                      FormatCase{300.0f, -2},  // il=10
                      FormatCase{0.01f, 7 + 6},  // tiny -> deep frac
                      FormatCase{0.0f, 7}));     // degenerate

TEST(ChooseFormat, RejectsBadBits) {
  EXPECT_THROW(choose_format(1.0f, 1), std::invalid_argument);
  EXPECT_THROW(choose_format(1.0f, 32), std::invalid_argument);
}

TEST(ChooseFormat, WiderBitsGiveFinerStep) {
  const DfpFormat f8 = choose_format(3.0f, 8);
  const DfpFormat f16 = choose_format(3.0f, 16);
  EXPECT_LT(f16.step(), f8.step());
}

TEST(QuantizeTensor, ElementwiseAndShapeCheck) {
  const tensor::Tensor src{tensor::Shape{3}, {0.1f, 0.26f, -5.0f}};
  tensor::Tensor dst{tensor::Shape{3}};
  const DfpFormat f{8, 2};  // step 0.25, range [-32, 31.75]
  quantize_tensor(f, src, dst);
  EXPECT_FLOAT_EQ(dst[0], 0.0f);
  EXPECT_FLOAT_EQ(dst[1], 0.25f);
  EXPECT_FLOAT_EQ(dst[2], -5.0f);
  tensor::Tensor wrong{tensor::Shape{2}};
  EXPECT_THROW(quantize_tensor(f, src, wrong), std::invalid_argument);
}

TEST(QuantizationError, ReportsWorstCase) {
  const tensor::Tensor src{tensor::Shape{2}, {0.1f, 0.49f}};
  const DfpFormat f{8, 0};
  EXPECT_NEAR(quantization_error(f, src), 0.49f, 1e-6f);
}

}  // namespace
}  // namespace mfdfp::quant
