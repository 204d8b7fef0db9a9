#include "mpeg/frame_model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mpeg/draw_kernel.h"
#include "mpeg/video.h"
#include "sim/random.h"

namespace spiffi::mpeg {
namespace {

TEST(FrameModelTest, GopPatternMatchesFrequencyRatio) {
  FrameModel model{MpegParams()};
  int i = 0, p = 0, b = 0;
  for (std::int64_t f = 0; f < 15; ++f) {
    switch (model.TypeOf(f)) {
      case FrameType::kI: ++i; break;
      case FrameType::kP: ++p; break;
      case FrameType::kB: ++b; break;
    }
  }
  EXPECT_EQ(i, 1);
  EXPECT_EQ(p, 4);
  EXPECT_EQ(b, 10);
}

TEST(FrameModelTest, ParamsErrorBoundsTheMeans) {
  EXPECT_EQ(FrameModel::ParamsError(MpegParams()), "");
  MpegParams no_rate;
  no_rate.frames_per_second = 0.0;
  EXPECT_NE(FrameModel::ParamsError(no_rate), "");
  MpegParams no_weight;
  no_weight.i_size_weight = no_weight.p_size_weight = 0;
  no_weight.b_size_weight = 0;
  EXPECT_NE(FrameModel::ParamsError(no_weight), "");
  // The default I-frame mean is 52,429 bytes; kMaxMeanFrameBytes is
  // 58,040,098, so the limit falls between 1,100x and 1,200x the rate.
  MpegParams fast = MpegParams();
  fast.bits_per_second *= 1100.0;
  EXPECT_EQ(FrameModel::ParamsError(fast), "");
  const FrameModel model{fast};
  EXPECT_LT(model.MeanBytes(FrameType::kI) * 53.0 * std::log(2.0),
            2147483647.0);
  fast.bits_per_second *= 1200.0 / 1100.0;
  EXPECT_NE(FrameModel::ParamsError(fast), "");
}

TEST(FrameModelTest, PatternRepeatsEveryGop) {
  FrameModel model{MpegParams()};
  for (std::int64_t f = 0; f < 15; ++f) {
    EXPECT_EQ(model.TypeOf(f), model.TypeOf(f + 15));
    EXPECT_EQ(model.TypeOf(f), model.TypeOf(f + 150));
  }
}

TEST(FrameModelTest, MeanSizesFollowSizeRatio) {
  FrameModel model{MpegParams()};
  double i = model.MeanBytes(FrameType::kI);
  double p = model.MeanBytes(FrameType::kP);
  double b = model.MeanBytes(FrameType::kB);
  EXPECT_NEAR(i / p, 2.0, 1e-12);   // 10:5
  EXPECT_NEAR(p / b, 2.5, 1e-12);   // 5:2
}

TEST(FrameModelTest, LongRunRateMatchesBitRate) {
  MpegParams params;
  FrameModel model{params};
  // Expected bytes per GOP from mean sizes.
  double gop_bytes = model.MeanBytes(FrameType::kI) +
                     4 * model.MeanBytes(FrameType::kP) +
                     10 * model.MeanBytes(FrameType::kB);
  double secs_per_gop = 15.0 / params.frames_per_second;
  EXPECT_NEAR(gop_bytes / secs_per_gop, params.bytes_per_second(), 1e-6);
}

TEST(FrameModelTest, FrameBytesDeterministicPerSeed) {
  FrameModel model{MpegParams()};
  for (std::int64_t f = 0; f < 100; ++f) {
    EXPECT_EQ(model.FrameBytes(11, f), model.FrameBytes(11, f));
  }
  // Different seeds give different streams.
  int diffs = 0;
  for (std::int64_t f = 0; f < 100; ++f) {
    if (model.FrameBytes(11, f) != model.FrameBytes(12, f)) ++diffs;
  }
  EXPECT_GT(diffs, 90);
}

TEST(FrameModelTest, EmpiricalMeanNearNominal) {
  MpegParams params;
  FrameModel model{params};
  double sum = 0.0;
  constexpr std::int64_t kFrames = 150000;
  for (std::int64_t f = 0; f < kFrames; ++f) {
    sum += static_cast<double>(model.FrameBytes(99, f));
  }
  double empirical = sum / kFrames;
  EXPECT_NEAR(empirical / params.mean_frame_bytes(), 1.0, 0.02);
}

TEST(FrameModelTest, SizesAreAtLeastOneByte) {
  FrameModel model{MpegParams()};
  for (std::int64_t f = 0; f < 10000; ++f) {
    EXPECT_GE(model.FrameBytes(3, f), 1);
  }
}

TEST(FrameModelTest, IFramesLargerOnAverageThanBFrames) {
  FrameModel model{MpegParams()};
  double i_sum = 0, b_sum = 0;
  int i_n = 0, b_n = 0;
  for (std::int64_t f = 0; f < 30000; ++f) {
    if (model.TypeOf(f) == FrameType::kI) {
      i_sum += static_cast<double>(model.FrameBytes(5, f));
      ++i_n;
    } else if (model.TypeOf(f) == FrameType::kB) {
      b_sum += static_cast<double>(model.FrameBytes(5, f));
      ++b_n;
    }
  }
  EXPECT_NEAR((i_sum / i_n) / (b_sum / b_n), 5.0, 0.8);
}

// Reference draw straight from the model's definition: the frame's
// type, then that type's mean. The per-position table must match it.
std::int64_t PerTypeDraw(const FrameModel& model, std::uint64_t seed,
                         std::int64_t index) {
  double mean = model.MeanBytes(model.TypeOf(index));
  double size =
      sim::ExponentialAt(seed, static_cast<std::uint64_t>(index), mean);
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(size)));
}

TEST(FrameModelTest, TableDrivenDrawMatchesPerTypeDraw) {
  MpegParams odd_gop;  // 1:2:6, a 9-frame GOP
  odd_gop.p_per_gop = 2;
  odd_gop.b_per_gop = 6;
  for (const MpegParams& params : {MpegParams(), odd_gop}) {
    FrameModel model{params};
    const int gop = params.gop_frames();
    for (int pos = 0; pos < gop; ++pos) {
      EXPECT_EQ(model.PositionMean(pos), model.MeanBytes(model.TypeOf(pos)))
          << "position " << pos;
    }
    // A one-hour video: 108,000 frames drawn GOP by GOP by its
    // constructor, and again one by one through FrameBytes.
    Video video(0, 77, &model, 3600.0, kDefaultBlockBytes);
    ASSERT_GE(video.frame_count(), 100000);
    std::int64_t cumulative = 0;
    for (std::int64_t f = 0; f < video.frame_count(); ++f) {
      if (f % gop == 0) {
        ASSERT_EQ(video.CumulativeBytesAtFrame(f), cumulative)
            << "frame " << f;
      }
      const std::int64_t expected = PerTypeDraw(model, 77, f);
      ASSERT_EQ(model.FrameBytes(77, f), expected) << "frame " << f;
      ASSERT_EQ(FrameModel::DrawBytes(77, f, model.PositionMean(f % gop)),
                expected)
          << "frame " << f;
      cumulative += expected;
    }
    EXPECT_EQ(video.total_bytes(), cumulative);
  }
}

// Every frame of three one-hour videos through each kernel variant the
// CPU supports, called directly, against FrameBytes one frame at a time.
// A second, unaligned run starts mid-GOP and ends mid-block.
TEST(FrameModelTest, BatchDrawMatchesScalarDraw) {
  FrameModel model{MpegParams()};
  constexpr std::int64_t kFrames = 108000;  // one hour at 30 frames/s
  std::vector<std::int64_t> expected(kFrames);
  std::vector<std::int64_t> got(kFrames);
  ASSERT_EQ(std::string(DrawKernels().back().isa), "default");
  for (std::uint64_t seed : {1ULL, 77ULL, 0xdeadbeefcafef00dULL}) {
    for (std::int64_t f = 0; f < kFrames; ++f) {
      expected[f] = model.FrameBytes(seed, f);
    }
    for (const DrawKernel& kernel : DrawKernels()) {
      std::fill(got.begin(), got.end(), -1);
      model.DrawRun(seed, 0, kFrames, got.data(), kernel);
      for (std::int64_t f = 0; f < kFrames; ++f) {
        ASSERT_EQ(got[f], expected[f])
            << kernel.isa << ", seed " << seed << ", frame " << f;
      }
      constexpr std::int64_t kFirst = 7;
      constexpr std::int64_t kCount = 15 * kDrawBlock + 40;
      std::fill(got.begin(), got.end(), -1);
      model.DrawRun(seed, kFirst, kCount, got.data(), kernel);
      for (std::int64_t j = 0; j < kCount; ++j) {
        ASSERT_EQ(got[j], expected[kFirst + j])
            << kernel.isa << ", seed " << seed << ", frame " << kFirst + j;
      }
      EXPECT_EQ(got[kCount], -1) << kernel.isa;  // nothing past the run
    }
  }
}

// The frames the fast pass must not decide: u == 0, and products within
// a few ulp of an integer, crafted by choosing each frame's mean. Every
// variant must hand all of them to the exact path and match it.
TEST(FrameModelTest, BatchDrawTakesExactPathNearIntegers) {
  // Hash64(seed, 0) == Mix64(seed + golden) and Mix64(-golden) == 0.
  const std::uint64_t seed = 0 - 2 * 0x9e3779b97f4a7c15ULL;
  ASSERT_EQ(sim::ToUnitDouble(sim::Hash64(seed, 0)), 0.0);
  std::array<double, kDrawBlock> means;
  means[0] = 10000.0;
  for (int j = 1; j < kDrawBlock; ++j) {
    const double log_v =
        std::log(1.0 - sim::ToUnitDouble(sim::Hash64(seed, j)));
    means[j] = (1000.0 + 997.0 * j) / -log_v;
    const double p = -means[j] * log_v;
    ASSERT_LE(std::fabs(p - std::round(p)), p * 0x1p-50) << "frame " << j;
  }
  for (const DrawKernel& kernel : DrawKernels()) {
    std::array<std::int64_t, kDrawBlock> out;
    EXPECT_EQ(DrawBlock(kernel, seed, 0, means.data(), out.data()),
              kDrawBlock)
        << kernel.isa;
    EXPECT_EQ(out[0], 1) << kernel.isa;
    for (int j = 0; j < kDrawBlock; ++j) {
      EXPECT_EQ(out[j], FrameModel::DrawBytes(seed, j, means[j]))
          << kernel.isa << ", frame " << j;
    }
  }
}

}  // namespace
}  // namespace spiffi::mpeg
