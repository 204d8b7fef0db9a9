// Parameterized property tests for the MPEG video substrate.

#include <algorithm>
#include <cmath>

#include "gtest/gtest.h"
#include "mpeg/video.h"
#include "mpeg/zipf.h"

namespace spiffi::mpeg {
namespace {

// --- Zipf properties over the z range ---

class ZipfPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfPropertyTest, ProbabilitiesDecreaseWithRank) {
  ZipfDistribution zipf(64, GetParam());
  for (int r = 1; r < 64; ++r) {
    EXPECT_LE(zipf.Probability(r), zipf.Probability(r - 1) + 1e-15);
  }
}

TEST_P(ZipfPropertyTest, ProbabilitiesSumToOne) {
  ZipfDistribution zipf(64, GetParam());
  double sum = 0.0;
  for (int r = 0; r < 64; ++r) sum += zipf.Probability(r);
  EXPECT_NEAR(sum, 1.0, 1e-10);
}

TEST_P(ZipfPropertyTest, EmpiricalFrequenciesMatch) {
  ZipfDistribution zipf(16, GetParam());
  sim::Rng rng(42);
  std::vector<int> counts(16, 0);
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.Sample(&rng)];
  for (int r = 0; r < 16; ++r) {
    double expected = zipf.Probability(r) * kDraws;
    EXPECT_NEAR(counts[r], expected,
                6.0 * std::sqrt(expected + 1.0) + 12.0);
  }
}

INSTANTIATE_TEST_SUITE_P(ZRange, ZipfPropertyTest,
                         ::testing::Values(0.0, 0.25, 0.5, 1.0, 1.5, 2.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "z" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

// --- Video timeline properties over durations ---

class VideoPropertyTest : public ::testing::TestWithParam<double> {
 protected:
  VideoPropertyTest() : model_(MpegParams()) {}
  FrameModel model_;
};

// The byte -> frame mapping at block starts: about 200 blocks per
// video, each starting inside the frame its index names, in order.
TEST_P(VideoPropertyTest, ByteToFrameMappingIsMonotoneAndConsistent) {
  const std::int64_t block_bytes = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(GetParam() *
                                   model_.params().bytes_per_second()) /
             200);
  Video video(0, 99, &model_, GetParam(), block_bytes);
  std::int64_t prev_frame = 0;
  for (std::int64_t b = 0; b < video.num_blocks(); ++b) {
    const std::int64_t byte = b * block_bytes;
    const std::int64_t frame = video.BlockStartFrame(b);
    EXPECT_GE(frame, prev_frame);
    // The byte lies inside the frame's extent, lead bytes into it.
    const std::int64_t start = video.CumulativeBytesAtFrame(frame);
    EXPECT_LE(start, byte);
    EXPECT_GT(video.CumulativeBytesAtFrame(frame + 1), byte);
    EXPECT_EQ(video.BlockLeadBytes(b), byte - start);
    prev_frame = frame;
  }
}

TEST_P(VideoPropertyTest, PlaybackTimeCoversDuration) {
  constexpr std::int64_t kBlock = 64 * 1024;
  Video video(0, 7, &model_, GetParam(), kBlock);
  EXPECT_DOUBLE_EQ(video.PlaybackTimeOfFrame(video.BlockStartFrame(0)), 0.0);
  double at_end = video.PlaybackTimeOfFrame(video.frame_count());
  EXPECT_DOUBLE_EQ(at_end, video.duration_seconds());
  // One second of playback is about bytes_per_second() of data.
  double rate = model_.params().bytes_per_second();
  std::int64_t half = video.num_blocks() / 2;
  double t_half = video.PlaybackTimeOfFrame(video.BlockStartFrame(half));
  EXPECT_NEAR(t_half, static_cast<double>(half * kBlock) / rate,
              video.duration_seconds() * 0.1);
}

TEST_P(VideoPropertyTest, TotalBytesMatchSumOfFrames) {
  Video video(0, 13, &model_, GetParam(), kDefaultBlockBytes);
  std::int64_t sum = 0;
  for (std::int64_t f = 0; f < video.frame_count(); ++f) {
    sum += video.FrameBytes(f);
  }
  EXPECT_EQ(sum, video.total_bytes());
}

INSTANTIATE_TEST_SUITE_P(Durations, VideoPropertyTest,
                         ::testing::Values(10.0, 60.0, 300.0, 1800.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return std::to_string(
                                      static_cast<int>(info.param)) + "s";
                         });

}  // namespace
}  // namespace spiffi::mpeg
