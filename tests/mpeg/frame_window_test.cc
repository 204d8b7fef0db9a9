#include "mpeg/frame_window.h"

#include "gtest/gtest.h"

namespace spiffi::mpeg {
namespace {

class FrameWindowTest : public ::testing::Test {
 protected:
  FrameWindowTest()
      : model_(MpegParams()), video_(0, 5, &model_, 30.0, kDefaultBlockBytes) {}
  FrameModel model_;
  Video video_;  // 900 frames: 14 whole windows and a 4-frame tail
};

TEST_F(FrameWindowTest, SequentialReadsMatchFrameBytes) {
  FrameWindow window;
  for (std::int64_t f = 0; f < video_.frame_count(); ++f) {
    ASSERT_EQ(window.Peek(video_, f), video_.FrameBytes(f)) << "frame " << f;
    window.Advance();
  }
  EXPECT_EQ(window.refills(), 15u);  // ceil(900 / 64)
  EXPECT_EQ(window.scalar_draws(), 0u);
}

TEST_F(FrameWindowTest, PeekWithoutAdvanceRereadsTheSameFrame) {
  FrameWindow window;
  for (std::int64_t f = 0; f < 2 * kDrawBlock; ++f) {
    ASSERT_EQ(window.Peek(video_, f), video_.FrameBytes(f));
    ASSERT_EQ(window.Peek(video_, f), video_.FrameBytes(f));
    window.Advance();
  }
  EXPECT_EQ(window.refills(), 2u);
}

TEST_F(FrameWindowTest, FinalWindowIsClippedAtTheVideoEnd) {
  FrameWindow window;
  const std::int64_t first = video_.frame_count() - 10;
  for (std::int64_t f = first; f < video_.frame_count(); ++f) {
    ASSERT_EQ(window.Peek(video_, f), video_.FrameBytes(f)) << "frame " << f;
    window.Advance();
  }
  EXPECT_EQ(window.refills(), 1u);
}

TEST_F(FrameWindowTest, InvalidateRedrawsFromTheNewFrame) {
  FrameWindow window;
  for (std::int64_t f = 0; f < 10; ++f) {
    window.Peek(video_, f);
    window.Advance();
  }
  // A jump back within the drawn frames, then onto another video.
  window.Invalidate();
  for (std::int64_t f = 3; f < 3 + kDrawBlock; ++f) {
    ASSERT_EQ(window.Peek(video_, f), video_.FrameBytes(f)) << "frame " << f;
    window.Advance();
  }
  const Video other(1, 6, &model_, 30.0, kDefaultBlockBytes);
  window.Invalidate();
  for (std::int64_t f = 100; f < 110; ++f) {
    ASSERT_EQ(window.Peek(other, f), other.FrameBytes(f)) << "frame " << f;
    window.Advance();
  }
  EXPECT_EQ(window.refills(), 3u);
}

}  // namespace
}  // namespace spiffi::mpeg
