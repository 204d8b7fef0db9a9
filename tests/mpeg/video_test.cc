#include "mpeg/video.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "scoped_jobs.h"
#include "sim/threads.h"

namespace spiffi::mpeg {
namespace {

class VideoTest : public ::testing::Test {
 protected:
  VideoTest() : model_(MpegParams()) {}
  FrameModel model_;
};

TEST_F(VideoTest, FrameCountMatchesDuration) {
  Video v(0, 1, &model_, 60.0, kDefaultBlockBytes);
  EXPECT_EQ(v.frame_count(), 1800);  // 60 s at 30 fps
}

TEST_F(VideoTest, TotalBytesNearNominalRate) {
  Video v(0, 1, &model_, 600.0, kDefaultBlockBytes);
  double nominal = 600.0 * model_.params().bytes_per_second();
  EXPECT_NEAR(static_cast<double>(v.total_bytes()) / nominal, 1.0, 0.05);
}

TEST_F(VideoTest, CumulativeBytesMonotone) {
  Video v(0, 1, &model_, 30.0, kDefaultBlockBytes);
  std::int64_t prev = 0;
  for (std::int64_t f = 0; f <= v.frame_count(); f += 97) {
    std::int64_t cum = v.CumulativeBytesAtFrame(f);
    EXPECT_GE(cum, prev);
    prev = cum;
  }
  EXPECT_EQ(v.CumulativeBytesAtFrame(v.frame_count()), v.total_bytes());
}

TEST_F(VideoTest, CumulativeBytesMatchesManualSum) {
  Video v(0, 7, &model_, 10.0, kDefaultBlockBytes);
  std::int64_t sum = 0;
  for (std::int64_t f = 0; f < 45; ++f) sum += v.FrameBytes(f);
  EXPECT_EQ(v.CumulativeBytesAtFrame(45), sum);
}

TEST_F(VideoTest, PlaybackTimeMonotoneInByte) {
  // Blocks of about a fiftieth of the video: their playback times, the
  // display times of the frames holding their first bytes, never fall.
  Video v(0, 3, &model_, 60.0, 600 * 1000);
  ASSERT_GE(v.num_blocks(), 50);
  double prev = -1.0;
  for (std::int64_t b = 0; b < v.num_blocks(); ++b) {
    double t = v.PlaybackTimeOfFrame(v.BlockStartFrame(b));
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST_F(VideoTest, PlaybackTimeOfEndIsDuration) {
  Video v(0, 3, &model_, 60.0, kDefaultBlockBytes);
  EXPECT_DOUBLE_EQ(v.PlaybackTimeOfFrame(v.frame_count()), 60.0);
  EXPECT_DOUBLE_EQ(v.PlaybackTimeOfFrame(v.frame_count() + 1000), 60.0);
}

TEST_F(VideoTest, FirstByteNeededAtTimeZero) {
  Video v(0, 3, &model_, 60.0, kDefaultBlockBytes);
  EXPECT_EQ(v.BlockStartFrame(0), 0);
  EXPECT_EQ(v.BlockLeadBytes(0), 0);
  EXPECT_DOUBLE_EQ(v.PlaybackTimeOfFrame(v.BlockStartFrame(0)), 0.0);
}

TEST_F(VideoTest, SameSeedReproducesStream) {
  Video a(0, 42, &model_, 30.0, kDefaultBlockBytes);
  Video b(1, 42, &model_, 30.0, kDefaultBlockBytes);
  for (std::int64_t f = 0; f < a.frame_count(); f += 7) {
    EXPECT_EQ(a.FrameBytes(f), b.FrameBytes(f));
  }
}

TEST(VideoLibraryTest, BuildsRequestedCount) {
  ZipfDistribution zipf(64, 1.0);
  VideoLibrary lib(64, 60.0, MpegParams(), zipf, 1);
  EXPECT_EQ(lib.count(), 64);
  // Distinct videos have distinct streams.
  EXPECT_NE(lib.video(0).total_bytes(), lib.video(1).total_bytes());
}

TEST(VideoLibraryTest, NumBlocksCoversVideo) {
  ZipfDistribution zipf(4, 1.0);
  for (std::int64_t block_bytes : {4096, 300000, 512 * 1024}) {
    VideoLibrary lib(4, 60.0, MpegParams(), zipf, 1, block_bytes);
    EXPECT_EQ(lib.block_bytes(), block_bytes);
    const std::int64_t total = lib.video(0).total_bytes();
    const std::int64_t blocks = lib.NumBlocks(0);
    EXPECT_GE(blocks * block_bytes, total);
    EXPECT_LT((blocks - 1) * block_bytes, total);
    EXPECT_EQ(lib.BlockBytes(0, 0), block_bytes);
    EXPECT_EQ(lib.BlockBytes(0, blocks - 1),
              total - (blocks - 1) * block_bytes);
  }
}

TEST(VideoLibraryTest, BlockPlaybackTimesSpreadOverDuration) {
  ZipfDistribution zipf(2, 1.0);
  VideoLibrary lib(2, 60.0, MpegParams(), zipf, 1, 512 * 1024);
  std::int64_t blocks = lib.NumBlocks(0);
  EXPECT_DOUBLE_EQ(lib.BlockPlaybackTime(0, 0), 0.0);
  double late = lib.BlockPlaybackTime(0, blocks - 1);
  EXPECT_GT(late, 55.0);
  EXPECT_LE(late, 60.0);
  // Consecutive blocks are roughly one second of video apart (512 KiB at
  // 4 Mbit/s ~ 1 s).
  double t10 = lib.BlockPlaybackTime(0, 10);
  double t11 = lib.BlockPlaybackTime(0, 11);
  EXPECT_GT(t11 - t10, 0.3);
  EXPECT_LT(t11 - t10, 3.0);
}

TEST(VideoLibraryTest, SelectionFollowsPopularity) {
  ZipfDistribution zipf(16, 1.0);
  VideoLibrary lib(16, 60.0, MpegParams(), zipf, 1);
  sim::Rng rng(5);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 20000; ++i) ++counts[lib.Select(&rng)];
  EXPECT_GT(counts[0], counts[8]);
  EXPECT_GT(counts[0], 3 * counts[15]);
}

// Builds the library on a fresh thread, marked as a pool worker or not.
std::unique_ptr<VideoLibrary> BuildOnThread(bool pool_worker, int count,
                                            double duration_seconds) {
  std::unique_ptr<VideoLibrary> library;
  std::thread([&] {
    std::unique_ptr<sim::PoolWorkerScope> mark;
    if (pool_worker) mark = std::make_unique<sim::PoolWorkerScope>();
    library = std::make_unique<VideoLibrary>(
        count, duration_seconds, MpegParams(), ZipfDistribution(count, 1.0),
        9);
  }).join();
  return library;
}

TEST(VideoLibraryTest, ParallelBuildMatchesSerialBuild) {
  ScopedJobs jobs(4);
  auto serial = BuildOnThread(/*pool_worker=*/true, 64, 120.0);
  auto parallel = BuildOnThread(/*pool_worker=*/false, 64, 120.0);
  EXPECT_EQ(serial->build_threads(), 1);
  EXPECT_EQ(parallel->build_threads(), 4);  // min(4 cores, 64 / 8)
  const int gop = MpegParams().gop_frames();
  for (int id = 0; id < 64; ++id) {
    const Video& a = serial->video(id);
    const Video& b = parallel->video(id);
    ASSERT_EQ(a.id(), id);
    ASSERT_EQ(b.id(), id);
    ASSERT_EQ(a.frame_count(), b.frame_count()) << "video " << id;
    ASSERT_EQ(a.total_bytes(), b.total_bytes()) << "video " << id;
    for (std::int64_t f = 0; f <= a.frame_count(); f += gop) {
      ASSERT_EQ(a.CumulativeBytesAtFrame(f), b.CumulativeBytesAtFrame(f))
          << "video " << id << " frame " << f;
    }
    ASSERT_EQ(a.num_blocks(), b.num_blocks()) << "video " << id;
    for (std::int64_t block = 0; block < a.num_blocks(); ++block) {
      ASSERT_EQ(a.BlockStartFrame(block), b.BlockStartFrame(block));
      ASSERT_EQ(a.BlockLeadBytes(block), b.BlockLeadBytes(block));
    }
  }
}

// A paper-scale library (256 one-hour videos, 27.6 M draws) built
// through the batch kernel against FrameBytes summed frame by frame.
// Library seed 6 makes the kernel take the exact path for a few draws.
TEST(VideoLibraryTest, KernelBuildMatchesScalarBuild) {
  constexpr int kVideos = 256;
  VideoLibrary lib(kVideos, 3600.0, MpegParams(),
                   ZipfDistribution(kVideos, 1.0), 6);
  EXPECT_GT(lib.fallback_draws(), 0);
  const std::int64_t block_bytes = lib.block_bytes();
  for (int id = 0; id < kVideos; ++id) {
    const Video& video = lib.video(id);
    std::int64_t cumulative = 0;
    std::int64_t block = 0;
    for (std::int64_t f = 0; f < video.frame_count(); ++f) {
      const std::int64_t end = cumulative + video.FrameBytes(f);
      // Every block that starts inside frame f.
      for (; block * block_bytes < end; ++block) {
        ASSERT_EQ(video.BlockStartFrame(block), f)
            << "video " << id << " block " << block;
        ASSERT_EQ(video.BlockLeadBytes(block),
                  block * block_bytes - cumulative)
            << "video " << id << " block " << block;
      }
      cumulative = end;
    }
    ASSERT_EQ(video.total_bytes(), cumulative) << "video " << id;
    ASSERT_EQ(video.num_blocks(), block) << "video " << id;
  }
}

TEST(VideoLibraryTest, BuildThreadsFollowCoresAndVideoCount) {
  struct Case {
    int jobs;
    int count;
    int threads;
  };
  // threads = min(SPIFFI_JOBS, count / 8), at least 1.
  for (const Case& c : {Case{1, 64, 1}, Case{3, 64, 3}, Case{16, 64, 8},
                        Case{4, 7, 1}, Case{4, 16, 2}}) {
    ScopedJobs jobs(c.jobs);
    auto library = BuildOnThread(/*pool_worker=*/false, c.count, 1.0);
    EXPECT_EQ(library->build_threads(), c.threads)
        << "SPIFFI_JOBS=" << c.jobs << ", " << c.count << " videos";
    EXPECT_EQ(library->count(), c.count);
  }
}

// --- The block table against a scalar FrameBytes walk ---

// Checks every block start and lead of `video`, CumulativeBytesAtFrame
// at every frame, and the block count and sizes, against the frames'
// sizes summed one FrameBytes at a time.
void ExpectBlockTableMatchesWalk(const Video& video) {
  const std::int64_t block_bytes = video.block_bytes();
  std::int64_t cumulative = 0;  // bytes before frame f
  std::int64_t block = 0;       // next block whose start is unchecked
  for (std::int64_t f = 0; f < video.frame_count(); ++f) {
    ASSERT_EQ(video.CumulativeBytesAtFrame(f), cumulative) << "frame " << f;
    const std::int64_t end = cumulative + video.FrameBytes(f);
    for (; block * block_bytes < end; ++block) {
      ASSERT_LT(block, video.num_blocks());
      ASSERT_EQ(video.BlockStartFrame(block), f) << "block " << block;
      ASSERT_EQ(video.BlockLeadBytes(block),
                block * block_bytes - cumulative)
          << "block " << block;
    }
    cumulative = end;
  }
  ASSERT_EQ(video.total_bytes(), cumulative);
  ASSERT_EQ(video.CumulativeBytesAtFrame(video.frame_count()), cumulative);
  ASSERT_EQ(video.num_blocks(), block);
  // Every block is full but the last, which holds the remainder.
  for (std::int64_t b = 0; b + 1 < video.num_blocks(); ++b) {
    ASSERT_EQ(video.BlockBytes(b), block_bytes) << "block " << b;
  }
  const std::int64_t last = video.num_blocks() - 1;
  EXPECT_EQ(video.BlockBytes(last), cumulative - last * block_bytes);
  EXPECT_GT(video.BlockBytes(last), 0);
}

// Block sizes from 4 KiB, where several blocks start inside one frame,
// to 1 MiB, and 300,000 bytes, which is not a power of two.
constexpr std::int64_t kBlockSizes[] = {4 * 1024, 128 * 1024, 300000,
                                        512 * 1024, 1024 * 1024};

TEST_F(VideoTest, BlockTableMatchesScalarWalk) {
  for (std::int64_t block_bytes : kBlockSizes) {
    for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefcafef00dULL}) {
      SCOPED_TRACE(::testing::Message()
                   << "block_bytes " << block_bytes << ", seed " << seed);
      Video video(0, seed, &model_, 300.0, block_bytes);
      ExpectBlockTableMatchesWalk(video);
    }
  }
}

// A one-GOP video is shorter than a 1 MiB block: one short block.
TEST_F(VideoTest, BlockTableMatchesScalarWalkOnOneGopVideo) {
  for (std::int64_t block_bytes : kBlockSizes) {
    for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      SCOPED_TRACE(::testing::Message()
                   << "block_bytes " << block_bytes << ", seed " << seed);
      Video video(0, seed, &model_, 0.5, block_bytes);
      ASSERT_EQ(video.frame_count(), model_.params().gop_frames());
      ExpectBlockTableMatchesWalk(video);
    }
  }
}

TEST_F(VideoTest, DrawFrameSizesMatchesFrameBytes) {
  Video video(0, 9, &model_, 60.0, kDefaultBlockBytes);
  std::int32_t sizes[kDrawBlock];
  for (std::int64_t first : {0, 7, 15, 64, 1000}) {
    for (int n : {0, 1, 17, kDrawBlock - 1, kDrawBlock}) {
      std::fill(std::begin(sizes), std::end(sizes), -1);
      video.DrawFrameSizes(first, n, sizes);
      for (int j = 0; j < n; ++j) {
        ASSERT_EQ(sizes[j], video.FrameBytes(first + j))
            << "first " << first << ", frame " << j;
      }
      for (int j = n; j < kDrawBlock; ++j) ASSERT_EQ(sizes[j], -1);
    }
  }
  // The last frames of the video, short of a whole block.
  const std::int64_t first = video.frame_count() - 5;
  video.DrawFrameSizes(first, 5, sizes);
  for (int j = 0; j < 5; ++j) {
    EXPECT_EQ(sizes[j], video.FrameBytes(first + j));
  }
}

}  // namespace
}  // namespace spiffi::mpeg
