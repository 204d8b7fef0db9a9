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
  Video v(0, 1, &model_, 60.0);
  EXPECT_EQ(v.frame_count(), 1800);  // 60 s at 30 fps
}

TEST_F(VideoTest, TotalBytesNearNominalRate) {
  Video v(0, 1, &model_, 600.0);
  double nominal = 600.0 * model_.params().bytes_per_second();
  EXPECT_NEAR(static_cast<double>(v.total_bytes()) / nominal, 1.0, 0.05);
}

TEST_F(VideoTest, CumulativeBytesMonotone) {
  Video v(0, 1, &model_, 30.0);
  std::int64_t prev = 0;
  for (std::int64_t f = 0; f <= v.frame_count(); f += 97) {
    std::int64_t cum = v.CumulativeBytesAtFrame(f);
    EXPECT_GE(cum, prev);
    prev = cum;
  }
  EXPECT_EQ(v.CumulativeBytesAtFrame(v.frame_count()), v.total_bytes());
}

TEST_F(VideoTest, CumulativeBytesMatchesManualSum) {
  Video v(0, 7, &model_, 10.0);
  std::int64_t sum = 0;
  for (std::int64_t f = 0; f < 45; ++f) sum += v.FrameBytes(f);
  EXPECT_EQ(v.CumulativeBytesAtFrame(45), sum);
}

TEST_F(VideoTest, FrameOfByteInverseOfCumulative) {
  Video v(0, 3, &model_, 30.0);
  for (std::int64_t f = 0; f < v.frame_count(); f += 13) {
    std::int64_t start = v.CumulativeBytesAtFrame(f);
    EXPECT_EQ(v.FrameOfByte(start), f);
    EXPECT_EQ(v.FrameOfByte(start + v.FrameBytes(f) - 1), f);
  }
}

TEST_F(VideoTest, PlaybackTimeMonotoneInByte) {
  Video v(0, 3, &model_, 60.0);
  double prev = -1.0;
  for (std::int64_t b = 0; b < v.total_bytes(); b += v.total_bytes() / 50) {
    double t = v.PlaybackTimeOfByte(b);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST_F(VideoTest, PlaybackTimeOfEndIsDuration) {
  Video v(0, 3, &model_, 60.0);
  EXPECT_DOUBLE_EQ(v.PlaybackTimeOfByte(v.total_bytes()), 60.0);
  EXPECT_DOUBLE_EQ(v.PlaybackTimeOfByte(v.total_bytes() + 1000), 60.0);
}

TEST_F(VideoTest, FirstByteNeededAtTimeZero) {
  Video v(0, 3, &model_, 60.0);
  EXPECT_DOUBLE_EQ(v.PlaybackTimeOfByte(0), 0.0);
}

TEST_F(VideoTest, SameSeedReproducesStream) {
  Video a(0, 42, &model_, 30.0);
  Video b(1, 42, &model_, 30.0);
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
  VideoLibrary lib(4, 60.0, MpegParams(), zipf, 1);
  std::int64_t block_bytes = 512 * 1024;
  std::int64_t blocks = lib.NumBlocks(0, block_bytes);
  EXPECT_GE(blocks * block_bytes, lib.video(0).total_bytes());
  EXPECT_LT((blocks - 1) * block_bytes, lib.video(0).total_bytes());
}

TEST(VideoLibraryTest, BlockPlaybackTimesSpreadOverDuration) {
  ZipfDistribution zipf(2, 1.0);
  VideoLibrary lib(2, 60.0, MpegParams(), zipf, 1);
  std::int64_t block_bytes = 512 * 1024;
  std::int64_t blocks = lib.NumBlocks(0, block_bytes);
  EXPECT_DOUBLE_EQ(lib.BlockPlaybackTime(0, 0, block_bytes), 0.0);
  double late = lib.BlockPlaybackTime(0, blocks - 1, block_bytes);
  EXPECT_GT(late, 55.0);
  EXPECT_LE(late, 60.0);
  // Consecutive blocks are roughly one second of video apart (512 KiB at
  // 4 Mbit/s ~ 1 s).
  double t10 = lib.BlockPlaybackTime(0, 10, block_bytes);
  double t11 = lib.BlockPlaybackTime(0, 11, block_bytes);
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
  const int gop = lib.frame_model().params().gop_frames();
  for (int id = 0; id < kVideos; ++id) {
    const Video& video = lib.video(id);
    std::int64_t cumulative = 0;
    for (std::int64_t f = 0; f < video.frame_count(); ++f) {
      if (f % gop == 0) {
        // At a GOP boundary this is the video's GOP prefix entry.
        ASSERT_EQ(video.CumulativeBytesAtFrame(f), cumulative)
            << "video " << id << " frame " << f;
      }
      cumulative += video.FrameBytes(f);
    }
    ASSERT_EQ(video.total_bytes(), cumulative) << "video " << id;
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

// --- FrameOfByte / GopOfByte against a std::upper_bound reference ---

// The byte -> frame mapping by its plain definition: GOP boundaries
// summed from FrameBytes, std::upper_bound over them, then a walk of
// the GOP's frames.
class FrameOfByteReference {
 public:
  explicit FrameOfByteReference(const Video& video) : video_(video) {
    const int gop = MpegParams().gop_frames();
    std::int64_t cumulative = 0;
    for (std::int64_t f = 0; f < video.frame_count(); ++f) {
      if (f % gop == 0) gop_prefix_.push_back(cumulative);
      frame_start_.push_back(cumulative);
      cumulative += video.FrameBytes(f);
    }
    gop_prefix_.push_back(cumulative);
    frame_start_.push_back(cumulative);
  }

  std::int64_t Gop(std::int64_t byte) const {
    return std::upper_bound(gop_prefix_.begin(), gop_prefix_.end(), byte) -
           gop_prefix_.begin() - 1;
  }
  std::int64_t Frame(std::int64_t byte) const {
    if (byte >= video_.total_bytes()) return video_.frame_count();
    const int gop = MpegParams().gop_frames();
    std::int64_t cumulative = gop_prefix_[Gop(byte)];
    for (std::int64_t f = Gop(byte) * gop;; ++f) {
      cumulative += video_.FrameBytes(f);
      if (byte < cumulative) return f;
    }
  }
  // Every byte where an answer changes, one either side, and the ends.
  std::vector<std::int64_t> Probes() const {
    std::vector<std::int64_t> bytes = {0, 1, video_.total_bytes() - 1,
                                       video_.total_bytes(),
                                       video_.total_bytes() + 1};
    for (std::int64_t start : frame_start_) {
      for (std::int64_t byte : {start - 1, start, start + 1}) {
        if (byte >= 0) bytes.push_back(byte);
      }
    }
    return bytes;
  }

 private:
  const Video& video_;
  std::vector<std::int64_t> gop_prefix_;   // bytes before each GOP
  std::vector<std::int64_t> frame_start_;  // bytes before each frame
};

void ExpectMatchesReference(const Video& video) {
  const FrameOfByteReference reference(video);
  const double fps = MpegParams().frames_per_second;
  for (std::int64_t byte : reference.Probes()) {
    const std::int64_t frame = reference.Frame(byte);
    ASSERT_EQ(video.FrameOfByte(byte), frame) << "byte " << byte;
    if (byte < video.total_bytes()) {
      ASSERT_EQ(video.GopOfByte(byte), reference.Gop(byte)) << "byte " << byte;
    }
    const double time = frame >= video.frame_count()
                            ? video.duration_seconds()
                            : static_cast<double>(frame) / fps;
    ASSERT_EQ(video.PlaybackTimeOfByte(byte), time) << "byte " << byte;
  }
}

// Ten-minute videos: the proportional guess drifts tens of GOPs from the
// answer, so the gallop runs both ways and over long distances.
TEST_F(VideoTest, FrameOfByteMatchesUpperBoundReference) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 0xdeadbeefcafef00dULL}) {
    Video video(0, seed, &model_, 600.0);
    ExpectMatchesReference(video);
  }
}

TEST_F(VideoTest, FrameOfByteMatchesReferenceOnOneGopVideo) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    Video video(0, seed, &model_, 0.5);
    ASSERT_EQ(video.frame_count(), model_.params().gop_frames());
    ExpectMatchesReference(video);
  }
}

TEST_F(VideoTest, DrawFrameSizesMatchesFrameBytes) {
  Video video(0, 9, &model_, 60.0);
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
