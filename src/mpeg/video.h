// A simulated video: a deterministic sequence of MPEG frames with helpers
// for mapping byte positions to playback times (used for deadlines).

#ifndef SPIFFI_MPEG_VIDEO_H_
#define SPIFFI_MPEG_VIDEO_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "mpeg/frame_model.h"
#include "mpeg/zipf.h"
#include "sim/random.h"

namespace spiffi::mpeg {

class Video {
 public:
  // `seed` fixes the frame sequence; replaying the video repeats it.
  Video(int id, std::uint64_t seed, const FrameModel* model,
        double duration_seconds);

  int id() const { return id_; }
  std::int64_t frame_count() const { return frame_count_; }
  std::int64_t total_bytes() const { return total_bytes_; }
  double duration_seconds() const { return duration_seconds_; }

  // Compressed size of frame `index` (0-based).
  std::int64_t FrameBytes(std::int64_t index) const {
    return model_->FrameBytes(seed_, index);
  }

  // Sizes of frames [first, first + n), 0 <= n <= kDrawBlock, through
  // the batch kernel: out[j] == FrameBytes(first + j), bit for bit (every
  // size fits an int32, see kMaxMeanFrameBytes). Returns how many of the
  // n draws took the exact scalar path.
  int DrawFrameSizes(std::int64_t first, int n, std::int32_t* out) const;

  // Bytes of all frames before `index` (== total_bytes at frame_count).
  std::int64_t CumulativeBytesAtFrame(std::int64_t index) const;

  // Playback time (seconds from the start of the video) at which `byte`
  // is consumed, i.e. the display time of the frame containing it.
  // Bytes at or past the end map to the video duration.
  double PlaybackTimeOfByte(std::int64_t byte) const;

  // Index of the frame containing `byte` (frame_count for EOF).
  std::int64_t FrameOfByte(std::int64_t byte) const;

  // Index of the GOP containing `byte`, 0 <= byte < total_bytes: the g
  // with CumulativeBytesAtFrame(g * gop) <= byte < that of GOP g + 1,
  // which is std::upper_bound over the GOP boundaries minus one. Guesses
  // g from byte / total_bytes, gallops to a bracket, then bisects it.
  std::int64_t GopOfByte(std::int64_t byte) const;

 private:
  friend class VideoLibrary;
  struct Undrawn {};

  // Sizes the video and reserves its GOP table without drawing a frame;
  // DrawFrames() then fills the table without allocating. VideoLibrary
  // allocates every video on its calling thread this way, so its helper
  // threads only draw: memory a helper allocated would sit in that
  // thread's own malloc arena and raise peak RSS.
  Video(int id, std::uint64_t seed, const FrameModel* model,
        double duration_seconds, Undrawn);
  // Draws every frame through FrameModel::DrawRun, 960 at a time.
  void DrawFrames() noexcept;

  int id_;
  std::uint64_t seed_;
  const FrameModel* model_;
  double duration_seconds_;
  std::int64_t frame_count_;
  std::int64_t total_bytes_;
  std::int64_t fallback_draws_ = 0;  // DrawFrames' exact-path draws
  // Cumulative bytes at each GOP boundary: gop_prefix_[g] = bytes of all
  // frames before GOP g. Size = num_gops + 1. Keeps per-video memory tiny
  // (one entry per half-second) while byte->time queries stay O(log).
  std::vector<std::int64_t> gop_prefix_;
  // GOPs per byte, num_gops / total_bytes: GopOfByte's first guess.
  double gops_per_byte_ = 0.0;
};

// The library of videos offered by the server plus the popularity
// distribution terminals draw from.
//
// Each video is a pure function of (library seed, video id), so the
// constructor builds them on min(sim::DefaultJobs(), count / 8) threads
// (at least 1), the calling thread included. On a pool worker
// (sim::InPoolWorker(), e.g. a vod::ParallelRunner worker) it builds
// serially, since the pool already fills the cores. Every video is
// filled by id, so the library is bit-identical at any thread count.
class VideoLibrary {
 public:
  // Creates `count` videos of `duration_seconds` each; popularity follows
  // `popularity` (video 0 is the most popular rank).
  VideoLibrary(int count, double duration_seconds, const MpegParams& params,
               const ZipfDistribution& popularity, std::uint64_t seed);

  int count() const { return static_cast<int>(videos_.size()); }
  // Threads that built the videos, the calling thread included.
  int build_threads() const { return build_threads_; }
  // Frame draws the batch kernel handed to the exact scalar path while
  // building the videos (mpeg/draw_kernel.h).
  std::int64_t fallback_draws() const { return fallback_draws_; }
  const Video& video(int id) const { return *videos_[id]; }
  const FrameModel& frame_model() const { return model_; }

  // Draws a video id according to the popularity distribution.
  int Select(sim::Rng* rng) const { return popularity_.Sample(rng); }

  // Number of read blocks of `block_bytes` needed to cover the video.
  std::int64_t NumBlocks(int id, std::int64_t block_bytes) const;

  // Playback time at which the first byte of `block` is consumed.
  double BlockPlaybackTime(int id, std::int64_t block,
                           std::int64_t block_bytes) const;

 private:
  FrameModel model_;
  std::vector<std::unique_ptr<Video>> videos_;
  ZipfDistribution popularity_;
  int build_threads_ = 1;
  std::int64_t fallback_draws_ = 0;
};

}  // namespace spiffi::mpeg

#endif  // SPIFFI_MPEG_VIDEO_H_
