// A simulated video: a deterministic sequence of MPEG frames, cut into
// fixed-size read blocks, with an index of where each block starts in
// the frame sequence (used for block deadlines).

#ifndef SPIFFI_MPEG_VIDEO_H_
#define SPIFFI_MPEG_VIDEO_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "mpeg/frame_model.h"
#include "mpeg/zipf.h"
#include "sim/check.h"
#include "sim/random.h"

namespace spiffi::mpeg {

// Read block size a VideoLibrary gets when none is given: the default
// stripe size of vod::SimConfig (stripe_bytes, "also the read size").
inline constexpr std::int64_t kDefaultBlockBytes = 512 * 1024;

class Video {
 public:
  // `seed` fixes the frame sequence; replaying the video repeats it. The
  // video is read in blocks of `block_bytes` (the last one short).
  Video(int id, std::uint64_t seed, const FrameModel* model,
        double duration_seconds, std::int64_t block_bytes);

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
  // Walks forward from the last block that starts at or before the
  // frame, so it draws at most one block's worth of frames.
  std::int64_t CumulativeBytesAtFrame(std::int64_t index) const;

  // Playback time (seconds from the start of the video) at which frame
  // `frame` is displayed; frame_count and past map to the duration.
  double PlaybackTimeOfFrame(std::int64_t frame) const {
    if (frame >= frame_count_) return duration_seconds_;
    return static_cast<double>(frame) / model_->params().frames_per_second;
  }

  // --- Read blocks: block b holds bytes [b * block_bytes, ...) ---
  std::int64_t block_bytes() const { return block_bytes_; }
  std::int64_t num_blocks() const {
    return static_cast<std::int64_t>(block_start_.size());
  }
  // Bytes of `block`, 0 <= block < num_blocks (the last block is short).
  std::int64_t BlockBytes(std::int64_t block) const {
    SPIFFI_DCHECK(block >= 0 && block < num_blocks());
    return std::min(block_bytes_, total_bytes_ - block * block_bytes_);
  }
  // The frame holding `block`'s first byte: the f with
  // CumulativeBytesAtFrame(f) <= block * block_bytes < that of f + 1.
  std::int64_t BlockStartFrame(std::int64_t block) const {
    SPIFFI_DCHECK(block >= 0 && block < num_blocks());
    return block_start_[block].frame;
  }
  // Bytes of BlockStartFrame(block) that lie before the block:
  // block * block_bytes - CumulativeBytesAtFrame(BlockStartFrame(block)).
  std::int64_t BlockLeadBytes(std::int64_t block) const {
    SPIFFI_DCHECK(block >= 0 && block < num_blocks());
    return block_start_[block].lead;
  }

 private:
  friend class VideoLibrary;
  struct Undrawn {};

  // Sizes the video and reserves its block table without drawing a
  // frame; DrawFrames() then fills the table without allocating.
  // VideoLibrary allocates every video on its calling thread this way,
  // so its helper threads only draw: memory a helper allocated would
  // sit in that thread's own malloc arena and raise peak RSS.
  Video(int id, std::uint64_t seed, const FrameModel* model,
        double duration_seconds, std::int64_t block_bytes, Undrawn);
  // Draws every frame through FrameModel::DrawRun, 960 at a time, and
  // records where each block starts.
  void DrawFrames() noexcept;

  // Where a block's first byte lies in the frame sequence. A frame index
  // below 2^31 and a lead below one frame's size (kMaxMeanFrameBytes)
  // both fit an int32; the build CHECKs them.
  struct BlockStart {
    std::int32_t frame;
    std::int32_t lead;
  };

  int id_;
  std::uint64_t seed_;
  const FrameModel* model_;
  double duration_seconds_;
  std::int64_t frame_count_;
  std::int64_t total_bytes_;
  std::int64_t block_bytes_;
  std::int64_t fallback_draws_ = 0;  // DrawFrames' exact-path draws
  // One entry per read block, 8 bytes each: 3,600 entries for a one-hour
  // video at 512 KiB blocks (29 KB). Memory scales as total_bytes /
  // block_bytes, so 128 KiB blocks take four times that, twice the
  // 8-byte-per-GOP table this index replaced.
  std::vector<BlockStart> block_start_;
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
  // Creates `count` videos of `duration_seconds` each, read in blocks of
  // `block_bytes`; popularity follows `popularity` (video 0 is the most
  // popular rank).
  VideoLibrary(int count, double duration_seconds, const MpegParams& params,
               const ZipfDistribution& popularity, std::uint64_t seed,
               std::int64_t block_bytes = kDefaultBlockBytes);

  int count() const { return static_cast<int>(videos_.size()); }
  // Threads that built the videos, the calling thread included.
  int build_threads() const { return build_threads_; }
  // Frame draws the batch kernel handed to the exact scalar path while
  // building the videos (mpeg/draw_kernel.h).
  std::int64_t fallback_draws() const { return fallback_draws_; }
  const Video& video(int id) const { return *videos_[id]; }
  const FrameModel& frame_model() const { return model_; }
  // Size of every read block (the last block of a video is short).
  std::int64_t block_bytes() const { return block_bytes_; }

  // Draws a video id according to the popularity distribution.
  int Select(sim::Rng* rng) const { return popularity_.Sample(rng); }

  // Number of read blocks needed to cover the video.
  std::int64_t NumBlocks(int id) const { return video(id).num_blocks(); }

  // Bytes of `block` of the video (the last block is short).
  std::int64_t BlockBytes(int id, std::int64_t block) const {
    return video(id).BlockBytes(block);
  }

  // Playback time at which the first byte of `block` is consumed.
  double BlockPlaybackTime(int id, std::int64_t block) const {
    const Video& v = video(id);
    return v.PlaybackTimeOfFrame(v.BlockStartFrame(block));
  }

 private:
  FrameModel model_;
  std::int64_t block_bytes_;
  std::vector<std::unique_ptr<Video>> videos_;
  ZipfDistribution popularity_;
  int build_threads_ = 1;
  std::int64_t fallback_draws_ = 0;
};

}  // namespace spiffi::mpeg

#endif  // SPIFFI_MPEG_VIDEO_H_
