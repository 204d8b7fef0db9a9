#include "mpeg/video.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <system_error>
#include <thread>

#include "sim/check.h"
#include "sim/threads.h"

namespace spiffi::mpeg {

Video::Video(int id, std::uint64_t seed, const FrameModel* model,
             double duration_seconds, std::int64_t block_bytes)
    : Video(id, seed, model, duration_seconds, block_bytes, Undrawn{}) {
  DrawFrames();
}

Video::Video(int id, std::uint64_t seed, const FrameModel* model,
             double duration_seconds, std::int64_t block_bytes, Undrawn)
    : id_(id), seed_(seed), model_(model),
      duration_seconds_(duration_seconds), total_bytes_(0),
      block_bytes_(block_bytes) {
  SPIFFI_CHECK(model != nullptr);
  SPIFFI_CHECK(duration_seconds > 0.0);
  SPIFFI_CHECK(block_bytes > 0);
  const MpegParams& params = model->params();
  frame_count_ = static_cast<std::int64_t>(
      std::llround(duration_seconds * params.frames_per_second));
  // Round to whole GOPs for a clean pattern (at most half a second off).
  int gop = params.gop_frames();
  frame_count_ = std::max<std::int64_t>(gop, (frame_count_ / gop) * gop);
  SPIFFI_CHECK(frame_count_ <= std::numeric_limits<std::int32_t>::max());
  // Reserve blocks for the video's mean size plus ten standard
  // deviations of it: frame sizes are independent exponentials (variance
  // = mean^2), each rounded up by less than a byte. So DrawFrames never
  // grows the table in practice; if it ever must, it still is correct.
  double mean = 0.0;
  double variance = 0.0;
  for (int pos = 0; pos < gop; ++pos) {
    mean += model->PositionMean(pos) + 1.0;
    variance += model->PositionMean(pos) * model->PositionMean(pos);
  }
  const auto gops = static_cast<double>(frame_count_ / gop);
  const double bound = gops * mean + 10.0 * std::sqrt(gops * variance);
  block_start_.reserve(static_cast<std::size_t>(
      bound / static_cast<double>(block_bytes) + 2.0));
}

void Video::DrawFrames() noexcept {
  // Frames per kernel run: 64 GOPs of the default 15-frame GOP.
  constexpr std::int64_t kRunFrames = 64 * 15;
  std::int64_t end[kRunFrames];  // frame sizes, then bytes through them
  std::int64_t before = 0;       // bytes of the frames before the run
  std::int64_t next_block = 0;   // first byte of the next block to record
  for (std::int64_t f = 0; f < frame_count_; f += kRunFrames) {
    const std::int64_t n = std::min(kRunFrames, frame_count_ - f);
    fallback_draws_ += model_->DrawRun(seed_, f, n, end);
    std::int64_t sum = before;
    for (std::int64_t j = 0; j < n; ++j) end[j] = sum += end[j];
    // Blocks that start in this run: the frame holding a block's first
    // byte is the first whose end lies past it (ends rise strictly, as
    // every frame has a byte). Each is found by a bisection of the run
    // whose steps select rather than branch: where a block starts is
    // random, so a scan or branching search mispredicts at every block,
    // and these searches, not depending on each other, also overlap.
    for (; next_block < end[n - 1]; next_block += block_bytes_) {
      const std::int64_t* base = end;
      for (std::int64_t len = n; len > 1;) {
        const std::int64_t half = len / 2;
        base += static_cast<std::int64_t>(base[half - 1] <= next_block) * half;
        len -= half;
      }
      const std::int64_t j = (base - end) + (*base <= next_block);
      const std::int64_t lead = next_block - (j == 0 ? before : end[j - 1]);
      SPIFFI_CHECK(lead <= std::numeric_limits<std::int32_t>::max());
      block_start_.push_back({static_cast<std::int32_t>(f + j),
                              static_cast<std::int32_t>(lead)});
    }
    before = end[n - 1];
  }
  total_bytes_ = before;
}

int Video::DrawFrameSizes(std::int64_t first, int n,
                          std::int32_t* out) const {
  SPIFFI_DCHECK(first >= 0 && n >= 0 && n <= kDrawBlock &&
                first + n <= frame_count_);
  std::int64_t bytes[kDrawBlock];
  const auto exact =
      static_cast<int>(model_->DrawRun(seed_, first, n, bytes));
  for (int j = 0; j < n; ++j) out[j] = static_cast<std::int32_t>(bytes[j]);
  return exact;
}

std::int64_t Video::CumulativeBytesAtFrame(std::int64_t index) const {
  SPIFFI_DCHECK(index >= 0 && index <= frame_count_);
  if (index == frame_count_) return total_bytes_;
  // The last block starting at or before the frame; block 0 starts at
  // frame 0, so there is one.
  const auto after = std::upper_bound(
      block_start_.begin(), block_start_.end(), index,
      [](std::int64_t frame, const BlockStart& start) {
        return frame < start.frame;
      });
  const auto b = static_cast<std::int64_t>(after - block_start_.begin()) - 1;
  std::int64_t bytes = b * block_bytes_ - block_start_[b].lead;
  std::int64_t sizes[kDrawBlock];
  for (std::int64_t f = block_start_[b].frame; f < index; f += kDrawBlock) {
    const std::int64_t n = std::min<std::int64_t>(kDrawBlock, index - f);
    model_->DrawRun(seed_, f, n, sizes);
    for (std::int64_t j = 0; j < n; ++j) bytes += sizes[j];
  }
  return bytes;
}

VideoLibrary::VideoLibrary(int count, double duration_seconds,
                           const MpegParams& params,
                           const ZipfDistribution& popularity,
                           std::uint64_t seed, std::int64_t block_bytes)
    : model_(params), block_bytes_(block_bytes), popularity_(popularity) {
  SPIFFI_CHECK(count > 0);
  SPIFFI_CHECK(popularity.n() == count);
  videos_.reserve(count);
  for (int id = 0; id < count; ++id) {
    videos_.push_back(std::unique_ptr<Video>(
        new Video(id, sim::Hash64(seed, static_cast<std::uint64_t>(id)),
                  &model_, duration_seconds, block_bytes, Video::Undrawn{})));
  }
  // Threads claim video ids from a shared counter; the calling thread
  // takes part, so whatever the helpers leave it draws itself.
  std::atomic<int> next_id{0};
  auto draw = [&] {
    for (int id; (id = next_id++) < count;) videos_[id]->DrawFrames();
  };
  int wanted = sim::InPoolWorker()
                   ? 1
                   : std::max(1, std::min(sim::DefaultJobs(), count / 8));
  std::vector<std::thread> helpers;
  helpers.reserve(wanted - 1);
  for (int i = 1; i < wanted; ++i) {
    try {
      helpers.emplace_back(draw);
    } catch (const std::system_error&) {
      break;  // no more threads to be had: draw the rest here
    }
  }
  build_threads_ = static_cast<int>(helpers.size()) + 1;
  draw();
  for (std::thread& helper : helpers) helper.join();
  for (const auto& video : videos_) fallback_draws_ += video->fallback_draws_;
}

}  // namespace spiffi::mpeg
