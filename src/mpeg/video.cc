#include "mpeg/video.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <system_error>
#include <thread>

#include "sim/check.h"
#include "sim/threads.h"

namespace spiffi::mpeg {

Video::Video(int id, std::uint64_t seed, const FrameModel* model,
             double duration_seconds)
    : Video(id, seed, model, duration_seconds, Undrawn{}) {
  DrawFrames();
}

Video::Video(int id, std::uint64_t seed, const FrameModel* model,
             double duration_seconds, Undrawn)
    : id_(id), seed_(seed), model_(model),
      duration_seconds_(duration_seconds), total_bytes_(0) {
  SPIFFI_CHECK(model != nullptr);
  SPIFFI_CHECK(duration_seconds > 0.0);
  const MpegParams& params = model->params();
  frame_count_ = static_cast<std::int64_t>(
      std::llround(duration_seconds * params.frames_per_second));
  // Round to whole GOPs for a clean pattern (at most half a second off).
  int gop = params.gop_frames();
  frame_count_ = std::max<std::int64_t>(gop, (frame_count_ / gop) * gop);
  gop_prefix_.reserve(frame_count_ / gop + 1);
}

void Video::DrawFrames() noexcept {
  const int gop = model_->params().gop_frames();
  // Frames per kernel run: 64 GOPs of the default 15-frame GOP.
  constexpr std::int64_t kRunFrames = 64 * 15;
  std::int64_t bytes[kRunFrames];
  gop_prefix_.push_back(0);
  std::int64_t cumulative = 0;
  int pos = 0;
  for (std::int64_t f = 0; f < frame_count_; f += kRunFrames) {
    const std::int64_t n = std::min(kRunFrames, frame_count_ - f);
    fallback_draws_ += model_->DrawRun(seed_, f, n, bytes);
    for (std::int64_t j = 0; j < n; ++j) {
      cumulative += bytes[j];
      if (++pos == gop) {
        gop_prefix_.push_back(cumulative);
        pos = 0;
      }
    }
  }
  total_bytes_ = cumulative;
  gops_per_byte_ = static_cast<double>(gop_prefix_.size() - 1) /
                   static_cast<double>(total_bytes_);
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
  int gop = model_->params().gop_frames();
  std::int64_t g = index / gop;
  std::int64_t bytes = gop_prefix_[g];
  for (std::int64_t f = g * gop, pos = 0; f < index; ++f, ++pos) {
    bytes += FrameModel::DrawBytes(seed_, f, model_->PositionMean(pos));
  }
  return bytes;
}

std::int64_t Video::GopOfByte(std::int64_t byte) const {
  SPIFFI_DCHECK(byte >= 0 && byte < total_bytes_);
  // gop_prefix_ rises from 0 to total_bytes_ > byte, so the answer is
  // the last g in [0, num_gops) with gop_prefix_[g] <= byte. GOP sizes
  // are i.i.d., so the proportional guess is off by a random walk of
  // them (tens of GOPs in an hour-long video), and galloping from the
  // guess costs O(log distance) instead of O(log num_gops).
  const auto num_gops = static_cast<std::int64_t>(gop_prefix_.size()) - 1;
  const std::int64_t guess = std::min(
      num_gops - 1,
      static_cast<std::int64_t>(static_cast<double>(byte) * gops_per_byte_));
  // Invariant: gop_prefix_[lo] <= byte < gop_prefix_[hi].
  std::int64_t lo;
  std::int64_t hi;
  if (gop_prefix_[guess] <= byte) {
    lo = guess;
    hi = guess + 1;
    for (std::int64_t step = 2; gop_prefix_[hi] <= byte; step *= 2) {
      lo = hi;
      hi = std::min(lo + step, num_gops);
    }
  } else {
    hi = guess;
    lo = guess - 1;
    for (std::int64_t step = 2; gop_prefix_[lo] > byte; step *= 2) {
      hi = lo;
      lo = std::max<std::int64_t>(hi - step, 0);
    }
  }
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (gop_prefix_[mid] <= byte) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::int64_t Video::FrameOfByte(std::int64_t byte) const {
  if (byte >= total_bytes_) return frame_count_;
  SPIFFI_DCHECK(byte >= 0);
  // Find the GOP containing the byte, then walk its frames.
  const std::int64_t g = GopOfByte(byte);
  int gop = model_->params().gop_frames();
  std::int64_t cumulative = gop_prefix_[g];
  for (std::int64_t f = g * gop, pos = 0;; ++f, ++pos) {
    std::int64_t next = cumulative + FrameModel::DrawBytes(
                                         seed_, f, model_->PositionMean(pos));
    if (byte < next) return f;
    cumulative = next;
  }
}

double Video::PlaybackTimeOfByte(std::int64_t byte) const {
  std::int64_t frame = FrameOfByte(byte);
  if (frame >= frame_count_) return duration_seconds_;
  return static_cast<double>(frame) / model_->params().frames_per_second;
}

VideoLibrary::VideoLibrary(int count, double duration_seconds,
                           const MpegParams& params,
                           const ZipfDistribution& popularity,
                           std::uint64_t seed)
    : model_(params), popularity_(popularity) {
  SPIFFI_CHECK(count > 0);
  SPIFFI_CHECK(popularity.n() == count);
  videos_.reserve(count);
  for (int id = 0; id < count; ++id) {
    videos_.push_back(std::unique_ptr<Video>(
        new Video(id, sim::Hash64(seed, static_cast<std::uint64_t>(id)),
                  &model_, duration_seconds, Video::Undrawn{})));
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

std::int64_t VideoLibrary::NumBlocks(int id,
                                     std::int64_t block_bytes) const {
  std::int64_t total = video(id).total_bytes();
  return (total + block_bytes - 1) / block_bytes;
}

double VideoLibrary::BlockPlaybackTime(int id, std::int64_t block,
                                       std::int64_t block_bytes) const {
  return video(id).PlaybackTimeOfByte(block * block_bytes);
}

}  // namespace spiffi::mpeg
