#include "mpeg/frame_window.h"

#include <algorithm>

namespace spiffi::mpeg {

void FrameWindow::Refill(const Video& video, std::int64_t frame) {
  SPIFFI_CHECK(frame >= 0 && frame < video.frame_count());
  size_ = static_cast<int>(
      std::min<std::int64_t>(kDrawBlock, video.frame_count() - frame));
  scalar_draws_ += video.DrawFrameSizes(frame, size_, sizes_);
  ++refills_;
  pos_ = 0;
}

}  // namespace spiffi::mpeg
