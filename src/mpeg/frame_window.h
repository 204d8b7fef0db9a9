// A stream's upcoming frame sizes, drawn a block at a time.
//
// A terminal displays its video one frame per tick and needs each
// frame's size, a pure function of (video, index) (paper §6.1). Drawing
// it per tick costs a scalar hash + log chain; a FrameWindow instead
// draws the next kDrawBlock sizes through the batch kernel
// (Video::DrawFrameSizes) and hands them out in order, so a tick reads
// one int32 and draws nothing. The window is a cursor over consecutive
// frames: it does not know which frame the stream is at, so whoever
// moves the stream anywhere but to the next frame (a jump, a new video)
// must Invalidate() it.

#ifndef SPIFFI_MPEG_FRAME_WINDOW_H_
#define SPIFFI_MPEG_FRAME_WINDOW_H_

#include <cstdint>

#include "mpeg/draw_kernel.h"
#include "mpeg/video.h"
#include "sim/check.h"

namespace spiffi::mpeg {

class FrameWindow {
 public:
  // Size of frame `frame` of `video`, 0 <= frame < frame_count. Since
  // the last Invalidate(), `frame` must be the frame of the previous
  // call, or the one after it once Advance() was called; when the drawn
  // frames run out, the window draws again from `frame` on, clipped at
  // the video's end.
  std::int64_t Peek(const Video& video, std::int64_t frame) {
    if (pos_ == size_) Refill(video, frame);
    SPIFFI_DCHECK(sizes_[pos_] == video.FrameBytes(frame));
    return sizes_[pos_];
  }
  // The frame Peek returned was consumed: the next Peek is for the
  // frame after it.
  void Advance() { ++pos_; }
  // Drops the drawn sizes: the stream moved to another frame or video.
  void Invalidate() { pos_ = size_ = 0; }

  // Draws since construction: refills, and frame sizes the batch kernel
  // handed to the exact scalar path during them.
  std::uint64_t refills() const { return refills_; }
  std::uint64_t scalar_draws() const { return scalar_draws_; }

 private:
  void Refill(const Video& video, std::int64_t frame);

  int pos_ = 0;   // next size to hand out
  int size_ = 0;  // sizes drawn; pos_ == size_ means empty
  std::uint64_t refills_ = 0;
  std::uint64_t scalar_draws_ = 0;
  std::int32_t sizes_[kDrawBlock] = {};
};

}  // namespace spiffi::mpeg

#endif  // SPIFFI_MPEG_FRAME_WINDOW_H_
