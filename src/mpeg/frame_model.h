// MPEG frame model (paper §6.1).
//
// A compressed MPEG stream is a repeating group-of-pictures containing
// intra (I), predicted (P), and bidirectional (B) frames. This study uses
// the paper's parameters: I:P:B frequency ratio 1:4:10 (a 15-frame GOP),
// size ratio 10:5:2, an overall rate of 4 Mbits/second at 30 frames/second
// (NTSC), and per-frame sizes that are exponentially distributed around
// the type mean.

#ifndef SPIFFI_MPEG_FRAME_MODEL_H_
#define SPIFFI_MPEG_FRAME_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mpeg/draw_kernel.h"
#include "sim/check.h"
#include "sim/random.h"

namespace spiffi::mpeg {

enum class FrameType { kI, kP, kB };

// Largest mean frame size the model accepts. A drawn size is
// ceil(mean * -ln v) with v >= 2^-53, so at most ceil(mean * 53 ln 2),
// and below this mean every size fits an int32 (Video::DrawFrameSizes).
inline constexpr double kMaxMeanFrameBytes = 0x1p31 / 37.0;

struct MpegParams {
  double frames_per_second = 30.0;
  double bits_per_second = 4.0 * 1024 * 1024;  // 4 Mbits/s broadcast quality

  // Frequencies within one GOP (1:4:10 => 15-frame GOP).
  int i_per_gop = 1;
  int p_per_gop = 4;
  int b_per_gop = 10;

  // Relative mean sizes (10:5:2).
  int i_size_weight = 10;
  int p_size_weight = 5;
  int b_size_weight = 2;

  int gop_frames() const { return i_per_gop + p_per_gop + b_per_gop; }
  double bytes_per_second() const { return bits_per_second / 8.0; }
  double mean_frame_bytes() const {
    return bytes_per_second() / frames_per_second;
  }
};

// Deterministic frame-sequence generator: the frame type and size at any
// index are pure functions of (stream seed, index), so "each time the same
// video is played, the same sequence of frames and frame sizes is
// repeated" without storing the stream.
class FrameModel {
 public:
  // CHECKs that ParamsError(params) is empty.
  explicit FrameModel(const MpegParams& params);

  // Why the model cannot use `params`, or "" when it can: the GOP needs
  // a frame and a positive size weight, the frame rate must be positive,
  // and every type mean must lie in [0, kMaxMeanFrameBytes).
  static std::string ParamsError(const MpegParams& params);

  const MpegParams& params() const { return params_; }

  // Type of the frame at `index` within the fixed GOP pattern
  // (I B B P B B P B B P B B P B B, repeating).
  FrameType TypeOf(std::int64_t index) const;

  // Mean compressed size for a frame of the given type, chosen so the
  // long-run rate equals params.bits_per_second.
  double MeanBytes(FrameType type) const;

  // Mean size of the frame at position `pos` (0 <= pos < gop_frames) of
  // a GOP: MeanBytes(TypeOf(pos)), looked up in a table built once.
  double PositionMean(int pos) const { return position_mean_[pos]; }

  // Exponentially distributed size of the frame at `index` of the stream
  // identified by `seed` (deterministic; at least 1 byte).
  std::int64_t FrameBytes(std::uint64_t seed, std::int64_t index) const {
    return DrawBytes(seed, index, position_mean_[index % gop_frames_]);
  }

  // The draw behind FrameBytes, for callers that already know the
  // frame's GOP position: DrawBytes(seed, i, PositionMean(i % gop)) ==
  // FrameBytes(seed, i). The single exact definition of a frame's size.
  static std::int64_t DrawBytes(std::uint64_t seed, std::int64_t index,
                                double mean) {
    double size =
        sim::ExponentialAt(seed, static_cast<std::uint64_t>(index), mean);
    // std::ceil without the libm call: truncate toward zero, then step
    // up if that dropped a positive fraction. Exact for |size| < 2^63.
    SPIFFI_DCHECK(size > -0x1p63 && size < 0x1p63);
    auto bytes = static_cast<std::int64_t>(size);
    bytes += static_cast<double>(bytes) < size;
    return bytes < 1 ? 1 : bytes;
  }

  // Batch form of FrameBytes through the vectorised kernel
  // (mpeg/draw_kernel.h): out[j] = FrameBytes(seed, first_index + j) for
  // 0 <= j < n, bit for bit. Returns how many of those draws the kernel
  // handed to the exact scalar path.
  std::int64_t DrawRun(std::uint64_t seed, std::int64_t first_index,
                       std::int64_t n, std::int64_t* out,
                       const DrawKernel& kernel = DrawKernels().front()) const;

 private:
  MpegParams params_;
  double unit_bytes_;  // bytes represented by one size weight unit
  std::int64_t gop_frames_;
  // The mean of each GOP position, repeated to gop_frames + kDrawBlock - 1
  // entries so a kernel block starting at any position reads its means
  // as one contiguous run.
  std::vector<double> position_mean_;
};

}  // namespace spiffi::mpeg

#endif  // SPIFFI_MPEG_FRAME_MODEL_H_
