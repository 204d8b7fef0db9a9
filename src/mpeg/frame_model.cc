#include "mpeg/frame_model.h"

#include <algorithm>

namespace spiffi::mpeg {

namespace {

// In double, so no count or weight from a config can overflow; where
// the same sum in int would not overflow, it is the same value.
double GopWeight(const MpegParams& params) {
  return static_cast<double>(params.i_per_gop) * params.i_size_weight +
         static_cast<double>(params.p_per_gop) * params.p_size_weight +
         static_cast<double>(params.b_per_gop) * params.b_size_weight;
}

}  // namespace

FrameModel::FrameModel(const MpegParams& params)
    : params_(params), gop_frames_(params.gop_frames()) {
  SPIFFI_CHECK(ParamsError(params).empty());
  // One GOP lasts gop_frames / fps seconds and must carry
  // bytes_per_second * that many seconds.
  double gop_bytes = params.bytes_per_second() *
                     static_cast<double>(params.gop_frames()) /
                     params.frames_per_second;
  unit_bytes_ = gop_bytes / GopWeight(params);
  position_mean_.reserve(gop_frames_ + kDrawBlock - 1);
  for (std::int64_t pos = 0; pos < gop_frames_ + kDrawBlock - 1; ++pos) {
    position_mean_.push_back(MeanBytes(TypeOf(pos % gop_frames_)));
  }
}

std::string FrameModel::ParamsError(const MpegParams& params) {
  if (params.gop_frames() <= 0) return "mpeg GOP must hold a frame";
  if (!(GopWeight(params) > 0.0)) {
    return "mpeg GOP size weights must sum to a positive value";
  }
  if (!(params.frames_per_second > 0.0)) {
    return "mpeg frames_per_second must be positive";
  }
  const double unit = params.bytes_per_second() *
                      static_cast<double>(params.gop_frames()) /
                      params.frames_per_second / GopWeight(params);
  for (int weight : {params.i_size_weight, params.p_size_weight,
                     params.b_size_weight}) {
    // The kernel rounds its products (< 37 * mean) by adding 2^52, and
    // Video::DrawFrameSizes stores each size as an int32.
    const double mean = unit * weight;
    if (!(mean >= 0.0 && mean < kMaxMeanFrameBytes)) {
      return "mpeg mean frame sizes must lie in [0, 58 MB)";
    }
  }
  return "";
}

FrameType FrameModel::TypeOf(std::int64_t index) const {
  // Pattern: I at GOP start, P every third frame thereafter, B otherwise
  // (I B B P B B P B B P B B P B B for the default 1:4:10 ratio).
  int pos = static_cast<int>(index % params_.gop_frames());
  if (pos == 0) return FrameType::kI;
  if (pos % 3 == 0) return FrameType::kP;
  return FrameType::kB;
}

double FrameModel::MeanBytes(FrameType type) const {
  switch (type) {
    case FrameType::kI:
      return unit_bytes_ * params_.i_size_weight;
    case FrameType::kP:
      return unit_bytes_ * params_.p_size_weight;
    case FrameType::kB:
      return unit_bytes_ * params_.b_size_weight;
  }
  return 0.0;  // unreachable
}

std::int64_t FrameModel::DrawRun(std::uint64_t seed, std::int64_t first_index,
                                 std::int64_t n, std::int64_t* out,
                                 const DrawKernel& kernel) const {
  SPIFFI_DCHECK(first_index >= 0 && n >= 0);
  std::int64_t exact = 0;
  std::int64_t pos = first_index % gop_frames_;
  for (std::int64_t done = 0; done < n; done += kDrawBlock) {
    const double* means = &position_mean_[pos];
    const std::int64_t index = first_index + done;
    if (n - done >= kDrawBlock) {
      exact += DrawBlock(kernel, seed, index, means, out + done);
    } else {
      // The kernel always draws a whole block; keep the part asked for.
      std::int64_t tail[kDrawBlock];
      const int count = static_cast<int>(n - done);
      exact += DrawBlock(kernel, seed, index, means, tail, count);
      std::copy_n(tail, count, out + done);
    }
    pos = (pos + kDrawBlock) % gop_frames_;
  }
  return exact;
}

}  // namespace spiffi::mpeg
