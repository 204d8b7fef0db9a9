#include "mpeg/frame_model.h"

#include <cmath>

#include "sim/check.h"
#include "sim/random.h"

namespace spiffi::mpeg {

FrameModel::FrameModel(const MpegParams& params)
    : params_(params), gop_frames_(params.gop_frames()) {
  SPIFFI_CHECK(params.gop_frames() > 0);
  double gop_weight =
      static_cast<double>(params.i_per_gop * params.i_size_weight +
                          params.p_per_gop * params.p_size_weight +
                          params.b_per_gop * params.b_size_weight);
  SPIFFI_CHECK(gop_weight > 0);
  // One GOP lasts gop_frames / fps seconds and must carry
  // bytes_per_second * that many seconds.
  double gop_bytes = params.bytes_per_second() *
                     static_cast<double>(params.gop_frames()) /
                     params.frames_per_second;
  unit_bytes_ = gop_bytes / gop_weight;
  position_mean_.reserve(gop_frames_);
  for (int pos = 0; pos < gop_frames_; ++pos) {
    position_mean_.push_back(MeanBytes(TypeOf(pos)));
  }
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

std::int64_t FrameModel::DrawBytes(std::uint64_t seed, std::int64_t index,
                                   double mean) {
  double size = sim::ExponentialAt(seed, static_cast<std::uint64_t>(index),
                                   mean);
  auto bytes = static_cast<std::int64_t>(std::ceil(size));
  return bytes < 1 ? 1 : bytes;
}

}  // namespace spiffi::mpeg
