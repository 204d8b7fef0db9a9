#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPieces = 32;
constexpr int kHeapSize = 20000;
constexpr int kHoldsPerPiece = 20000;
constexpr int kDrawsPerPiece = 100000;

// Fastest total seconds of each kernel (kPieces pieces) on an idle
// 4-vCPU Intel Xeon KVM guest, gcc 12 -O3; the scale of the reported
// times, not a limit.
constexpr double kHoldReferenceS = 0.0770;
constexpr double kDrawReferenceS = 0.0310;

std::uint64_t SplitMix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Uniform in (0, 1).
double Unit(std::uint64_t bits) {
  return (static_cast<double>(bits >> 11) + 0.5) * 0x1p-53;
}

volatile std::int64_t g_sink;  // keeps the draw loop from being elided

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Speed(double reference_s, const std::vector<double>& fastest) {
  double total = 0.0;
  for (double s : fastest) total += s;
  return fastest.empty() || total == 0.0 ? 1.0 : reference_s / total;
}

}  // namespace

HostSpeed::HostSpeed() {
  heap_.reserve(kHeapSize);
  for (int i = 0; i < kHeapSize; ++i) {
    heap_.emplace_back(Unit(SplitMix(counter_)), counter_);
    ++counter_;
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
}

void HostSpeed::Sample() {
  const bool first = hold_s_.empty();
  if (first) {
    hold_s_.assign(kPieces, std::numeric_limits<double>::infinity());
    draw_s_.assign(kPieces, std::numeric_limits<double>::infinity());
  }
  for (int piece = 0; piece < kPieces; ++piece) {
    // Hold model: pop the earliest entry, push it back a random step later.
    auto start = Clock::now();
    for (int i = 0; i < kHoldsPerPiece; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      heap_.back().first += Unit(SplitMix(counter_));
      heap_.back().second = counter_++;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    hold_s_[piece] = std::min(hold_s_[piece], Seconds(start));

    // Exponential draws keyed by (piece, index), summed as whole bytes.
    start = Clock::now();
    std::int64_t bytes = 0;
    const std::uint64_t base = static_cast<std::uint64_t>(piece) << 32;
    for (int i = 0; i < kDrawsPerPiece; ++i) {
      bytes += static_cast<std::int64_t>(
          std::ceil(-std::log(Unit(SplitMix(base + i))) * 9000.0));
    }
    g_sink = bytes;
    draw_s_[piece] = std::min(draw_s_[piece], Seconds(start));
  }
}

double HostSpeed::HoldSpeed() const {
  return Speed(kHoldReferenceS, hold_s_);
}

double HostSpeed::DrawSpeed() const {
  return Speed(kDrawReferenceS, draw_s_);
}

}  // namespace perfbench
