#include "replays.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "mpeg/video.h"
#include "mpeg/zipf.h"
#include "sim/calendar.h"
#include "sim/random.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// The calendar only needs someone to call; the replay does the
// rescheduling itself so the handler stays trivial.
struct CountingHandler final : spiffi::sim::EventHandler {
  void OnEvent(std::uint64_t /*token*/) override { ++fired; }
  std::uint64_t fired = 0;
};

}  // namespace

double CalendarHoldNs(std::size_t occupancy, std::uint64_t seed) {
  constexpr int kBatches = 5;
  constexpr int kHoldsPerBatch = 400000;
  occupancy = std::max<std::size_t>(occupancy, 1);
  spiffi::sim::Rng rng(seed);
  spiffi::sim::Calendar calendar;
  calendar.Reserve(occupancy);
  CountingHandler handler;
  for (std::size_t i = 0; i < occupancy; ++i) {
    calendar.Schedule(rng.Exponential(1.0), &handler);
  }
  std::vector<double> ns_per_hold;
  for (int batch = 0; batch < kBatches; ++batch) {
    auto start = Clock::now();
    for (int i = 0; i < kHoldsPerBatch; ++i) {
      spiffi::sim::SimTime now = calendar.FireNext();
      calendar.Schedule(now + rng.Exponential(1.0), &handler);
    }
    double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    ns_per_hold.push_back(seconds * 1e9 / kHoldsPerBatch);
  }
  return *std::min_element(ns_per_hold.begin(), ns_per_hold.end());
}

double LibraryBuildSeconds(const spiffi::vod::SimConfig& config) {
  auto start = Clock::now();
  spiffi::mpeg::ZipfDistribution popularity(config.num_videos(),
                                            config.zipf_z);
  spiffi::mpeg::VideoLibrary library(config.num_videos(),
                                     config.video_seconds, config.mpeg,
                                     popularity, config.seed);
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace perfbench
