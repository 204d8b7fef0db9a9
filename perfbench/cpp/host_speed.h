// Host-speed calibration for the end-to-end times.
//
// On a shared host the same simulation can run twice as slowly for
// minutes at a time, and the slowdown hits the CPU the benchmark runs on
// (no time is stolen, so CPU time slows too). Two fixed reference
// kernels, which call no simulator code, are timed between the
// repetitions of a workload, on the same thread. Over a whole run their
// fastest times rise and fall with the workload's own: a binary-heap
// hold loop tracks the event loop, and a loop of counter-based
// exponential draws tracks the VideoLibrary build that dominates set-up.
// Dividing a host time by the kernel's slowdown against its reference
// time gives the time at reference speed. A change to the simulator
// leaves the kernels alone, so it shows in full.

#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  HostSpeed();

  // Times one round of both kernels, keeping each piece's fastest time.
  void Sample();

  // Reference time / fastest time of each kernel: 1 at reference speed,
  // below 1 on a slowed host. 1 before the first Sample().
  double HoldSpeed() const;
  double DrawSpeed() const;

 private:
  std::vector<std::pair<double, std::uint64_t>> heap_;
  std::uint64_t counter_ = 0;
  std::vector<double> hold_s_;  // fastest seconds of each piece
  std::vector<double> draw_s_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
