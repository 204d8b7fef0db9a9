// Statistics collectors used by the simulator and the experiment layer.

#ifndef SPIFFI_SIM_STATS_H_
#define SPIFFI_SIM_STATS_H_

#include <cstdint>

#include "sim/time.h"

namespace spiffi::sim {

// Accumulates point observations: count and sum.
class Tally {
 public:
  void Add(double x) {
    ++count_;
    sum_ += x;
  }
  void Reset() { *this = Tally(); }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

// Busy fraction of a single server over simulated time: integrates the
// busy/idle step function. Call SetBusy(busy, now) on every change and
// Average(now) to read the busy fraction since the last Reset.
class Utilization {
 public:
  void SetBusy(bool busy, SimTime now);
  // Restarts integration at `now`, keeping the current state. Used when
  // a measurement window opens after warmup.
  void Reset(SimTime now);

  bool busy() const { return busy_; }
  double Average(SimTime now) const;

 private:
  bool busy_ = false;
  double integral_ = 0.0;  // busy seconds since start_, up to last_
  SimTime start_ = 0.0;
  SimTime last_ = 0.0;
};

}  // namespace spiffi::sim

#endif  // SPIFFI_SIM_STATS_H_
