#include "sim/stats.h"

namespace spiffi::sim {

void Utilization::SetBusy(bool busy, SimTime now) {
  if (busy_) integral_ += now - last_;
  last_ = now;
  busy_ = busy;
}

void Utilization::Reset(SimTime now) {
  integral_ = 0.0;
  start_ = now;
  last_ = now;
}

double Utilization::Average(SimTime now) const {
  double window = now - start_;
  if (window <= 0.0) return busy_ ? 1.0 : 0.0;
  double integral = busy_ ? integral_ + (now - last_) : integral_;
  return integral / window;
}

}  // namespace spiffi::sim
