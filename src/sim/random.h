// Deterministic random number generation.
//
// Two facilities:
//  * Rng — a sequential xoshiro256** stream for workload randomness (video
//    selection, start times, pause times). Child streams are derived from a
//    master seed with a name/index so each stochastic subsystem has its own
//    stream and adding consumers never perturbs other streams.
//  * Hash-based "counter mode" sampling — stateless draws addressed by
//    (seed, index), used for per-frame MPEG sizes so that "each time the
//    same video is played, the same sequence of frames and frame sizes is
//    repeated" (paper §6.1) without storing the frames.

#ifndef SPIFFI_SIM_RANDOM_H_
#define SPIFFI_SIM_RANDOM_H_

#include <cmath>
#include <cstdint>

namespace spiffi::sim {

// The counter-mode draws below sit on the per-frame paths (the terminal
// display loop, the video library build), so they are inline.

// SplitMix64 finalizer: a high-quality 64-bit mixing function.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Combines two 64-bit values into one well-mixed value.
inline std::uint64_t Hash64(std::uint64_t a, std::uint64_t b) {
  return Mix64(a + 0x9e3779b97f4a7c15ULL * (b + 1));
}

// Maps a 64-bit value to a double uniform in [0, 1).
inline double ToUnitDouble(std::uint64_t bits) {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

// Stateless exponential draw with the given mean, addressed by (seed, i).
inline double ExponentialAt(std::uint64_t seed, std::uint64_t index,
                            double mean) {
  double u = ToUnitDouble(Hash64(seed, index));
  // Guard against log(0); 1-u is in (0, 1].
  return -mean * std::log(1.0 - u);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Derives an independent child stream; `stream` identifies the consumer.
  Rng Child(std::uint64_t stream) const;

  std::uint64_t NextU64();
  // Uniform in [0, 1).
  double NextDouble();
  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  // Uniform integer in [0, n).
  std::uint64_t UniformInt(std::uint64_t n);
  // Exponential with the given mean (> 0).
  double Exponential(double mean);

 private:
  std::uint64_t state_[4];
  std::uint64_t seed_;  // retained for Child derivation
};

}  // namespace spiffi::sim

#endif  // SPIFFI_SIM_RANDOM_H_
