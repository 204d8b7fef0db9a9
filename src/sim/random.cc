#include "sim/random.h"

#include <cmath>

#include "sim/check.h"

namespace spiffi::sim {

namespace {
inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  // Seed the four xoshiro words with successive SplitMix64 outputs.
  std::uint64_t s = seed;
  for (auto& word : state_) {
    s += 0x9e3779b97f4a7c15ULL;
    word = Mix64(s);
  }
}

Rng Rng::Child(std::uint64_t stream) const {
  return Rng(Hash64(seed_, stream));
}

std::uint64_t Rng::NextU64() {
  // xoshiro256**
  std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() { return ToUnitDouble(NextU64()); }

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

std::uint64_t Rng::UniformInt(std::uint64_t n) {
  SPIFFI_DCHECK(n > 0);
  // Rejection-free for our purposes: modulo bias is negligible for the
  // small ranges (dozens to thousands) used in this simulator, but use
  // Lemire's multiply-shift to avoid it anyway.
  unsigned __int128 product =
      static_cast<unsigned __int128>(NextU64()) * n;
  return static_cast<std::uint64_t>(product >> 64);
}

double Rng::Exponential(double mean) {
  SPIFFI_DCHECK(mean > 0.0);
  return -mean * std::log(1.0 - NextDouble());
}

}  // namespace spiffi::sim
