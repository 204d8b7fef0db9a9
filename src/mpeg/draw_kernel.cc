#include "mpeg/draw_kernel.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <utility>

#include "mpeg/frame_model.h"
#include "sim/random.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SPIFFI_DRAW_KERNEL_X86 1
#else
#define SPIFFI_DRAW_KERNEL_X86 0
#endif

namespace spiffi::mpeg {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;  // as in Hash64
constexpr double kTwo52 = 0x1p52;
constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ULL;

// ln(x) for x in [2^-53, 1], branch-free: the argument reduction and
// minimax polynomial of fdlibm's e_log.c (error < 1 ulp) without its
// special cases, which this range never reaches. The exponent becomes a
// double by the 2^52 trick, not by an integer conversion.
[[gnu::always_inline]] inline double FastLog(double x) {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kLg1 = 6.666666666666735130e-01;
  constexpr double kLg2 = 3.999999999940941908e-01;
  constexpr double kLg3 = 2.857142874366239149e-01;
  constexpr double kLg4 = 2.222219843214978396e-01;
  constexpr double kLg5 = 1.818357216161805012e-01;
  constexpr double kLg6 = 1.531383769920937332e-01;
  constexpr double kLg7 = 1.479819860511658591e-01;
  // x = 2^e * m with m in [sqrt(2)/2, sqrt(2)): shifting the high word
  // by 1 - sqrt(2)/2 carries into the exponent exactly when m >= sqrt(2).
  const std::uint64_t ix = std::bit_cast<std::uint64_t>(x) +
                           (std::uint64_t{0x3ff00000 - 0x3fe6a09e} << 32);
  const double e = std::bit_cast<double>(kTwo52Bits | (ix >> 52)) -
                   (kTwo52 + 1023.0);
  const double m = std::bit_cast<double>((ix & 0x000fffffffffffffULL) +
                                         0x3fe6a09e00000000ULL);
  const double f = m - 1.0;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  return s * (hfsq + r) + e * kLn2Lo - hfsq + f + e * kLn2Hi;
}

// The fast pass over one block, compiled once per instruction set below.
// Two loops of fixed trip count with selects in place of branches, so
// both vectorise in every variant under -O2's very-cheap cost model as
// well as -O3. (As one fused loop the baseline and AVX2 variants ran
// 5-15% slower.)
[[gnu::always_inline]] inline bool FastPass(std::uint64_t seed,
                                            std::int64_t first_index,
                                            const double* __restrict means,
                                            std::int64_t* __restrict out) {
  // 1 - u for each frame, exact. u = k * 2^-53 (ToUnitDouble) with
  // k < 2^53, which becomes a double exactly as two halves, each or-ed
  // into the mantissa of a power of two: SSE2 and AVX2 have no
  // int64 -> double conversion.
  alignas(64) double v[kDrawBlock];
  // Hash64(seed, first_index + j) == Mix64(x) for this x.
  std::uint64_t x =
      seed + kGolden * (static_cast<std::uint64_t>(first_index) + 1);
  for (int j = 0; j < kDrawBlock; ++j, x += kGolden) {
    const std::uint64_t k = sim::Mix64(x) >> 11;
    const double k_hi = std::bit_cast<double>(0x4530000000000000ULL |
                                              (k >> 32)) -
                        0x1.00000001p84;  // (k >> 32) * 2^32 - 2^52
    const double k_lo =
        std::bit_cast<double>(kTwo52Bits | (k & 0xffffffffULL));
    v[j] = 1.0 - (k_hi + k_lo) * 0x1p-53;
  }
  std::uint64_t marked = 0;
  for (int j = 0; j < kDrawBlock; ++j) {
    const double p = -means[j] * FastLog(v[j]);
    // p + 2^52 rounds p to the nearest integer r, held in the low
    // mantissa bits; d = p - r exactly, and ceil(p) = r + (d > 0).
    const double t = p + kTwo52;
    const double d = p - (t - kTwo52);
    const double up = d > 0.0 ? 1.0 : 0.0;
    // Near an integer the two products may straddle it: write 0 there.
    // p == 0 (u == 0) is within any tolerance of 0, so it is written 0
    // too, and every frame written nonzero has p > 0, so bytes >= 1.
    const double keep = std::fabs(d) > p * kDrawTolerance ? 1.0 : 0.0;
    const std::int64_t bytes =
        std::bit_cast<std::int64_t>((t - kTwo52 + up) * keep + kTwo52) -
        static_cast<std::int64_t>(kTwo52Bits);
    out[j] = bytes;
    marked |= static_cast<std::uint64_t>(bytes - 1) >> 63;  // bytes == 0
  }
  return marked != 0;
}

bool FastPassDefault(std::uint64_t seed, std::int64_t first_index,
                     const double* means, std::int64_t* out) {
  return FastPass(seed, first_index, means, out);
}

#if SPIFFI_DRAW_KERNEL_X86
__attribute__((target("avx2"))) bool FastPassAvx2(std::uint64_t seed,
                                                  std::int64_t first_index,
                                                  const double* means,
                                                  std::int64_t* out) {
  return FastPass(seed, first_index, means, out);
}

__attribute__((target("avx512f"))) bool FastPassAvx512f(
    std::uint64_t seed, std::int64_t first_index, const double* means,
    std::int64_t* out) {
  return FastPass(seed, first_index, means, out);
}
#endif

}  // namespace

std::span<const DrawKernel> DrawKernels() {
  // A fixed array, not a vector: the first call may come from a library
  // build's helper thread, which must not allocate.
  static const auto supported = [] {
    std::array<DrawKernel, 3> kernels{};
    std::size_t count = 0;
#if SPIFFI_DRAW_KERNEL_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) {
      kernels[count++] = {"avx512f", FastPassAvx512f};
    }
    if (__builtin_cpu_supports("avx2")) {
      kernels[count++] = {"avx2", FastPassAvx2};
    }
#endif
    kernels[count++] = {"default", FastPassDefault};
    return std::pair{kernels, count};
  }();
  return {supported.first.data(), supported.second};
}

int DrawBlock(const DrawKernel& kernel, std::uint64_t seed,
              std::int64_t first_index, const double* means,
              std::int64_t* out, int count) {
  if (!kernel.fast(seed, first_index, means, out)) return 0;
  int exact = 0;
  for (int j = 0; j < count; ++j) {
    if (out[j] != 0) continue;
    out[j] = FrameModel::DrawBytes(seed, first_index + j, means[j]);
    ++exact;
  }
  return exact;
}

}  // namespace spiffi::mpeg
