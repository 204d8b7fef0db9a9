// Vectorised batch form of FrameModel::DrawBytes.
//
// A video library draws every frame of every video up front (27.6 M
// draws at paper scale), and the scalar draw is a chain the compiler
// cannot vectorise: hash, uniform, libm log, libm ceil. The kernel here
// draws a block of kDrawBlock frames with no libm call and no branch:
// the hash, 1 - u as an exact double, an fdlibm-style log on the bits,
// the product with the mean, and an integer ceil. Its result is
// trusted only where the product lies farther than a tolerance from
// every integer; there the fast and the exact product, which differ by
// far less than the tolerance, have the same ceil. Every other frame
// (about one draw in 35 million, plus u == 0) is redrawn with the scalar
// FrameModel::DrawBytes, which stays the one definition of a frame's
// size. So a batch draw equals the scalar draws bit for bit by
// construction.
//
// The fast pass is compiled once per instruction set (AVX-512F, AVX2
// and the baseline on x86-64 GCC/Clang; the baseline alone elsewhere)
// and the widest one the CPU supports is used.

#ifndef SPIFFI_MPEG_DRAW_KERNEL_H_
#define SPIFFI_MPEG_DRAW_KERNEL_H_

#include <cstdint>
#include <span>

namespace spiffi::mpeg {

// Frames per kernel block: a multiple of the widest vector (8 doubles),
// so every variant's loop runs whole vectors with no scalar remainder.
inline constexpr int kDrawBlock = 64;

// The fast pass is trusted for a frame whose product p = mean * -log(v)
// lies farther than p * kDrawTolerance from every integer. The fast log
// is within 1 ulp of ln (fdlibm's bound) and glibc's log within 0.52
// ulp, and each product rounds once, so the two products differ by less
// than 2^-50 * p: the tolerance leaves a factor of 2^10 to spare.
inline constexpr double kDrawTolerance = 0x1p-40;

// One compiled variant of the fast pass. `fast` writes
// out[j] = FrameModel::DrawBytes(seed, first_index + j, means[j]) for
// every j < kDrawBlock whose product it trusts and 0 for the rest, and
// returns whether it wrote any 0.
struct DrawKernel {
  const char* isa;  // "avx512f", "avx2" or "default"
  bool (*fast)(std::uint64_t seed, std::int64_t first_index,
               const double* means, std::int64_t* out);
};

// The variants compiled into this build that the running CPU supports,
// widest first. front() is the one FrameModel::DrawRun uses by default.
std::span<const DrawKernel> DrawKernels();

// Draws one block exactly: kernel.fast over all kDrawBlock frames, then
// FrameModel::DrawBytes for each of the first `count` frames it left at
// 0. Returns how many frames took that exact path.
int DrawBlock(const DrawKernel& kernel, std::uint64_t seed,
              std::int64_t first_index, const double* means,
              std::int64_t* out, int count = kDrawBlock);

}  // namespace spiffi::mpeg

#endif  // SPIFFI_MPEG_DRAW_KERNEL_H_
