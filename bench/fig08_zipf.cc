// Figure 8: the Zipfian video-popularity distribution for 64 videos at
// z = 0 (uniform), 0.5, 1.0, and 1.5 — access probability by rank.

#include <cstdio>

#include "bench_common.h"
#include "mpeg/zipf.h"

int main(int argc, char** argv) {
  spiffi::bench::InitHarness(argc, argv);
  using spiffi::mpeg::ZipfDistribution;
  using spiffi::vod::FmtDouble;
  using spiffi::vod::TextTable;

  spiffi::bench::PrintHeader("Zipfian distribution", "Figure 8");

  constexpr int kVideos = 64;
  ZipfDistribution uniform(kVideos, 0.0);
  ZipfDistribution z05(kVideos, 0.5);
  ZipfDistribution z10(kVideos, 1.0);
  ZipfDistribution z15(kVideos, 1.5);

  TextTable table({"video rank", "uniform", "z=0.5", "z=1.0", "z=1.5"});
  for (int rank : {0, 1, 2, 3, 4, 7, 15, 31, 63}) {
    table.AddRow({std::to_string(rank + 1),
                  FmtDouble(uniform.Probability(rank), 4),
                  FmtDouble(z05.Probability(rank), 4),
                  FmtDouble(z10.Probability(rank), 4),
                  FmtDouble(z15.Probability(rank), 4)});
  }
  table.Print();

  // Head mass: how much of the workload the top 8 videos draw.
  double top8[4] = {0, 0, 0, 0};
  const ZipfDistribution* dists[4] = {&uniform, &z05, &z10, &z15};
  for (int d = 0; d < 4; ++d) {
    for (int r = 0; r < 8; ++r) top8[d] += dists[d]->Probability(r);
  }
  std::printf("\ntop-8 share: uniform %.1f%%, z=0.5 %.1f%%, z=1.0 %.1f%%, "
              "z=1.5 %.1f%%\n",
              top8[0] * 100, top8[1] * 100, top8[2] * 100, top8[3] * 100);
  return 0;
}
