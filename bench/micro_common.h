// Shared --profile mode for the google-benchmark microbench binaries.
//
// The figure/table harnesses profile the simulations they already run
// (bench_common.h); the microbenches have no simulation, so --profile
// here drives a fixed synthetic kernel workload — a large population of
// coroutine processes exchanging timed holds through one Environment —
// and writes the kernel self-profile (events/sec wall throughput,
// calendar high-water marks, process counts) as bench_profile.json.

#ifndef SPIFFI_BENCH_MICRO_COMMON_H_
#define SPIFFI_BENCH_MICRO_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/kernel_profile.h"
#include "sim/environment.h"
#include "sim/process.h"

namespace spiffi::bench {

inline sim::Process ProfileHoldLoop(sim::Environment* env, int holds) {
  for (int i = 0; i < holds; ++i) co_await env->Hold(0.001);
}

inline int RunKernelProfile(const std::string& name,
                            const std::string& path) {
  constexpr int kProcesses = 2000;
  constexpr int kHolds = 500;

  auto wall_start = std::chrono::steady_clock::now();
  sim::Environment env;
  for (int p = 0; p < kProcesses; ++p) {
    env.Spawn(ProfileHoldLoop(&env, kHolds));
  }
  env.Run();
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  obs::KernelProfile profile = obs::CaptureKernelProfile(env);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "profile: cannot write %s\n", path.c_str());
    return 1;
  }
  obs::WriteKernelProfileJson(out, name, profile, wall_seconds);
  out << "\n";
  std::printf("profile: wrote %s (%llu events, %.3fs wall, %.0f events/s)\n",
              path.c_str(),
              static_cast<unsigned long long>(profile.events_fired),
              wall_seconds,
              wall_seconds > 0.0 ? profile.events_fired / wall_seconds
                                 : 0.0);
  return 0;
}

// Consumes --profile[=PATH] (or SPIFFI_BENCH_PROFILE=1). Returns >= 0
// with an exit code when the process ran in profile mode and should
// exit; -1 to continue into the normal benchmark main.
inline int MaybeRunProfileMode(int argc, char** argv) {
  std::string path = "bench_profile.json";
  bool enabled = false;
  const char* env = std::getenv("SPIFFI_BENCH_PROFILE");
  if (env != nullptr && env[0] == '1') enabled = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0) {
      enabled = true;
    } else if (std::strncmp(argv[i], "--profile=", 10) == 0) {
      enabled = true;
      path = argv[i] + 10;
    }
  }
  if (!enabled) return -1;
  std::string name = "micro";
  if (argc > 0 && argv[0] != nullptr) {
    name = argv[0];
    std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
  }
  return RunKernelProfile(name, path);
}

}  // namespace spiffi::bench

#endif  // SPIFFI_BENCH_MICRO_COMMON_H_
