// Microbenchmarks for the disk schedulers: one pop and one push per
// iteration against a queue held at a fixed depth.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/disk.h"
#include "server/disk_sched.h"

namespace {

using namespace spiffi;

template <typename MakeSched>
void SchedulerChurn(benchmark::State& state, MakeSched make) {
  auto sched = make();
  const int depth = static_cast<int>(state.range(0));
  std::vector<hw::DiskRequest> requests(depth * 2);
  for (int i = 0; i < depth * 2; ++i) {
    requests[i].disk_offset = (i * 37 % 5000) * 1280 * 1024;
    requests[i].bytes = 512 * 1024;
    requests[i].terminal = i % 64;
    requests[i].deadline = 1.0 + i % 8;
    requests[i].seq = i;
  }
  for (int i = 0; i < depth; ++i) sched->Push(&requests[i]);
  int next = depth;
  std::int64_t head = 0;
  for (auto _ : state) {
    hw::DiskRequest* r = sched->Pop(head, 0.5);
    head = r->disk_offset / (1280 * 1024);
    sched->Push(&requests[next % (depth * 2)]);
    ++next;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ElevatorPop(benchmark::State& state) {
  SchedulerChurn(state, [] {
    return std::make_unique<server::ElevatorScheduler>(1280 * 1024);
  });
}
BENCHMARK(BM_ElevatorPop)->Arg(16)->Arg(128);

void BM_RealTimePop(benchmark::State& state) {
  SchedulerChurn(state, [] {
    return std::make_unique<server::RealTimeScheduler>(3, 4.0,
                                                       1280 * 1024);
  });
}
BENCHMARK(BM_RealTimePop)->Arg(16)->Arg(128);

void BM_GssPop(benchmark::State& state) {
  SchedulerChurn(state, [] {
    return std::make_unique<server::GssScheduler>(4, 1280 * 1024);
  });
}
BENCHMARK(BM_GssPop)->Arg(16)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
