// Microbenchmarks for the server buffer pool's replacement hot paths.
//
// Each benchmark runs under both replacement policies (arg 1: 0 =
// Global-LRU, 1 = love-prefetch) at 1k and 16k pages (arg 0), covering
// the four operations the simulation hammers per block reference:
// Lookup (hash probe), Touch (intrusive chain move), and the
// Allocate→Complete→evict recycle cycle.

#include <benchmark/benchmark.h>

#include "server/buffer_pool.h"
#include "sim/environment.h"

namespace {

using spiffi::server::BufferPool;
using spiffi::server::PageKey;
using spiffi::server::ReplacementPolicy;

ReplacementPolicy PolicyArg(const benchmark::State& state) {
  return state.range(1) == 0 ? ReplacementPolicy::kGlobalLru
                             : ReplacementPolicy::kLovePrefetch;
}

void SetPolicyLabel(benchmark::State& state) {
  state.SetLabel(state.range(1) == 0 ? "global-lru" : "love-prefetch");
}

// Fills every page of the pool with a distinct valid block.
void FillPool(BufferPool* pool, std::int64_t pages) {
  for (std::int64_t i = 0; i < pages; ++i) {
    BufferPool::Page* page =
        pool->Allocate(PageKey{0, i}, /*for_prefetch=*/false);
    pool->Complete(page);
    pool->Touch(page, /*terminal=*/static_cast<int>(i % 7));
    pool->Unpin(page);
  }
}

void BM_PoolLookupHit(benchmark::State& state) {
  const std::int64_t pages = state.range(0);
  spiffi::sim::Environment env;
  BufferPool pool(&env, pages, PolicyArg(state));
  FillPool(&pool, pages);
  std::int64_t block = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Lookup(PageKey{0, block}));
    block = (block + 1) % pages;
  }
  state.SetItemsProcessed(state.iterations());
  SetPolicyLabel(state);
}
BENCHMARK(BM_PoolLookupHit)
    ->ArgsProduct({{1024, 16384}, {0, 1}});

void BM_PoolTouch(benchmark::State& state) {
  const std::int64_t pages = state.range(0);
  spiffi::sim::Environment env;
  BufferPool pool(&env, pages, PolicyArg(state));
  FillPool(&pool, pages);
  // Touch in a stride pattern so the moved page is rarely already at the
  // MRU end (the no-op fast case).
  std::int64_t block = 0;
  const std::int64_t stride = 37;  // coprime with both pool sizes
  for (auto _ : state) {
    BufferPool::Page* page = pool.Lookup(PageKey{0, block});
    pool.Touch(page, /*terminal=*/3);
    block = (block + stride) % pages;
  }
  state.SetItemsProcessed(state.iterations());
  SetPolicyLabel(state);
}
BENCHMARK(BM_PoolTouch)
    ->ArgsProduct({{1024, 16384}, {0, 1}});

// Steady-state page recycling: every Allocate must evict the LRU page,
// then the I/O completes and the page is referenced once.
void BM_PoolAllocateEvict(benchmark::State& state) {
  const std::int64_t pages = state.range(0);
  spiffi::sim::Environment env;
  BufferPool pool(&env, pages, PolicyArg(state));
  FillPool(&pool, pages);
  std::int64_t next_block = pages;  // every key misses: pure eviction
  for (auto _ : state) {
    BufferPool::Page* page =
        pool.Allocate(PageKey{0, next_block}, /*for_prefetch=*/false);
    pool.Complete(page);
    pool.Touch(page, /*terminal=*/1);
    pool.Unpin(page);
    ++next_block;
  }
  state.SetItemsProcessed(state.iterations());
  SetPolicyLabel(state);
}
BENCHMARK(BM_PoolAllocateEvict)
    ->ArgsProduct({{1024, 16384}, {0, 1}});

// Love-prefetch lifecycle: prefetched pages complete onto the prefetched
// chain, get referenced (chain hop to referenced), and are evicted.
void BM_PoolPrefetchLifecycle(benchmark::State& state) {
  const std::int64_t pages = state.range(0);
  spiffi::sim::Environment env;
  BufferPool pool(&env, pages, ReplacementPolicy::kLovePrefetch);
  FillPool(&pool, pages);
  std::int64_t next_block = pages;
  for (auto _ : state) {
    BufferPool::Page* page =
        pool.Allocate(PageKey{0, next_block}, /*for_prefetch=*/true);
    pool.Complete(page);       // lands on the prefetched chain
    pool.Touch(page, /*terminal=*/2);  // hops to the referenced chain
    pool.Unpin(page);
    ++next_block;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("love-prefetch");
}
BENCHMARK(BM_PoolPrefetchLifecycle)->Arg(1024)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
