#include "server/prefetch.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "server/disk_sched.h"

namespace spiffi::server {
namespace {

// Completion listener that finishes buffer-pool pages like a Node does.
class PoolCompleter final : public hw::DiskCompletionListener {
 public:
  explicit PoolCompleter(BufferPool* pool) : pool_(pool) {}
  void OnDiskComplete(hw::DiskRequest* request) override {
    ++completions;
    last_deadline = request->deadline;
    order.push_back(request->block);
    pool_->Complete(static_cast<BufferPool::Page*>(request->context));
  }
  int completions = 0;
  sim::SimTime last_deadline = 0.0;
  std::vector<std::int64_t> order;  // blocks in completion order

 private:
  BufferPool* pool_;
};

class PrefetchTest : public ::testing::Test {
 protected:
  void Build(PrefetchPolicy policy, int workers = 1,
             double max_advance = 8.0, std::int64_t pool_pages = 16) {
    pool_ = std::make_unique<BufferPool>(&env_, pool_pages,
                                         ReplacementPolicy::kLovePrefetch);
    cpu_ = std::make_unique<hw::Cpu>(&env_, 40.0);
    completer_ = std::make_unique<PoolCompleter>(pool_.get());
    DiskSchedParams sched;
    sched.policy = DiskSchedPolicy::kFcfs;
    disk_ = std::make_unique<hw::Disk>(&env_, hw::DiskParams(),
                                       MakeDiskScheduler(sched), 0,
                                       completer_.get());
    prefetcher_ = std::make_unique<Prefetcher>(
        &env_, policy, workers, max_advance, pool_.get(), cpu_.get(),
        disk_.get(), hw::CpuCosts());
  }

  PrefetchTask Task(int video, std::int64_t block,
                    sim::SimTime deadline = sim::kSimTimeMax) {
    PrefetchTask task;
    task.key = PageKey{video, block};
    task.disk_offset = block * 512 * 1024;
    task.bytes = 512 * 1024;
    task.est_deadline = deadline;
    task.terminal = 1;
    return task;
  }

  sim::Environment env_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<hw::Cpu> cpu_;
  std::unique_ptr<PoolCompleter> completer_;
  std::unique_ptr<hw::Disk> disk_;
  std::unique_ptr<Prefetcher> prefetcher_;
};

TEST_F(PrefetchTest, FifoIssuesQueuedTask) {
  Build(PrefetchPolicy::kFifo);
  prefetcher_->Enqueue(Task(0, 5));
  env_.Run();
  EXPECT_EQ(completer_->completions, 1);
  BufferPool::Page* page = pool_->Lookup(PageKey{0, 5});
  ASSERT_NE(page, nullptr);
  EXPECT_TRUE(page->valid);
  EXPECT_TRUE(page->prefetched);
  EXPECT_EQ(page->pin_count, 0);  // worker unpinned after completion
}

TEST_F(PrefetchTest, NonePolicyDropsEverything) {
  Build(PrefetchPolicy::kNone);
  prefetcher_->Enqueue(Task(0, 5));
  env_.Run();
  EXPECT_EQ(completer_->completions, 0);
  EXPECT_EQ(pool_->Lookup(PageKey{0, 5}), nullptr);
}

TEST_F(PrefetchTest, DuplicateTasksDropped) {
  Build(PrefetchPolicy::kFifo);
  prefetcher_->Enqueue(Task(0, 5));
  prefetcher_->Enqueue(Task(0, 5));
  env_.Run();
  EXPECT_EQ(prefetcher_->stats().duplicates_dropped, 1u);
  EXPECT_EQ(completer_->completions, 1);
}

TEST_F(PrefetchTest, AlreadyCachedTaskSkipped) {
  Build(PrefetchPolicy::kFifo);
  BufferPool::Page* page = pool_->Allocate(PageKey{0, 5}, false);
  pool_->Complete(page);
  pool_->Unpin(page);
  prefetcher_->Enqueue(Task(0, 5));
  env_.Run();
  EXPECT_EQ(completer_->completions, 0);
  EXPECT_EQ(prefetcher_->stats().already_cached, 1u);
}

TEST_F(PrefetchTest, FifoServesInArrivalOrderIgnoringDeadlines) {
  Build(PrefetchPolicy::kFifo, /*workers=*/1);
  prefetcher_->Enqueue(Task(0, 1, /*deadline=*/100.0));
  prefetcher_->Enqueue(Task(0, 2, /*deadline=*/1.0));  // more urgent
  env_.Run();
  EXPECT_EQ(completer_->completions, 2);
  // FIFO prefetches carry no deadline on the disk request.
  EXPECT_EQ(completer_->last_deadline, sim::kSimTimeMax);
}

TEST_F(PrefetchTest, RealTimePicksMostUrgentFirst) {
  Build(PrefetchPolicy::kRealTime, /*workers=*/1);
  bool first_done = false;
  prefetcher_->Enqueue(Task(0, 1, /*deadline=*/100.0));
  prefetcher_->Enqueue(Task(0, 2, /*deadline=*/1.0));
  // Let the single worker pick one task; the urgent one must go first
  // (the first enqueue wakes the worker, but it re-checks the queue at
  // the same instant after both arrive... run a tiny slice).
  env_.RunUntil(0.2);
  BufferPool::Page* urgent = pool_->Lookup(PageKey{0, 2});
  BufferPool::Page* lazy = pool_->Lookup(PageKey{0, 1});
  ASSERT_NE(urgent, nullptr);
  EXPECT_TRUE(urgent->valid || urgent->io_in_flight);
  // The lazy one must not have been issued before the urgent one
  // completed (single worker).
  if (lazy != nullptr) {
    EXPECT_TRUE(urgent->valid);
  }
  (void)first_done;
  env_.Run();
  EXPECT_EQ(completer_->completions, 2);
}

TEST_F(PrefetchTest, RealTimeRequestCarriesDeadline) {
  Build(PrefetchPolicy::kRealTime);
  prefetcher_->Enqueue(Task(0, 1, /*deadline=*/42.0));
  env_.Run();
  EXPECT_EQ(completer_->last_deadline, 42.0);
}

TEST_F(PrefetchTest, DelayedWaitsUntilWithinMaxAdvance) {
  Build(PrefetchPolicy::kDelayed, /*workers=*/1, /*max_advance=*/8.0);
  prefetcher_->Enqueue(Task(0, 1, /*deadline=*/20.0));
  // Eligible at t = 12; before that nothing may be issued.
  env_.RunUntil(11.0);
  EXPECT_EQ(prefetcher_->stats().issued, 0u);
  EXPECT_EQ(pool_->Lookup(PageKey{0, 1}), nullptr);
  env_.RunUntil(13.0);
  EXPECT_EQ(prefetcher_->stats().issued, 1u);
  env_.Run();
  EXPECT_EQ(completer_->completions, 1);
}

TEST_F(PrefetchTest, DelayedIssuesImmediatelyWhenUrgent) {
  Build(PrefetchPolicy::kDelayed, /*workers=*/1, /*max_advance=*/8.0);
  prefetcher_->Enqueue(Task(0, 1, /*deadline=*/2.0));  // already within 8 s
  env_.RunUntil(0.5);
  EXPECT_EQ(prefetcher_->stats().issued, 1u);
}

TEST_F(PrefetchTest, DelayedWakesForMoreUrgentArrival) {
  Build(PrefetchPolicy::kDelayed, /*workers=*/1, /*max_advance=*/8.0);
  prefetcher_->Enqueue(Task(0, 1, /*deadline=*/100.0));  // eligible at 92
  env_.RunUntil(1.0);
  EXPECT_EQ(prefetcher_->stats().issued, 0u);
  prefetcher_->Enqueue(Task(0, 2, /*deadline=*/5.0));  // urgent now
  env_.RunUntil(2.0);
  EXPECT_EQ(prefetcher_->stats().issued, 1u);
  ASSERT_NE(pool_->Lookup(PageKey{0, 2}), nullptr);  // the urgent one
  EXPECT_EQ(pool_->Lookup(PageKey{0, 1}), nullptr);
}

TEST_F(PrefetchTest, RealTimePopsInDeadlineOrderStableOnTies) {
  // One worker + FCFS disk: completion order is exactly PopNext order.
  Build(PrefetchPolicy::kRealTime, /*workers=*/1);
  prefetcher_->Enqueue(Task(0, 1, /*deadline=*/50.0));
  prefetcher_->Enqueue(Task(0, 2, /*deadline=*/10.0));
  prefetcher_->Enqueue(Task(0, 3, /*deadline=*/50.0));
  prefetcher_->Enqueue(Task(0, 4, /*deadline=*/10.0));
  prefetcher_->Enqueue(Task(0, 5, /*deadline=*/30.0));
  env_.Run();
  // Earliest deadline first; equal deadlines keep arrival order.
  EXPECT_EQ(completer_->order,
            (std::vector<std::int64_t>{2, 4, 5, 1, 3}));
}

TEST_F(PrefetchTest, DeadlineHeapDrainMatchesStableSort) {
  // Larger drain: the heap must pop the same sequence the old
  // first-minimum linear scan produced, i.e. a stable sort by deadline.
  Build(PrefetchPolicy::kRealTime, /*workers=*/1, 8.0,
        /*pool_pages=*/256);
  struct Item {
    std::int64_t block;
    double deadline;
  };
  std::vector<Item> items;
  for (int i = 0; i < 60; ++i) {
    items.push_back({i, static_cast<double>((i * 37) % 7 + 100)});
  }
  for (const Item& item : items) {
    prefetcher_->Enqueue(Task(0, item.block, item.deadline));
  }
  env_.Run();
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) {
                     return a.deadline < b.deadline;
                   });
  std::vector<std::int64_t> expected;
  for (const Item& item : items) expected.push_back(item.block);
  EXPECT_EQ(completer_->order, expected);
}

TEST_F(PrefetchTest, WorkerCountBoundsConcurrentPrefetches) {
  Build(PrefetchPolicy::kFifo, /*workers=*/2);
  for (int b = 0; b < 6; ++b) prefetcher_->Enqueue(Task(0, b));
  // Shortly after start at most 2 reads can be in flight.
  env_.RunUntil(0.01);
  int in_flight = 0;
  for (int b = 0; b < 6; ++b) {
    BufferPool::Page* page = pool_->Lookup(PageKey{0, b});
    if (page != nullptr && page->io_in_flight) ++in_flight;
  }
  EXPECT_LE(in_flight, 2);
  EXPECT_GT(in_flight, 0);
  env_.Run();
  EXPECT_EQ(completer_->completions, 6);
}

TEST_F(PrefetchTest, SaturatedPoolStallsPrefetchWithoutDeadlock) {
  Build(PrefetchPolicy::kFifo, /*workers=*/1, 8.0, /*pool_pages=*/2);
  // Fill and pin both pages, then enqueue a prefetch: it must wait.
  BufferPool::Page* a = pool_->Allocate(PageKey{9, 0}, false);
  pool_->Complete(a);
  BufferPool::Page* b = pool_->Allocate(PageKey{9, 1}, false);
  pool_->Complete(b);
  prefetcher_->Enqueue(Task(0, 5));
  env_.RunUntil(1.0);
  EXPECT_EQ(prefetcher_->stats().issued, 0u);
  // Release one page; the prefetch proceeds.
  pool_->Unpin(a);
  env_.Run();
  EXPECT_EQ(prefetcher_->stats().issued, 1u);
  EXPECT_EQ(completer_->completions, 1);
  pool_->Unpin(b);
}

}  // namespace
}  // namespace spiffi::server
