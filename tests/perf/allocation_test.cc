// Zero-allocation locks for the kernel hot paths.
//
// This binary replaces the global operator new/delete with counting
// versions, warms each hot path up to steady state, and then asserts
// that the operations the simulator performs per event — calendar
// Schedule/Cancel/FireNext, buffer-pool Touch and recycle, a prefetch's
// enqueue/issue/complete cycle, wait-list notify, and network message
// delivery — perform exactly zero heap allocations, and neither does a
// terminal's display tick. Spawning a process allocates its coroutine
// frame and nothing more. Any future
// change that reintroduces a per-event allocation fails here rather than
// silently costing throughput.

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "client/terminal.h"
#include "gtest/gtest.h"
#include "layout/striping.h"
#include "mpeg/zipf.h"
#include "server/buffer_pool.h"
#include "server/disk_sched.h"
#include "server/message.h"
#include "server/prefetch.h"
#include "sim/calendar.h"
#include "sim/environment.h"
#include "sim/process.h"
#include "sim/wait_list.h"

namespace {

std::uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace spiffi {
namespace {

class NullHandler final : public sim::EventHandler {
 public:
  void OnEvent(std::uint64_t) override {}
};

TEST(AllocationTest, CalendarScheduleFireSteadyStateAllocatesNothing) {
  sim::Calendar calendar;
  calendar.Reserve(1024);
  NullHandler handler;

  // Warmup: populate and drain once so every lazily-grown structure is
  // at its steady-state size.
  for (int i = 0; i < 512; ++i) {
    calendar.Schedule(static_cast<double>(i % 13), &handler, i);
  }
  while (!calendar.empty()) calendar.FireNext();

  std::uint64_t before = g_allocations;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 512; ++i) {
      calendar.Schedule(static_cast<double>(i % 13), &handler, i);
    }
    while (!calendar.empty()) calendar.FireNext();
  }
  std::uint64_t after = g_allocations;
  EXPECT_EQ(after - before, 0u);
}

// Periodic tickers rescheduling themselves one display frame ahead, the
// way terminals drive their frame ticks.
class Ticker final : public sim::EventHandler {
 public:
  Ticker(sim::Calendar* calendar, int count)
      : calendar_(calendar), next_(static_cast<std::size_t>(count)) {
    for (std::size_t i = 0; i < next_.size(); ++i) {
      next_[i] = static_cast<double>(i) / (30.0 * count);
      calendar_->ScheduleTick(next_[i], this, i);
    }
  }
  void OnEvent(std::uint64_t token) override {
    next_[token] += 1.0 / 30.0;
    calendar_->ScheduleTick(next_[token], this, token);
  }

 private:
  sim::Calendar* calendar_;
  std::vector<double> next_;
};

TEST(AllocationTest, CalendarTickLaneSteadyStateAllocatesNothing) {
  sim::Calendar calendar;
  calendar.Reserve(1024);
  Ticker tickers(&calendar, 700);

  // Warmup: one simulated second grows the lane's ring to its peak.
  while (calendar.PeekTime() < 1.0) calendar.FireNext();

  std::uint64_t before = g_allocations;
  std::uint64_t lane_before = calendar.lane_fires();
  std::uint64_t fired_before = calendar.fired_count();
  while (calendar.PeekTime() < 5.0) calendar.FireNext();
  std::uint64_t after = g_allocations;
  EXPECT_EQ(after - before, 0u);
  // The ticks really took the lane (not the heap) while being counted.
  EXPECT_EQ(calendar.lane_fires() - lane_before,
            calendar.fired_count() - fired_before);
  EXPECT_GT(calendar.fired_count() - fired_before, 0u);
}

TEST(AllocationTest, CalendarCancelAllocatesNothing) {
  sim::Calendar calendar;
  calendar.Reserve(256);
  NullHandler handler;
  std::uint64_t before = g_allocations;
  for (int round = 0; round < 100; ++round) {
    sim::EventId keep = calendar.Schedule(1.0, &handler, 1);
    sim::EventId drop = calendar.Schedule(2.0, &handler, 2);
    calendar.Cancel(drop);
    calendar.Cancel(drop);     // double cancel
    calendar.Cancel(0);        // sentinel
    calendar.Cancel(keep - 1); // stale generation
    while (!calendar.empty()) calendar.FireNext();
    calendar.Cancel(keep);     // already fired
  }
  std::uint64_t after = g_allocations;
  EXPECT_EQ(after - before, 0u);
}

TEST(AllocationTest, BufferPoolTouchAndRecycleAllocateNothing) {
  sim::Environment env;
  env.ReserveCalendar(256);
  server::BufferPool pool(&env, 256, server::ReplacementPolicy::kLovePrefetch);

  // Warmup: fill the pool completely.
  for (std::int64_t i = 0; i < 256; ++i) {
    auto* page = pool.Allocate(server::PageKey{0, i}, false);
    pool.Complete(page);
    pool.Touch(page, 1);
    pool.Unpin(page);
  }

  std::uint64_t before = g_allocations;
  // Touch: pure intrusive chain moves.
  for (int round = 0; round < 1000; ++round) {
    auto* page = pool.Lookup(server::PageKey{0, (round * 37) % 256});
    ASSERT_NE(page, nullptr);
    pool.Touch(page, round % 5);
  }
  std::uint64_t after = g_allocations;
  EXPECT_EQ(after - before, 0u);

  // Allocate/evict recycle: intrusive chain moves and a page table
  // sized for every page up front.
  before = g_allocations;
  for (std::int64_t i = 256; i < 1256; ++i) {
    auto* page = pool.Allocate(server::PageKey{0, i}, i % 2 == 0);
    ASSERT_NE(page, nullptr);
    pool.Complete(page);
    pool.Touch(page, 2);
    pool.Unpin(page);
  }
  after = g_allocations;
  EXPECT_EQ(after - before, 0u);
}

// Finishes pool pages the way a Node does when their disk read ends.
class PoolCompleter final : public hw::DiskCompletionListener {
 public:
  explicit PoolCompleter(server::BufferPool* pool) : pool_(pool) {}
  void OnDiskComplete(hw::DiskRequest* request) override {
    pool_->Complete(static_cast<server::BufferPool::Page*>(request->context));
  }

 private:
  server::BufferPool* pool_;
};

TEST(AllocationTest, PrefetchEnqueueIssueCompleteCycleAllocatesNothing) {
  sim::Environment env;
  env.ReserveCalendar(256);
  server::BufferPool pool(&env, 64, server::ReplacementPolicy::kLovePrefetch);
  hw::Cpu cpu(&env, 40.0);
  PoolCompleter completer(&pool);
  server::DiskSchedParams sched;
  sched.policy = server::DiskSchedPolicy::kRealTime;
  hw::Disk disk(&env, hw::DiskParams(), server::MakeDiskScheduler(sched), 0,
                &completer);
  server::Prefetcher prefetcher(&env, server::PrefetchPolicy::kRealTime, 4,
                                8.0, &pool, &cpu, &disk, hw::CpuCosts());
  std::int64_t next_block = 0;
  // One round queues 32 prefetches of fresh blocks and runs until all
  // are read; the pool recycles its pages from the second round on.
  auto round = [&] {
    for (int i = 0; i < 32; ++i, ++next_block) {
      server::PrefetchTask task;
      task.key = server::PageKey{static_cast<int>(next_block % 3), next_block};
      task.disk_offset = (next_block % 97) * 512 * 1024;
      task.bytes = 512 * 1024;
      task.est_deadline = env.now() + 1.0 + 0.01 * i;
      prefetcher.Enqueue(task);
    }
    env.Run();
  };

  // Warmup: the pending set, the queue and the disk scheduler reach
  // their peak sizes.
  for (int i = 0; i < 4; ++i) round();
  const std::uint64_t issued = prefetcher.stats().issued;

  std::uint64_t before = g_allocations;
  for (int i = 0; i < 20; ++i) round();
  std::uint64_t after = g_allocations;
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(prefetcher.stats().issued - issued, 20u * 32u);
}

sim::Process Finisher(int* finished) {
  ++*finished;
  co_return;
}

TEST(AllocationTest, SpawnToCompletionAllocatesOnlyTheFrame) {
  sim::Environment env;
  env.ReserveCalendar(64);
  int finished = 0;
  constexpr int kBatch = 8;
  auto batch = [&] {
    for (int i = 0; i < kBatch; ++i) env.Spawn(Finisher(&finished));
    EXPECT_EQ(env.live_processes(), static_cast<std::size_t>(kBatch));
    env.Run();
  };

  // Warmup: the first batch creates the resume slots the others reuse.
  batch();
  std::uint64_t before = g_allocations;
  for (int round = 0; round < 50; ++round) batch();
  std::uint64_t after = g_allocations;
  // One coroutine frame per process and nothing else.
  EXPECT_EQ(after - before, 50u * kBatch);
  EXPECT_EQ(finished, 51 * kBatch);
  EXPECT_EQ(env.live_processes(), 0u);
}

sim::Process Waiter(sim::WaitList* list, int rounds) {
  for (int i = 0; i < rounds; ++i) (void)co_await list->Wait();
}

sim::Process Notifier(sim::Environment* env, sim::WaitList* list,
                      int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await env->Hold(0.001);
    list->NotifyAll();
  }
}

TEST(AllocationTest, WaitListNotifyCycleSteadyStateAllocatesNothing) {
  sim::Environment env;
  env.ReserveCalendar(1024);
  sim::WaitList list(&env);
  constexpr int kRounds = 200;
  for (int w = 0; w < 8; ++w) env.Spawn(Waiter(&list, kRounds));
  env.Spawn(Notifier(&env, &list, kRounds + 1));

  // Run a few rounds so coroutine frames and resume slots exist.
  env.RunUntil(0.01);
  std::uint64_t before = g_allocations;
  env.RunUntil(0.15);
  std::uint64_t after = g_allocations;
  EXPECT_EQ(after - before, 0u);
  env.Run();  // drain
}

class CountingSink final : public server::MessageSink {
 public:
  void OnMessage(const server::Message&) override { ++received; }
  int received = 0;
};

TEST(AllocationTest, PooledMessageDeliverySteadyStateAllocatesNothing) {
  sim::Environment env;
  env.ReserveCalendar(1024);
  hw::Network network(&env, hw::NetworkParams{});
  CountingSink sink;
  server::Message message;
  message.kind = server::Message::Kind::kReadRequest;
  message.terminal = 7;

  // Warmup: the first messages grow the one-shot arena chunk.
  for (int i = 0; i < 64; ++i) {
    server::PostMessage(&env, &network, 64, &sink, message);
  }
  env.Run();
  int warm = sink.received;

  std::uint64_t before = g_allocations;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 32; ++i) {
      server::PostMessage(&env, &network, 64, &sink, message);
    }
    env.Run();
  }
  std::uint64_t after = g_allocations;
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(sink.received, warm + 50 * 32);
}

// Answers every read request at once (the request itself already
// crossed the network, so the reply does not re-enter the sender).
class InstantServer final : public server::NodeDirectory,
                            public server::MessageSink {
 public:
  server::MessageSink* node_sink(int) override { return this; }
  void OnMessage(const server::Message& request) override {
    server::Message reply = request;
    reply.kind = server::Message::Kind::kReadReply;
    request.reply_to->OnMessage(reply);
  }
};

TEST(AllocationTest, TerminalDisplayTickAllocatesNothing) {
  sim::Environment env;
  env.ReserveCalendar(64);
  constexpr std::int64_t kBlock = 512 * 1024;
  mpeg::VideoLibrary library(1, /*duration_seconds=*/10.0,
                             mpeg::MpegParams(),
                             mpeg::ZipfDistribution(1, 0.0), 1, kBlock);
  layout::StripedLayout layout(
      1, 1, kBlock, std::vector<std::int64_t>{library.NumBlocks(0)});
  hw::Network network(&env, hw::NetworkParams{});
  InstantServer server;
  client::TerminalParams params;
  params.memory_bytes = 16 * 1024 * 1024;  // the whole 10 s video
  params.random_initial_position = false;
  client::Terminal terminal(&env, 0, params, &network, &server, &library,
                            &layout, sim::Rng(7), /*start_time=*/0.0);

  // Warmup: the video primes whole, then plays; after this only display
  // ticks remain (nothing left to request).
  env.RunUntil(1.0);
  ASSERT_EQ(terminal.state(), client::Terminal::State::kPlaying);
  const std::uint64_t frames = terminal.stats().frames_displayed;
  const std::uint64_t refills = terminal.frame_window().refills();

  std::uint64_t before = g_allocations;
  env.RunUntil(9.0);
  std::uint64_t after = g_allocations;
  EXPECT_EQ(after - before, 0u);
  // Eight seconds of ticks, window refills included.
  EXPECT_EQ(terminal.stats().frames_displayed - frames, 240u);
  EXPECT_GE(terminal.frame_window().refills() - refills, 3u);
}

}  // namespace
}  // namespace spiffi
