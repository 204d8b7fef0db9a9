#include "sim/environment.h"

#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "sim/process.h"

namespace spiffi::sim {
namespace {

Process AppendAt(Environment* env, std::vector<double>* log, double delay) {
  co_await env->Hold(delay);
  log->push_back(env->now());
}

TEST(EnvironmentTest, TimeStartsAtZero) {
  Environment env;
  EXPECT_DOUBLE_EQ(env.now(), 0.0);
}

TEST(EnvironmentTest, RunAdvancesTimeThroughEvents) {
  Environment env;
  std::vector<double> log;
  env.Spawn(AppendAt(&env, &log, 2.5));
  env.Spawn(AppendAt(&env, &log, 1.0));
  env.Run();
  EXPECT_EQ(log, (std::vector<double>{1.0, 2.5}));
  EXPECT_DOUBLE_EQ(env.now(), 2.5);
}

TEST(EnvironmentTest, RunUntilStopsAtBoundary) {
  Environment env;
  std::vector<double> log;
  env.Spawn(AppendAt(&env, &log, 1.0));
  env.Spawn(AppendAt(&env, &log, 5.0));
  env.RunUntil(3.0);
  EXPECT_EQ(log, (std::vector<double>{1.0}));
  EXPECT_DOUBLE_EQ(env.now(), 3.0);
  // The later event is still pending and fires on the next Run.
  env.Run();
  EXPECT_EQ(log, (std::vector<double>{1.0, 5.0}));
}

TEST(EnvironmentTest, RunUntilIncludesEventsAtBoundary) {
  Environment env;
  std::vector<double> log;
  env.Spawn(AppendAt(&env, &log, 3.0));
  env.RunUntil(3.0);
  EXPECT_EQ(log, (std::vector<double>{3.0}));
}

Process Stopper(Environment* env, double at) {
  co_await env->Hold(at);
  env->Stop();
}

TEST(EnvironmentTest, StopHaltsRun) {
  Environment env;
  std::vector<double> log;
  env.Spawn(Stopper(&env, 2.0));
  env.Spawn(AppendAt(&env, &log, 1.0));
  env.Spawn(AppendAt(&env, &log, 10.0));
  env.Run();
  EXPECT_EQ(log, (std::vector<double>{1.0}));
  EXPECT_TRUE(env.stopped());
  EXPECT_DOUBLE_EQ(env.now(), 2.0);
}

Process Forever(Environment* env) {
  for (;;) co_await env->Hold(1.0);
}

TEST(EnvironmentTest, DestructionReclaimsLiveProcesses) {
  // A closed system stopped at a time limit leaves suspended coroutines
  // behind; the environment must destroy them (ASAN would flag leaks).
  Environment env;
  for (int i = 0; i < 10; ++i) env.Spawn(Forever(&env));
  env.RunUntil(5.0);
  EXPECT_EQ(env.live_processes(), 10u);
}

TEST(EnvironmentTest, ZeroDelayHoldYieldsToSameTimeEvents) {
  Environment env;
  std::vector<int> order;

  struct Tagger final : EventHandler {
    std::vector<int>* order;
    int tag;
    Tagger(std::vector<int>* o, int t) : order(o), tag(t) {}
    void OnEvent(std::uint64_t) override { order->push_back(tag); }
  };

  Tagger first(&order, 1);
  Tagger second(&order, 2);

  // A process that holds 0: it should resume after events already
  // scheduled at the same instant.
  env.Schedule(0.0, &first);
  env.Spawn([](Environment* e, std::vector<int>* o) -> Process {
    co_await e->Hold(0.0);
    o->push_back(3);
  }(&env, &order));
  env.Schedule(0.0, &second);
  env.Run();
  // first was scheduled before the spawn; the spawn's initial resume comes
  // next; the Hold(0) re-queues behind `second`.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EnvironmentTest, ScheduleAfterUsesRelativeDelay) {
  Environment env;
  std::vector<double> fired;

  struct Waker final : EventHandler {
    Environment* env;
    std::vector<double>* fired;
    Waker(Environment* e, std::vector<double>* f) : env(e), fired(f) {}
    void OnEvent(std::uint64_t) override { fired->push_back(env->now()); }
  };
  Waker waker(&env, &fired);

  env.ScheduleAfter(4.0, &waker);
  env.Run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_DOUBLE_EQ(fired[0], 4.0);
}

TEST(EnvironmentTest, ScheduleAfterClampsNegativeDelayToNow) {
  // Regression: a negative delay used to schedule into the past (the
  // debug assertion compiled out in release builds), which breaks the
  // calendar's no-backwards-time invariant. It now clamps to "fire at
  // the current time".
  Environment env;
  std::vector<double> fired;
  struct Waker final : EventHandler {
    Environment* env;
    std::vector<double>* fired;
    void OnEvent(std::uint64_t) override { fired->push_back(env->now()); }
  };
  Waker waker;
  waker.env = &env;
  waker.fired = &fired;

  env.Spawn([](Environment* e) -> Process { co_await e->Hold(5.0); }(&env));
  env.Run();
  ASSERT_DOUBLE_EQ(env.now(), 5.0);

  env.ScheduleAfter(-3.0, &waker);
  env.Run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_DOUBLE_EQ(fired[0], 5.0);  // now, not now - 3

  // NaN is not a meaningful delay either; it must also clamp, not poison
  // the calendar ordering.
  env.ScheduleAfter(std::numeric_limits<double>::quiet_NaN(), &waker);
  env.Run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired[1], 5.0);
}

TEST(EnvironmentTest, CancelPreventsDelivery) {
  Environment env;
  std::vector<double> fired;
  struct Waker final : EventHandler {
    std::vector<double>* fired;
    Environment* env;
    Waker(std::vector<double>* f, Environment* e) : fired(f), env(e) {}
    void OnEvent(std::uint64_t) override { fired->push_back(env->now()); }
  };
  Waker waker(&fired, &env);
  EventId id = env.ScheduleAfter(1.0, &waker);
  env.ScheduleAfter(2.0, &waker);
  env.Cancel(id);
  env.Run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_DOUBLE_EQ(fired[0], 2.0);
}

TEST(EnvironmentTest, ManyProcessesInterleaveDeterministically) {
  // Two identical runs must produce identical event counts and end times.
  auto run = [] {
    Environment env;
    std::vector<double> log;
    for (int i = 0; i < 50; ++i) {
      env.Spawn([](Environment* e, std::vector<double>* l,
                   int id) -> Process {
        for (int k = 0; k < 20; ++k) {
          co_await e->Hold(0.1 * ((id % 7) + 1));
          l->push_back(e->now() * 1000 + id);
        }
      }(&env, &log, i));
    }
    env.Run();
    return log;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace spiffi::sim
