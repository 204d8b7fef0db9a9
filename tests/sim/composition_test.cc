// Composition tests: the kernel primitives (processes, holds, wait
// lists) and the CPU's FCFS queue cooperating in one simulation, plus
// event-trace-level determinism of the whole ensemble.

#include <deque>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "hw/cpu.h"
#include "sim/environment.h"
#include "sim/process.h"
#include "sim/wait_list.h"

namespace spiffi::sim {
namespace {

// A tiny producer/consumer pipeline: producers "compute" on a shared
// CPU and queue results for a consumer.
struct Pipeline {
  explicit Pipeline(Environment* env) : cpu(env, 40.0), arrived(env) {}
  hw::Cpu cpu;
  std::deque<int> results;
  WaitList arrived;  // notified once per queued result
  std::vector<std::string> log;
};

Process Producer(Environment* env, Pipeline* p, int id, int items) {
  for (int i = 0; i < items; ++i) {
    co_await p->cpu.Execute(400'000);  // 10 ms at 40 MIPS
    p->results.push_back(id * 100 + i);
    p->arrived.NotifyOne();
    co_await env->Hold(0.05);
  }
}

Process Consumer(Environment* env, Pipeline* p, int total) {
  for (int i = 0; i < total; ++i) {
    while (p->results.empty()) co_await p->arrived.Wait();
    const int value = p->results.front();
    p->results.pop_front();
    p->log.push_back(std::to_string(env->now()) + ":" +
                     std::to_string(value));
  }
  env->Stop();
}

TEST(CompositionTest, ProducerConsumerPipelineCompletes) {
  Environment env;
  Pipeline pipeline(&env);
  for (int id = 0; id < 4; ++id) {
    env.Spawn(Producer(&env, &pipeline, id, 10));
  }
  env.Spawn(Consumer(&env, &pipeline, 40));
  env.Run();
  EXPECT_EQ(pipeline.log.size(), 40u);
  EXPECT_TRUE(env.stopped());
}

TEST(CompositionTest, PipelineTraceIsDeterministic) {
  auto run = [] {
    Environment env;
    Pipeline pipeline(&env);
    for (int id = 0; id < 4; ++id) {
      env.Spawn(Producer(&env, &pipeline, id, 10));
    }
    env.Spawn(Consumer(&env, &pipeline, 40));
    env.Run();
    return pipeline.log;
  };
  EXPECT_EQ(run(), run());
}

// Mixed waiting: a process that races a wait-list notification against a
// timeout while other processes churn the calendar.
TEST(CompositionTest, WaitListRaceUnderChurn) {
  Environment env;
  WaitList list(&env);
  int notified = 0;
  int timed_out = 0;
  // 20 waiters with staggered deadlines; a notifier wakes one per 0.1 s.
  for (int i = 0; i < 20; ++i) {
    env.Spawn([](Environment* e, WaitList* l, int id, int* n,
                 int* t) -> Process {
      co_await e->Hold(0.0);
      bool ok = co_await l->WaitUntil(0.95 + 0.0 * id);
      if (ok) {
        ++*n;
      } else {
        ++*t;
      }
    }(&env, &list, i, &notified, &timed_out));
  }
  env.Spawn([](Environment* e, WaitList* l) -> Process {
    for (int i = 0; i < 8; ++i) {
      co_await e->Hold(0.1);
      l->NotifyOne();
    }
  }(&env, &list));
  // Background churn.
  for (int i = 0; i < 10; ++i) {
    env.Spawn([](Environment* e) -> Process {
      for (int k = 0; k < 50; ++k) co_await e->Hold(0.02);
    }(&env));
  }
  env.Run();
  EXPECT_EQ(notified, 8);
  EXPECT_EQ(timed_out, 12);
}

// Stop() fired from deep inside a primitive chain stops the run loop
// without corrupting state; the run can be resumed.
TEST(CompositionTest, StopInsideResourceUseResumable) {
  Environment env;
  hw::Cpu cpu(&env, 40.0);
  std::vector<int> done;
  for (int i = 0; i < 5; ++i) {
    env.Spawn([](Environment* e, hw::Cpu* c, std::vector<int>* log,
                 int id) -> Process {
      co_await c->Execute(40'000'000);  // one second
      log->push_back(id);
      if (id == 1) e->Stop();
    }(&env, &cpu, &done, i));
  }
  env.Run();
  EXPECT_EQ(done, (std::vector<int>{0, 1}));
  env.Run();  // resume where we left off
  EXPECT_EQ(done, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace spiffi::sim
