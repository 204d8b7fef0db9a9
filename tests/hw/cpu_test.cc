#include "hw/cpu.h"

#include <vector>

#include "gtest/gtest.h"
#include "sim/process.h"

namespace spiffi::hw {
namespace {

TEST(CpuTest, ExecutionTimeMatchesMips) {
  sim::Environment env;
  Cpu cpu(&env, 40.0);
  double done_at = -1.0;
  env.Spawn([](sim::Environment* e, Cpu* c, double* t) -> sim::Process {
    co_await c->Execute(20000);  // start-an-I/O cost
    *t = e->now();
  }(&env, &cpu, &done_at));
  env.Run();
  // 20000 instructions at 40 MIPS = 0.5 ms.
  EXPECT_NEAR(done_at, 0.0005, 1e-12);
}

TEST(CpuTest, RequestsQueueFcfs) {
  sim::Environment env;
  Cpu cpu(&env, 40.0);
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    env.Spawn([](Cpu* c, sim::Environment* e,
                 std::vector<double>* log) -> sim::Process {
      co_await c->Execute(40'000'000);  // 1 second each
      log->push_back(e->now());
    }(&cpu, &env, &done));
  }
  env.Run();
  EXPECT_EQ(done, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(CpuTest, UtilizationTracksLoad) {
  sim::Environment env;
  Cpu cpu(&env, 40.0);
  env.Spawn([](Cpu* c) -> sim::Process {
    co_await c->Execute(40'000'000);  // busy [0, 1)
  }(&cpu));
  env.RunUntil(4.0);
  EXPECT_NEAR(cpu.AverageUtilization(env.now()), 0.25, 1e-9);
}

TEST(CpuTest, DefaultTableOneCosts) {
  CpuCosts costs;
  EXPECT_EQ(costs.start_io_instructions, 20000);
  EXPECT_EQ(costs.send_message_instructions, 6800);
  EXPECT_EQ(costs.receive_message_instructions, 2200);
}

// The CPU as a single-server FCFS resource (CSIM "facility"): queueing
// order, busy-time integration and the service tally. At 40 MIPS,
// 40'000'000 instructions take exactly one second.
constexpr std::int64_t kOneSecond = 40'000'000;

sim::Process ExecuteOnce(sim::Environment* env, Cpu* cpu,
                         std::int64_t instructions,
                         std::vector<double>* done_at) {
  co_await cpu->Execute(instructions);
  done_at->push_back(env->now());
}

TEST(ResourceTest, SingleServerSerializesRequests) {
  sim::Environment env;
  Cpu cpu(&env, 40.0);
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    env.Spawn(ExecuteOnce(&env, &cpu, 2 * kOneSecond, &done));
  }
  env.Run();
  EXPECT_EQ(done, (std::vector<double>{2.0, 4.0, 6.0}));
}

TEST(ResourceTest, FcfsOrderPreserved) {
  sim::Environment env;
  Cpu cpu(&env, 40.0);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    env.Spawn([](sim::Environment* e, Cpu* c, std::vector<int>* log,
                 int id) -> sim::Process {
      co_await e->Hold(0.1 * id);  // arrive staggered
      co_await c->Execute(kOneSecond);
      log->push_back(id);
    }(&env, &cpu, &order, i));
  }
  env.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ResourceTest, UtilizationFullWhenAlwaysBusy) {
  sim::Environment env;
  Cpu cpu(&env, 40.0);
  std::vector<double> done;
  for (int i = 0; i < 10; ++i) {
    env.Spawn(ExecuteOnce(&env, &cpu, kOneSecond, &done));
  }
  env.Run();
  EXPECT_NEAR(cpu.AverageUtilization(env.now()), 1.0, 1e-9);
}

TEST(ResourceTest, UtilizationHalfWhenBusyHalfTheTime) {
  sim::Environment env;
  Cpu cpu(&env, 40.0);
  env.Spawn([](sim::Environment* e, Cpu* c) -> sim::Process {
    co_await c->Execute(5 * kOneSecond);  // busy [0, 5)
    co_await e->Hold(5.0);                // idle [5, 10)
  }(&env, &cpu));
  env.RunUntil(10.0);
  EXPECT_NEAR(cpu.AverageUtilization(env.now()), 0.5, 1e-9);
}

TEST(ResourceTest, ResetStatsOpensNewWindow) {
  sim::Environment env;
  Cpu cpu(&env, 40.0);
  std::vector<double> done;
  env.Spawn(ExecuteOnce(&env, &cpu, 4 * kOneSecond, &done));  // busy [0,4)
  env.Run();
  cpu.ResetStats(env.now());
  env.Spawn(ExecuteOnce(&env, &cpu, kOneSecond, &done));  // busy [4,5)
  env.RunUntil(6.0);
  EXPECT_NEAR(cpu.AverageUtilization(env.now()), 0.5, 1e-9);
}

TEST(ResourceTest, ServiceTallyRecordsTimes) {
  sim::Environment env;
  Cpu cpu(&env, 40.0);
  std::vector<double> done;
  env.Spawn(ExecuteOnce(&env, &cpu, kOneSecond, &done));
  env.Spawn(ExecuteOnce(&env, &cpu, 3 * kOneSecond, &done));
  env.Run();
  EXPECT_EQ(cpu.service_tally().count(), 2u);
  EXPECT_DOUBLE_EQ(cpu.service_tally().mean(), 2.0);
}

TEST(ResourceTest, QueueLengthVisibleMidRun) {
  sim::Environment env;
  Cpu cpu(&env, 40.0);
  std::vector<double> done;
  for (int i = 0; i < 5; ++i) {
    env.Spawn(ExecuteOnce(&env, &cpu, 10 * kOneSecond, &done));
  }
  env.RunUntil(1.0);
  EXPECT_TRUE(cpu.busy());
  EXPECT_EQ(cpu.queue_length(), 4u);
}

}  // namespace
}  // namespace spiffi::hw
