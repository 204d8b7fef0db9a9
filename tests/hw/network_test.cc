#include "hw/network.h"

#include <vector>

#include "gtest/gtest.h"
#include "sim/process.h"

namespace spiffi::hw {
namespace {

class Receiver final : public sim::EventHandler {
 public:
  explicit Receiver(sim::Environment* env) : env_(env) {}
  void OnEvent(std::uint64_t token) override {
    deliveries.push_back({token, env_->now()});
  }
  std::vector<std::pair<std::uint64_t, double>> deliveries;

 private:
  sim::Environment* env_;
};

TEST(NetworkTest, WireDelayMatchesTableOne) {
  sim::Environment env;
  Network net(&env, NetworkParams());
  // 5 us base + 0.04 us/byte: a 512 KiB block takes ~21 ms.
  EXPECT_NEAR(net.WireDelay(0), 5e-6, 1e-15);
  EXPECT_NEAR(net.WireDelay(524288), 5e-6 + 524288 * 0.04e-6, 1e-12);
}

TEST(NetworkTest, DeliversAfterWireDelay) {
  sim::Environment env;
  Network net(&env, NetworkParams());
  Receiver receiver(&env);
  net.Send(1000, &receiver, 42);
  env.Run();
  ASSERT_EQ(receiver.deliveries.size(), 1u);
  EXPECT_EQ(receiver.deliveries[0].first, 42u);
  EXPECT_NEAR(receiver.deliveries[0].second, 5e-6 + 1000 * 0.04e-6, 1e-12);
}

TEST(NetworkTest, UnlimitedBandwidthMessagesOverlap) {
  sim::Environment env;
  Network net(&env, NetworkParams());
  Receiver receiver(&env);
  // Two simultaneous sends arrive at the same time: no queueing.
  net.Send(1000, &receiver, 1);
  net.Send(1000, &receiver, 2);
  env.Run();
  ASSERT_EQ(receiver.deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(receiver.deliveries[0].second,
                   receiver.deliveries[1].second);
}

TEST(NetworkTest, TracksTotals) {
  sim::Environment env;
  Network net(&env, NetworkParams());
  Receiver receiver(&env);
  net.Send(100, &receiver, 1);
  net.Send(200, &receiver, 2);
  env.Run();
  EXPECT_EQ(net.total_bytes(), 300u);
  EXPECT_EQ(net.total_messages(), 2u);
}

TEST(NetworkTest, PeakBucketCapturesBurst) {
  sim::Environment env;
  Network net(&env, NetworkParams());
  Receiver receiver(&env);
  env.Spawn([](sim::Environment* e, Network* n,
               Receiver* r) -> sim::Process {
    // 3 MB in second 0, 1 MB in second 5.
    n->Send(3'000'000, r, 1);
    co_await e->Hold(5.0);
    n->Send(1'000'000, r, 2);
  }(&env, &net, &receiver));
  env.Run();
  EXPECT_EQ(net.peak_bytes_per_bucket(), 3'000'000u);
}

TEST(NetworkTest, PeakSitsInTheStillOpenLastBucket) {
  sim::Environment env;
  Network net(&env, NetworkParams());
  Receiver receiver(&env);
  env.Spawn([](sim::Environment* e, Network* n,
               Receiver* r) -> sim::Process {
    // 1.5 MB in second 0, then 2 MB in two sends in second 3, the last
    // traffic of the run: the peak bucket is never closed.
    n->Send(1'500'000, r, 1);
    co_await e->Hold(3.2);
    n->Send(1'000'000, r, 2);
    co_await e->Hold(0.5);
    n->Send(1'000'000, r, 3);
  }(&env, &net, &receiver));
  env.Run();
  EXPECT_EQ(net.peak_bytes_per_bucket(), 2'000'000u);
}

TEST(NetworkTest, TrafficStraddlesAMidBucketReset) {
  sim::Environment env;
  Network net(&env, NetworkParams());
  Receiver receiver(&env);
  env.Spawn([](sim::Environment* e, Network* n,
               Receiver* r) -> sim::Process {
    // Second 0 carries 3 MB before the reset at t = 0.5 and 1 MB after
    // it; second 1 carries 0.5 MB. Only post-reset bytes count.
    co_await e->Hold(0.25);
    n->Send(3'000'000, r, 1);
    co_await e->Hold(0.25);
    n->ResetStats();
    EXPECT_EQ(n->peak_bytes_per_bucket(), 0u);
    co_await e->Hold(0.25);
    n->Send(1'000'000, r, 2);
    co_await e->Hold(0.75);
    n->Send(500'000, r, 3);
  }(&env, &net, &receiver));
  env.Run();
  EXPECT_EQ(net.peak_bytes_per_bucket(), 1'000'000u);
  EXPECT_EQ(net.total_bytes(), 1'500'000u);
  EXPECT_DOUBLE_EQ(net.stats_start(), 0.5);
}

TEST(NetworkTest, ResetStatsClearsCounters) {
  sim::Environment env;
  Network net(&env, NetworkParams());
  Receiver receiver(&env);
  net.Send(100, &receiver, 1);
  env.Run();
  net.ResetStats();
  EXPECT_EQ(net.total_bytes(), 0u);
  EXPECT_EQ(net.peak_bytes_per_bucket(), 0u);
}

TEST(NetworkTest, AverageBandwidthOverWindow) {
  sim::Environment env;
  Network net(&env, NetworkParams());
  Receiver receiver(&env);
  env.Spawn([](sim::Environment* e, Network* n,
               Receiver* r) -> sim::Process {
    for (int i = 0; i < 10; ++i) {
      n->Send(1'000'000, r, i);
      co_await e->Hold(1.0);
    }
  }(&env, &net, &receiver));
  env.RunUntil(10.0);
  EXPECT_NEAR(net.AverageBandwidth(env.now()), 1'000'000.0, 1.0);
}

}  // namespace
}  // namespace spiffi::hw
