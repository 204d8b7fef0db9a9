// End-to-end behaviour of the proxy tier inside a full simulation:
// requests flow terminal -> proxy -> origin, hits are served locally,
// and runs are deterministic. Plus unit-level coverage of the forward
// watchdog against a fake origin.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "layout/striping.h"
#include "mpeg/zipf.h"
#include "proxy/proxy_node.h"
#include "sim/process.h"
#include "vod/simulation.h"

namespace spiffi::proxy {
namespace {

vod::SimConfig ProxyConfig(ProxyPolicy policy = ProxyPolicy::kLru) {
  vod::SimConfig config;
  config.num_nodes = 2;
  config.disks_per_node = 2;
  config.video_seconds = 120.0;
  config.server_memory_bytes = 256LL * 1024 * 1024;
  config.terminals = 20;
  config.start_window_sec = 10.0;
  config.warmup_seconds = 15.0;
  config.measure_seconds = 30.0;
  config.proxy_nodes = 2;
  config.proxy_cache_pages = 128;
  config.proxy_policy = policy;
  return config;
}

TEST(ProxyNodeTest, AllTrafficFlowsThroughTheProxyTier) {
  vod::Simulation simulation(ProxyConfig());
  vod::SimMetrics metrics = simulation.Run();
  ASSERT_EQ(simulation.num_proxies(), 2);

  // Every block a terminal received came through a proxy: the tier saw
  // at least as many requests as there were measurement-window blocks.
  EXPECT_GT(metrics.proxy_references, 0u);
  EXPECT_EQ(metrics.proxy_references,
            metrics.proxy_hits + metrics.proxy_attaches +
                metrics.proxy_forwards);
  // The origin only ever hears from proxies, so its pool reference count
  // can't meaningfully exceed what the proxies forwarded over the same
  // window (a small allowance covers forwards in flight across the
  // measurement-window edges).
  EXPECT_LE(metrics.buffer_references,
            metrics.proxy_forwards +
                static_cast<std::uint64_t>(metrics.terminals) * 8);
  // Playback still works end to end.
  EXPECT_GT(metrics.frames_displayed, 0u);
}

TEST(ProxyNodeTest, TerminalTUsesProxyTModP) {
  vod::SimConfig config = ProxyConfig();
  config.proxy_nodes = 3;
  config.request_retry_budget = 0;  // no re-sends: one reference per send
  // A zero-delay wire delivers each request in the instant it is sent,
  // so none straddles the warmup reset or the end of the run.
  config.network.wire_delay_base_sec = 0.0;
  config.network.wire_delay_per_byte_sec = 0.0;
  vod::Simulation simulation(config);
  simulation.Run();
  ASSERT_EQ(simulation.num_proxies(), 3);
  std::uint64_t sent[3] = {0, 0, 0};
  for (int t = 0; t < simulation.num_terminals(); ++t) {
    sent[t % 3] += simulation.terminal(t).stats().requests_sent;
  }
  for (int p = 0; p < 3; ++p) {
    EXPECT_GT(sent[p], 0u) << p;
    EXPECT_EQ(simulation.proxy_node(p).stats().references, sent[p]) << p;
  }
}

TEST(ProxyNodeTest, CacheHitsOffloadTheOrigin) {
  vod::Simulation simulation(ProxyConfig());
  vod::SimMetrics metrics = simulation.Run();
  // 20 terminals over a small Zipf library re-reference the same blocks:
  // the proxy caches must convert some of that into local hits.
  EXPECT_GT(metrics.proxy_hits, 0u);
  EXPECT_GT(metrics.proxy_bytes_from_cache, 0u);
  EXPECT_GT(metrics.proxy_offload_ratio(), 0.0);
  EXPECT_GT(metrics.avg_proxy_forward_ms, 0.0);
}

TEST(ProxyNodeTest, RunsAreBitIdenticalAcrossRepeats) {
  for (ProxyPolicy policy :
       {ProxyPolicy::kLru, ProxyPolicy::kRankZipf,
        ProxyPolicy::kAdaptivePrefix}) {
    vod::SimMetrics a = vod::RunSimulation(ProxyConfig(policy));
    vod::SimMetrics b = vod::RunSimulation(ProxyConfig(policy));
    EXPECT_EQ(a.events_simulated, b.events_simulated);
    EXPECT_EQ(a.proxy_references, b.proxy_references);
    EXPECT_EQ(a.proxy_hits, b.proxy_hits);
    EXPECT_EQ(a.proxy_attaches, b.proxy_attaches);
    EXPECT_EQ(a.proxy_forwards, b.proxy_forwards);
    EXPECT_EQ(a.avg_proxy_forward_ms, b.avg_proxy_forward_ms);
    EXPECT_EQ(a.glitches, b.glitches);
    EXPECT_EQ(a.avg_response_ms, b.avg_response_ms);
  }
}

TEST(ProxyNodeTest, PopularityPoliciesDigestMeasuredReferences) {
  vod::Simulation simulation(ProxyConfig(ProxyPolicy::kRankZipf));
  simulation.Run();
  // The recompute loop ran (45 s of sim time, 30 s period), so ranks
  // reflect measured demand: some video was referenced and rank 0 went
  // to a video with the maximum reference count.
  const ProxyCache& cache = simulation.proxy_node(0).cache();
  std::uint64_t best_refs = 0;
  int videos = simulation.config().num_videos();
  for (int v = 0; v < videos; ++v) {
    best_refs = std::max(best_refs, cache.video_refs(v));
  }
  ASSERT_GT(best_refs, 0u);
  for (int v = 0; v < videos; ++v) {
    if (cache.video_rank(v) == 0) {
      EXPECT_EQ(cache.video_refs(v), best_refs);
    }
  }
}

TEST(ProxyNodeTest, AdaptivePolicyAssignsQuotas) {
  vod::Simulation simulation(ProxyConfig(ProxyPolicy::kAdaptivePrefix));
  simulation.Run();
  const ProxyCache& cache = simulation.proxy_node(0).cache();
  std::int64_t total_quota = 0;
  for (int v = 0; v < simulation.config().num_videos(); ++v) {
    total_quota += cache.prefix_quota(v);
  }
  EXPECT_GT(total_quota, 0);
  EXPECT_LE(total_quota, simulation.config().proxy_cache_pages);
}

TEST(ProxyNodeTest, ResetStatsClearsCountersButKeepsPopularity) {
  vod::Simulation simulation(ProxyConfig());
  simulation.Run();
  ProxyNode& proxy = simulation.proxy_node(0);
  ASSERT_GT(proxy.stats().references, 0u);
  std::uint64_t refs_before = 0;
  for (int v = 0; v < simulation.config().num_videos(); ++v) {
    refs_before += proxy.cache().video_refs(v);
  }
  proxy.ResetStats();
  EXPECT_EQ(proxy.stats().references, 0u);
  EXPECT_EQ(proxy.stats().hits, 0u);
  EXPECT_EQ(proxy.stats().forward_latency.count(), 0u);
  std::uint64_t refs_after = 0;
  for (int v = 0; v < simulation.config().num_videos(); ++v) {
    refs_after += proxy.cache().video_refs(v);
  }
  EXPECT_EQ(refs_after, refs_before);
}

// --- Forward watchdog (unit-level, fake origin) ---

// A fake origin node that replies after a fixed delay; blocks listed in
// `held_blocks` are withheld until ReleaseHeld().
class FakeOrigin final : public server::NodeDirectory,
                         public server::MessageSink {
 public:
  explicit FakeOrigin(sim::Environment* env) : env_(env) {}

  server::MessageSink* node_sink(int) override { return this; }

  void OnMessage(const server::Message& request) override {
    requests.push_back(request);
    if (held_blocks.count(request.block) > 0) {
      held.push_back(request);
      return;
    }
    Reply(request);
  }

  class Deliver final : public sim::EventHandler {
   public:
    Deliver(server::Message m, server::MessageSink* sink)
        : m_(m), sink_(sink) {}
    void OnEvent(std::uint64_t) override { sink_->OnMessage(m_); }

   private:
    server::Message m_;
    server::MessageSink* sink_;
  };

  void Reply(const server::Message& request) {
    server::Message reply = request;
    reply.kind = server::Message::Kind::kReadReply;
    deliveries_.push_back(
        std::make_unique<Deliver>(reply, request.reply_to));
    env_->ScheduleAfter(reply_delay, deliveries_.back().get());
  }

  void ReleaseHeld() {
    for (const server::Message& request : held) Reply(request);
    held.clear();
    held_blocks.clear();
  }

  double reply_delay = 0.02;
  std::set<std::int64_t> held_blocks;
  std::vector<server::Message> requests;
  std::vector<server::Message> held;

 private:
  sim::Environment* env_;
  std::vector<std::unique_ptr<Deliver>> deliveries_;
};

class CountingSink final : public server::MessageSink {
 public:
  void OnMessage(const server::Message&) override { ++replies; }
  int replies = 0;
};

TEST(ProxyNodeTest, StaleWatchdogDoesNotRetryANewerForwardOfTheSameBlock) {
  // Regression: a watchdog used to identify its forward only by
  // PageKey. If its forward resolved and the same block missed again
  // (cache eviction in between) before the old watchdog's next wake,
  // the old coroutine found the new PendingForward and retried it
  // prematurely, alongside the new forward's own watchdog. The
  // generation guard must make the stale watchdog exit instead.
  sim::Environment env;
  hw::Network network(&env, hw::NetworkParams());
  mpeg::ZipfDistribution popularity(1, 0.0);
  constexpr std::int64_t kBlock = 512 * 1024;
  mpeg::VideoLibrary library(1, 30.0, mpeg::MpegParams(), popularity, 1,
                             kBlock);
  layout::StripedLayout layout(
      1, 1, kBlock,
      std::vector<std::int64_t>{library.NumBlocks(0)});
  FakeOrigin origin(&env);
  CountingSink terminal;

  ProxyParams params;
  params.cache_pages = 1;  // one page: the second miss evicts the first
  params.retry_budget = 2;
  params.retry_min_timeout_sec = 1.0;
  params.retry_backoff_base_sec = 1.0;
  ProxyNode proxy(&env, params, &network, &origin, &layout, &library);

  bool finished = false;
  env.Spawn([](sim::Environment* e, ProxyNode* p, FakeOrigin* o,
               CountingSink* t, bool* done) -> sim::Process {
    auto send = [&](std::int64_t block) {
      server::Message m;
      m.kind = server::Message::Kind::kReadRequest;
      m.terminal = 0;
      m.video = 0;
      m.block = block;
      m.bytes = 1024;
      m.reply_to = t;
      p->OnMessage(m);
    };
    send(0);                // t=0: miss; its watchdog wakes at t=1
    co_await e->Hold(0.3);  // the origin reply resolved the forward
    send(1);                // t=0.3: its reply evicts block 0
    co_await e->Hold(0.3);
    o->held_blocks.insert(0);  // withhold the re-miss of block 0
    send(0);                   // t=0.6: new forward, watchdog at t=1.6
    co_await e->Hold(0.8);     // t=1.4: past the stale watchdog's wake
    EXPECT_EQ(p->stats().forward_retries, 0u)
        << "stale watchdog retried the new forward";
    co_await e->Hold(0.6);  // t=2.0: past the new watchdog's own wake
    EXPECT_GE(p->stats().forward_retries, 1u);
    o->ReleaseHeld();
    *done = true;
  }(&env, &proxy, &origin, &terminal, &finished));
  env.Run();
  EXPECT_TRUE(finished);
  // Block 0, block 1, block 0 again; the straggling retry reply is
  // dropped as stale and never fans out to the terminal.
  EXPECT_EQ(terminal.replies, 3);
  EXPECT_EQ(proxy.stats().stale_replies, 1u);
}

TEST(ProxyNodeTest, ProxyTierSurvivesOriginFaults) {
  vod::SimConfig config = ProxyConfig();
  config.placement = vod::VideoPlacement::kReplicatedStriped;
  config.replica_count = 2;
  config.fault_plan.script.push_back({20.0, fault::FaultKind::kDiskFail, 0});
  config.fault_plan.script.push_back(
      {35.0, fault::FaultKind::kDiskRecover, 0});
  vod::Simulation simulation(config);
  vod::SimMetrics metrics = simulation.Run();
  EXPECT_EQ(metrics.faults_injected, 1u);
  EXPECT_GT(metrics.proxy_references, 0u);
  EXPECT_GT(metrics.frames_displayed, 0u);
}

}  // namespace
}  // namespace spiffi::proxy
