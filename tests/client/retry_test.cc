// Block-request timeout/retry and session failover (ISSUE 9).
//
// Unit-level: a terminal with a retry budget re-issues a block whose
// reply is overdue, late duplicates of retried blocks are dropped
// exactly once, and an exhausted budget degrades to the old
// wait-until-glitch behaviour. Integration-level: killing a node under
// a retry-enabled Simulation migrates whole sessions to the surviving
// replica chain instead of rerouting block by block.

#include <memory>
#include <set>
#include <vector>

#include "client/terminal.h"
#include "gtest/gtest.h"
#include "layout/striping.h"
#include "mpeg/zipf.h"
#include "vod/simulation.h"

namespace spiffi::client {
namespace {

using server::Message;

// A fake origin that replies after a fixed delay and can withhold
// blocks: `held_blocks` holds every request for the block until
// ReleaseHeld(); `hold_once_blocks` swallows only the first request, so
// a retry of the same block gets through.
class FakeNode final : public server::NodeDirectory,
                       public server::MessageSink {
 public:
  explicit FakeNode(sim::Environment* env) : env_(env) {}

  server::MessageSink* node_sink(int) override { return this; }

  void OnMessage(const Message& request) override {
    requests.push_back(request);
    if (held_blocks.count(request.block) > 0) {
      held.push_back(request);
      return;
    }
    if (hold_once_blocks.count(request.block) > 0) {
      hold_once_blocks.erase(request.block);
      held.push_back(request);
      return;
    }
    Reply(request);
  }

  class Deliver final : public sim::EventHandler {
   public:
    Deliver(Message m, server::MessageSink* sink) : m_(m), sink_(sink) {}
    void OnEvent(std::uint64_t) override { sink_->OnMessage(m_); }

   private:
    Message m_;
    server::MessageSink* sink_;
  };

  void Reply(const Message& request) {
    Message reply = request;
    reply.kind = Message::Kind::kReadReply;
    deliveries_.push_back(
        std::make_unique<Deliver>(reply, request.reply_to));
    env_->ScheduleAfter(reply_delay, deliveries_.back().get());
  }

  void ReleaseHeld() {
    for (const Message& request : held) Reply(request);
    held.clear();
    held_blocks.clear();
  }

  int RequestCountFor(std::int64_t block) const {
    int count = 0;
    for (const Message& request : requests) {
      if (request.block == block) ++count;
    }
    return count;
  }

  double reply_delay = 0.01;
  std::set<std::int64_t> held_blocks;
  std::set<std::int64_t> hold_once_blocks;
  std::vector<Message> requests;
  std::vector<Message> held;

 private:
  sim::Environment* env_;
  std::vector<std::unique_ptr<Deliver>> deliveries_;
};

class RetryTest : public ::testing::Test {
 protected:
  static constexpr std::int64_t kBlock = 512 * 1024;

  void Build(TerminalParams params) {
    mpeg::ZipfDistribution popularity(2, 0.0);
    library_ = std::make_unique<mpeg::VideoLibrary>(
        2, /*video_seconds=*/30.0, mpeg::MpegParams(), popularity, 1,
        kBlock);
    std::vector<std::int64_t> blocks;
    for (int v = 0; v < 2; ++v) {
      blocks.push_back(library_->NumBlocks(v));
    }
    layout_ = std::make_unique<layout::StripedLayout>(1, 1, kBlock,
                                                      std::move(blocks));
    network_ = std::make_unique<hw::Network>(&env_, hw::NetworkParams());
    fake_ = std::make_unique<FakeNode>(&env_);
    params.random_initial_position = false;
    terminal_ = std::make_unique<Terminal>(
        &env_, 0, params, network_.get(), fake_.get(), library_.get(),
        layout_.get(), sim::Rng(7), /*start_time=*/0.0);
  }

  sim::Environment env_;
  std::unique_ptr<mpeg::VideoLibrary> library_;
  std::unique_ptr<layout::StripedLayout> layout_;
  std::unique_ptr<hw::Network> network_;
  std::unique_ptr<FakeNode> fake_;
  std::unique_ptr<Terminal> terminal_;
};

TEST_F(RetryTest, RetryReissuesOverdueBlockWithoutGlitch) {
  TerminalParams params;
  params.retry_budget = 2;
  params.retry_min_timeout_sec = 1.0;
  Build(params);
  // The first request for block 6 is swallowed; only the retry answers.
  fake_->hold_once_blocks.insert(6);
  env_.RunUntil(10.0);
  EXPECT_GE(fake_->RequestCountFor(6), 2);
  EXPECT_GE(terminal_->stats().request_retries, 1u);
  EXPECT_EQ(terminal_->stats().glitches, 0u);
  EXPECT_EQ(terminal_->state(), Terminal::State::kPlaying);
  // Retries are duplicate sends, not new requests.
  EXPECT_EQ(terminal_->stats().requests_sent +
                terminal_->stats().request_retries,
            fake_->requests.size());
}

TEST_F(RetryTest, DuplicateLateRepliesDroppedExactlyOnce) {
  TerminalParams params;
  params.retry_budget = 2;
  params.retry_min_timeout_sec = 1.0;
  params.retry_backoff_base_sec = 1.0;
  Build(params);
  // Withhold every copy of block 6 until just before its deadline
  // (~6 s), after the retry (~5 s) has issued a duplicate: both replies
  // then arrive, the first is consumed, the rest must be dropped.
  fake_->held_blocks.insert(6);
  env_.RunUntil(5.5);
  ASSERT_GE(fake_->held.size(), 2u);
  fake_->ReleaseHeld();
  env_.RunUntil(10.0);
  EXPECT_GE(terminal_->stats().request_retries, 1u);
  EXPECT_GE(terminal_->stats().duplicate_replies, 1u);
  EXPECT_EQ(terminal_->stats().glitches, 0u);
  EXPECT_EQ(terminal_->state(), Terminal::State::kPlaying);
}

TEST_F(RetryTest, ExhaustedBudgetFallsBackToGlitch) {
  TerminalParams params;
  params.retry_budget = 1;
  params.retry_min_timeout_sec = 1.0;
  Build(params);
  fake_->held_blocks.insert(6);  // every copy withheld: retries futile
  env_.RunUntil(10.0);
  EXPECT_GE(terminal_->stats().request_retries, 1u);
  EXPECT_GE(terminal_->stats().retries_exhausted, 1u);
  EXPECT_GE(terminal_->stats().glitches, 1u);
  // The old recovery path still works once the block shows up.
  fake_->ReleaseHeld();
  env_.RunUntil(13.0);
  EXPECT_EQ(terminal_->state(), Terminal::State::kPlaying);
}

TEST_F(RetryTest, NoRetriesWithoutBudget) {
  TerminalParams params;  // retry_budget = 0 (default)
  Build(params);
  fake_->hold_once_blocks.insert(6);
  env_.RunUntil(10.0);
  EXPECT_EQ(terminal_->stats().request_retries, 0u);
  EXPECT_EQ(fake_->RequestCountFor(6), 1);
  // Without a retry the withheld block costs a glitch.
  EXPECT_GE(terminal_->stats().glitches, 1u);
}

// --- Session failover under a node outage (full Simulation) ---

vod::SimConfig FailoverConfig() {
  vod::SimConfig config;
  config.num_nodes = 2;
  config.disks_per_node = 2;
  // Short videos so completions (and hence fresh admissions) land
  // inside the measurement window.
  config.video_seconds = 25.0;
  // Small enough that the library does not fit in the buffer cache:
  // reads must hit the disks, so the disk queues carry real load.
  config.server_memory_bytes = 32LL * 1024 * 1024;
  // Moderate load (~2/3 of the disk envelope): node 1's queue is
  // non-empty when it dies, so some stream always has a request parked
  // there whose retry timer then fires into a dead node — but replies
  // are otherwise fast enough that retry budgets never burn out ahead
  // of the failure.
  config.terminals = 40;
  config.start_window_sec = 10.0;
  config.warmup_seconds = 15.0;
  config.measure_seconds = 30.0;
  config.placement = vod::VideoPlacement::kReplicatedStriped;
  config.replica_count = 2;
  config.request_retry_budget = 2;
  config.admission_policy = vod::AdmissionPolicy::kStaticReservation;
  config.admission_headroom = 1.0;
  // No in-flight reroute: requests caught on the dead node park until
  // the terminal's timeout fires, exercising the failover path.
  config.fault_plan.reroute_hop_budget = 0;
  config.fault_plan.script.push_back(
      {20.0, fault::FaultKind::kNodeFail, 1});
  config.fault_plan.script.push_back(
      {40.0, fault::FaultKind::kNodeRecover, 1});
  return config;
}

TEST_F(RetryTest, SessionFailoverMigratesStreamsOffDeadNode) {
  vod::Simulation simulation(FailoverConfig());
  vod::SimMetrics metrics = simulation.Run();
  EXPECT_GT(metrics.admission_admits, 0u);
  EXPECT_GT(metrics.request_retries, 0u);
  // Streams caught with requests pending on the dead node migrate whole
  // and re-admit, rather than rerouting block by block forever.
  EXPECT_GE(metrics.session_failovers, 1u);
  EXPECT_GE(metrics.failover_readmissions, 1u);
}

TEST_F(RetryTest, FailoverRunsAreDeterministic) {
  vod::Simulation a(FailoverConfig());
  vod::SimMetrics ma = a.Run();
  vod::Simulation b(FailoverConfig());
  vod::SimMetrics mb = b.Run();
  EXPECT_EQ(ma.events_simulated, mb.events_simulated);
  EXPECT_EQ(ma.session_failovers, mb.session_failovers);
  EXPECT_EQ(ma.request_retries, mb.request_retries);
  EXPECT_EQ(ma.duplicate_replies, mb.duplicate_replies);
  EXPECT_EQ(ma.glitches, mb.glitches);
}

}  // namespace
}  // namespace spiffi::client
