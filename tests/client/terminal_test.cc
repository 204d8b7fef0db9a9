// Terminal state-machine tests against a controllable fake server.

#include "client/terminal.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "layout/striping.h"
#include "mpeg/zipf.h"
#include "vod/admission.h"
#include "vod/simulation.h"

namespace spiffi::client {
namespace {

using server::Message;

// A fake server node that replies after a configurable delay, with an
// optional per-block hold to create gaps/glitches.
class FakeServer final : public server::NodeDirectory,
                         public server::MessageSink {
 public:
  FakeServer(sim::Environment* env, hw::Network* network)
      : env_(env), network_(network) {}

  server::MessageSink* node_sink(int) override { return this; }

  void OnMessage(const Message& request) override {
    requests.push_back(request);
    if (held_blocks.count(request.block) > 0) {
      held.push_back(request);
      return;
    }
    Reply(request);
  }

  // Deliver after the configured service delay; delivery objects are
  // owned by the fake (freed at fixture teardown).
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

  double reply_delay = 0.01;
  std::set<std::int64_t> held_blocks;
  std::vector<Message> requests;
  std::vector<Message> held;

 private:
  sim::Environment* env_;
  hw::Network* network_;
  std::vector<std::unique_ptr<Deliver>> deliveries_;
};

class TerminalTest : public ::testing::Test {
 protected:
  static constexpr std::int64_t kBlock = 512 * 1024;

  void Build(TerminalParams params = TerminalParams(),
             double video_seconds = 30.0,
             StreamShareManager* share = nullptr) {
    mpeg::ZipfDistribution popularity(2, 0.0);
    library_ = std::make_unique<mpeg::VideoLibrary>(
        2, video_seconds, mpeg::MpegParams(), popularity, 1, kBlock);
    std::vector<std::int64_t> blocks;
    for (int v = 0; v < 2; ++v) {
      blocks.push_back(library_->NumBlocks(v));
    }
    layout_ = std::make_unique<layout::StripedLayout>(1, 1, kBlock,
                                                      std::move(blocks));
    network_ = std::make_unique<hw::Network>(&env_, hw::NetworkParams());
    fake_ = std::make_unique<FakeServer>(&env_, network_.get());
    params.random_initial_position = false;  // deterministic tests
    terminal_ = std::make_unique<Terminal>(
        &env_, 0, params, network_.get(), fake_.get(), library_.get(),
        layout_.get(), sim::Rng(7), /*start_time=*/0.0, share);
  }

  sim::Environment env_;
  std::unique_ptr<mpeg::VideoLibrary> library_;
  std::unique_ptr<layout::StripedLayout> layout_;
  std::unique_ptr<hw::Network> network_;
  std::unique_ptr<FakeServer> fake_;
  std::unique_ptr<Terminal> terminal_;
};

TEST_F(TerminalTest, PrimesBuffersBeforeDisplay) {
  Build();
  // 2 MB memory / 512 KB blocks -> primes with 4 blocks.
  env_.RunUntil(0.005);  // requests sent, replies not yet arrived
  EXPECT_EQ(terminal_->state(), Terminal::State::kPriming);
  EXPECT_EQ(fake_->requests.size(), 4u);
  env_.RunUntil(0.5);
  EXPECT_EQ(terminal_->state(), Terminal::State::kPlaying);
  EXPECT_GT(terminal_->stats().frames_displayed, 0u);
}

TEST_F(TerminalTest, RequestsCarryIncreasingDeadlines) {
  Build();
  env_.RunUntil(0.005);
  ASSERT_GE(fake_->requests.size(), 4u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GT(fake_->requests[i].deadline, fake_->requests[i - 1].deadline);
  }
  // Block k's deadline is about k seconds out (512 KB ~ 1 s of video).
  EXPECT_NEAR(fake_->requests[3].deadline - fake_->requests[0].deadline,
              3.0, 1.0);
}

TEST_F(TerminalTest, SteadyStateKeepsBufferNearlyFull) {
  Build();
  env_.RunUntil(10.0);
  EXPECT_EQ(terminal_->stats().glitches, 0u);
  // Occupied + in-flight stays within a block of the 2 MB budget.
  EXPECT_GE(terminal_->occupied_bytes() + terminal_->inflight_bytes(),
            2 * 1024 * 1024 - kBlock);
  // ~30 fps of frames displayed over ~9.5 s of playback.
  EXPECT_NEAR(static_cast<double>(terminal_->stats().frames_displayed),
              9.7 * 30.0, 30.0);
}

TEST_F(TerminalTest, GlitchWhenBlockWithheld) {
  Build();
  fake_->held_blocks.insert(6);  // block 6 never arrives (for a while)
  env_.RunUntil(10.0);
  EXPECT_GE(terminal_->stats().glitches, 1u);
  EXPECT_EQ(terminal_->state(), Terminal::State::kPriming);
  // Display stopped at the boundary of block 6.
  std::uint64_t frames_at_glitch = terminal_->stats().frames_displayed;
  // Release the block: the terminal re-primes and resumes.
  fake_->ReleaseHeld();
  env_.RunUntil(12.0);
  EXPECT_EQ(terminal_->state(), Terminal::State::kPlaying);
  EXPECT_GT(terminal_->stats().frames_displayed, frames_at_glitch);
  EXPECT_EQ(terminal_->stats().glitches, 1u);  // no repeat glitch
}

TEST_F(TerminalTest, ReprimeFillsWholeBufferBeforeRestart) {
  Build();
  fake_->held_blocks.insert(6);
  env_.RunUntil(10.0);
  ASSERT_GE(terminal_->stats().glitches, 1u);
  fake_->ReleaseHeld();
  env_.RunUntil(10.5);
  // After restart the buffer is full again (4 blocks).
  EXPECT_GE(terminal_->occupied_bytes() + terminal_->inflight_bytes(),
            2 * 1024 * 1024 - kBlock);
  EXPECT_EQ(terminal_->state(), Terminal::State::kPlaying);
}

TEST_F(TerminalTest, FinishesVideoAndStartsNext) {
  Build(TerminalParams(), /*video_seconds=*/10.0);
  env_.RunUntil(25.0);
  EXPECT_GE(terminal_->stats().videos_completed, 2u);
  EXPECT_EQ(terminal_->stats().glitches, 0u);
}

TEST_F(TerminalTest, OutOfOrderArrivalsHandled) {
  Build();
  // Hold block 1 so block 2 and 3 arrive first, then release.
  fake_->held_blocks.insert(1);
  env_.RunUntil(0.2);
  EXPECT_EQ(terminal_->state(), Terminal::State::kPriming);
  fake_->ReleaseHeld();
  env_.RunUntil(1.0);
  EXPECT_EQ(terminal_->state(), Terminal::State::kPlaying);
  EXPECT_EQ(terminal_->stats().glitches, 0u);
}

TEST_F(TerminalTest, SlowServerCausesGlitchThenRecovery) {
  Build();
  env_.RunUntil(5.0);
  EXPECT_EQ(terminal_->stats().glitches, 0u);
  fake_->reply_delay = 3.0;  // every block now takes 3 s
  env_.RunUntil(20.0);
  EXPECT_GE(terminal_->stats().glitches, 1u);
  fake_->reply_delay = 0.01;
  std::uint64_t glitches = terminal_->stats().glitches;
  env_.RunUntil(29.0);
  EXPECT_GT(terminal_->stats().frames_displayed, 0u);
  // Fast server again: glitch count stabilizes.
  EXPECT_LE(terminal_->stats().glitches, glitches + 1);
}

TEST_F(TerminalTest, PauseStopsDisplayWithoutGlitch) {
  TerminalParams params;
  params.pause_enabled = true;
  params.pauses_per_video_mean = 10.0;  // make pausing near-certain
  params.pause_duration_mean_sec = 0.5;
  Build(params, /*video_seconds=*/20.0);
  env_.RunUntil(60.0);
  EXPECT_GT(terminal_->stats().pauses, 0u);
  EXPECT_EQ(terminal_->stats().glitches, 0u);
  EXPECT_GT(terminal_->stats().videos_completed, 0u);
}

TEST_F(TerminalTest, MemoryLimitsOutstandingRequests) {
  TerminalParams params;
  params.memory_bytes = 1024 * 1024;  // only 2 blocks
  Build(params);
  env_.RunUntil(0.005);
  EXPECT_EQ(fake_->requests.size(), 2u);
}

TEST_F(TerminalTest, InflightRingHoldsTheWidestOutstandingSpan) {
  // Five-block videos whose last block is short, and memory for four
  // full blocks plus the longer short tail: priming puts a whole video
  // in flight at once, the widest span IssueRequests allows
  // (memory_bytes / block_bytes + 1 blocks). The in-flight ring CHECKs
  // that no two outstanding blocks share a slot.
  constexpr double kSeconds = 4.5;
  mpeg::VideoLibrary library(2, kSeconds, mpeg::MpegParams(),
                             mpeg::ZipfDistribution(2, 0.0), 1, kBlock);
  std::int64_t tail = 0;
  for (int v = 0; v < 2; ++v) {
    ASSERT_EQ(library.NumBlocks(v), 5);
    tail = std::max(tail, library.video(v).total_bytes() - 4 * kBlock);
  }
  ASSERT_LT(tail, kBlock);
  TerminalParams params;
  params.memory_bytes = 4 * kBlock + tail;
  params.retry_budget = 2;
  Build(params, kSeconds);

  // Hold every block: the timeouts re-send them while all five are
  // outstanding.
  for (std::int64_t block = 0; block < 5; ++block) {
    fake_->held_blocks.insert(block);
  }
  env_.RunUntil(1.0);
  ASSERT_EQ(terminal_->state(), Terminal::State::kPriming);
  EXPECT_EQ(terminal_->inflight_bytes(),
            library_->video(terminal_->current_video()).total_bytes());
  EXPECT_GT(terminal_->stats().request_retries, 0u);

  // Replies land newest first, the originals and the re-sends both.
  std::reverse(fake_->held.begin(), fake_->held.end());
  fake_->ReleaseHeld();
  env_.RunUntil(30.0);
  EXPECT_GT(terminal_->stats().duplicate_replies, 0u);
  EXPECT_GE(terminal_->stats().videos_completed, 2u);
}

TEST_F(TerminalTest, ResponseTimeRecorded) {
  Build();
  env_.RunUntil(2.0);
  const obs::QuantileSketch& response = terminal_->stats().response_sketch;
  EXPECT_GT(response.count(), 0u);
  // The fake server replies after reply_delay (10 ms) plus the request's
  // small wire delay.
  EXPECT_NEAR(response.mean(), 0.010, 0.002);
}

TEST_F(TerminalTest, ResetStatsClearsCounters) {
  Build();
  env_.RunUntil(2.0);
  terminal_->ResetStats();
  EXPECT_EQ(terminal_->stats().frames_displayed, 0u);
  EXPECT_EQ(terminal_->stats().requests_sent, 0u);
}

TEST(TerminalDeathTest, ZeroTimeGlitchLoopFailsFast) {
  // Regression for the fail-fast check in HandleGlitch: a terminal whose
  // buffer is full of arrived blocks but still too small to hold one
  // displayable frame would glitch forever in zero simulated time. The
  // check must abort instead of looping.
  auto run = [] {
    sim::Environment env;
    mpeg::ZipfDistribution popularity(1, 0.0);
    constexpr std::int64_t kTinyBlock = 4096;
    mpeg::VideoLibrary library(1, 10.0, mpeg::MpegParams(), popularity, 1,
                               kTinyBlock);
    layout::StripedLayout layout(
        1, 1, kTinyBlock,
        std::vector<std::int64_t>{library.NumBlocks(0)});
    hw::Network network(&env, hw::NetworkParams());
    FakeServer fake(&env, &network);
    TerminalParams params;
    params.memory_bytes = 2 * kTinyBlock;  // far below one I-frame
    params.random_initial_position = false;
    Terminal terminal(&env, 0, params, &network, &fake, &library, &layout,
                      sim::Rng(7), /*start_time=*/0.0);
    env.RunUntil(5.0);
  };
  EXPECT_DEATH(run(), "inflight_bytes_");
}

TEST_F(TerminalTest, PiggybackFollowerSendsNoRequests) {
  // Two terminals, one manager with a 5 s window: the second terminal
  // must follow the first and never touch the server.
  mpeg::ZipfDistribution popularity(1, 0.0);  // one video: guaranteed match
  library_ = std::make_unique<mpeg::VideoLibrary>(
      1, 20.0, mpeg::MpegParams(), popularity, 1, kBlock);
  layout_ = std::make_unique<layout::StripedLayout>(
      1, 1, kBlock,
      std::vector<std::int64_t>{library_->NumBlocks(0)});
  network_ = std::make_unique<hw::Network>(&env_, hw::NetworkParams());
  fake_ = std::make_unique<FakeServer>(&env_, network_.get());
  StreamShareManager manager(&env_, 5.0);
  TerminalParams params;
  params.random_initial_position = false;
  Terminal leader(&env_, 0, params, network_.get(), fake_.get(),
                  library_.get(), layout_.get(), sim::Rng(1), 0.0,
                  &manager);
  Terminal follower(&env_, 1, params, network_.get(), fake_.get(),
                    library_.get(), layout_.get(), sim::Rng(2), 1.0,
                    &manager);
  env_.RunUntil(10.0);
  EXPECT_EQ(leader.state(), Terminal::State::kPlaying);
  EXPECT_EQ(follower.state(), Terminal::State::kFollowing);
  EXPECT_EQ(follower.stats().requests_sent, 0u);
  EXPECT_GT(leader.stats().requests_sent, 0u);
  EXPECT_EQ(manager.followers_attached(), 1u);
  // The follower finishes its video at leader start + duration.
  env_.RunUntil(26.0);
  EXPECT_GE(follower.stats().videos_completed, 1u);
}

TEST_F(TerminalTest, DeferredAdmissionAfterFollowEndReentersTheGate) {
  // Regression: a pure follower never calls StartVideo, so its
  // pending_video_ used to survive the follow end — and a deferred
  // admission retry (which reused kStartToken) then replayed the
  // just-finished video directly, bypassing TryAdmit entirely. The
  // deferred retry must instead go back through ChooseNextVideo.
  mpeg::ZipfDistribution popularity(1, 0.0);  // one video: guaranteed match
  library_ = std::make_unique<mpeg::VideoLibrary>(
      1, 20.0, mpeg::MpegParams(), popularity, 1, kBlock);
  layout_ = std::make_unique<layout::StripedLayout>(
      1, 1, kBlock,
      std::vector<std::int64_t>{library_->NumBlocks(0)});
  network_ = std::make_unique<hw::Network>(&env_, hw::NetworkParams());
  fake_ = std::make_unique<FakeServer>(&env_, network_.get());
  StreamShareManager manager(&env_, 5.0);
  vod::AdmissionParams admission_params;
  admission_params.policy = vod::AdmissionPolicy::kStaticReservation;
  admission_params.num_nodes = 1;
  admission_params.node_bytes_per_sec = 2.0e6;  // room for both sessions
  admission_params.stream_bytes_per_sec = 1.0e6;
  admission_params.headroom_fraction = 1.0;
  vod::AdmissionController admission(admission_params);
  TerminalParams params;
  params.random_initial_position = false;
  Terminal leader(&env_, 0, params, network_.get(), fake_.get(),
                  library_.get(), layout_.get(), sim::Rng(1), 0.0,
                  &manager, nullptr, nullptr, &admission);
  Terminal follower(&env_, 1, params, network_.get(), fake_.get(),
                    library_.get(), layout_.get(), sim::Rng(2), 1.0,
                    &manager, nullptr, nullptr, &admission);
  env_.RunUntil(2.0);
  EXPECT_EQ(follower.state(), Terminal::State::kFollowing);
  EXPECT_EQ(admission.active_sessions(), 2);
  // The envelope collapses mid-run; the grandfathered streams play on,
  // but nothing new may be admitted.
  admission.OnNodeDown(0);
  // The follow ends at t=25 (group start 5 + 20 s video): the follower
  // releases its slot, is deferred at the gate, and must stay idle — a
  // replay of the finished video would show up as sent requests.
  env_.RunUntil(40.0);
  EXPECT_EQ(follower.stats().videos_completed, 1u);
  EXPECT_EQ(follower.state(), Terminal::State::kIdle);
  EXPECT_EQ(follower.stats().requests_sent, 0u);
  EXPECT_EQ(admission.active_sessions(), 0);
  EXPECT_GT(admission.stats().defers, 0);
}

// --- Frame window (mpeg/frame_window.h) ---
//
// The display reads each frame's size from a window drawn ahead, a
// cursor that only knows how to step to the next frame. Every other
// move of the display cursor (a video change, jump, search, failover or
// patch sync) must invalidate it, or the next frame shown takes a stale
// size. These tests drive a terminal through each such move and check,
// every 1/60 s of simulated time, that the bytes consumed still equal
// the video's cumulative bytes at the display cursor.

::testing::AssertionResult CursorMatchesVideo(
    const Terminal& terminal, const mpeg::VideoLibrary& library) {
  const int video = terminal.current_video();
  if (video < 0) return ::testing::AssertionSuccess();  // between videos
  const std::int64_t expected =
      library.video(video).CumulativeBytesAtFrame(terminal.next_frame());
  if (terminal.consumed_bytes() == expected) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "terminal " << terminal.id() << " consumed "
         << terminal.consumed_bytes() << " bytes by frame "
         << terminal.next_frame() << " of video " << video << ", expected "
         << expected;
}

class TerminalFrameWindowTest : public TerminalTest {
 protected:
  // Runs the terminal to `until`, checking the cursor at every step.
  ::testing::AssertionResult RunChecked(double until) {
    for (double t = env_.now(); t < until;) {
      t = std::min(until, t + 1.0 / 60.0);
      env_.RunUntil(t);
      ::testing::AssertionResult ok = CursorMatchesVideo(*terminal_, *library_);
      if (!ok) return ok << " at t=" << t;
    }
    return ::testing::AssertionSuccess();
  }
};

TEST_F(TerminalFrameWindowTest, JumpsWithinAndAcrossWindows) {
  Build();
  ASSERT_TRUE(RunChecked(2.0));
  // A few frames ahead (inside the drawn window), back, then far ahead.
  terminal_->JumpTo(terminal_->PositionSeconds() + 0.2);
  ASSERT_TRUE(RunChecked(3.0));
  terminal_->JumpTo(terminal_->PositionSeconds() - 0.5);
  ASSERT_TRUE(RunChecked(4.0));
  terminal_->JumpTo(20.0);
  ASSERT_TRUE(RunChecked(6.0));
  EXPECT_EQ(terminal_->state(), Terminal::State::kPlaying);
  EXPECT_GT(terminal_->frame_window().refills(), 3u);
}

TEST_F(TerminalFrameWindowTest, VisualSearchStartAndEnd) {
  Build(TerminalParams(), /*video_seconds=*/60.0);
  ASSERT_TRUE(RunChecked(2.0));
  terminal_->BeginVisualSearch(/*forward=*/true, 1.0, 3.0, 6.0);
  ASSERT_TRUE(RunChecked(12.0));
  ASSERT_TRUE(RunChecked(14.0));
  terminal_->BeginVisualSearch(/*forward=*/false, 0.5, 1.0, 3.0);
  ASSERT_TRUE(RunChecked(20.0));
  EXPECT_EQ(terminal_->stats().searches, 2u);
  EXPECT_EQ(terminal_->state(), Terminal::State::kPlaying);
}

TEST_F(TerminalFrameWindowTest, PauseAndResume) {
  TerminalParams params;
  params.pause_enabled = true;
  params.pauses_per_video_mean = 10.0;
  params.pause_duration_mean_sec = 0.5;
  Build(params, /*video_seconds=*/20.0);
  ASSERT_TRUE(RunChecked(45.0));
  EXPECT_GT(terminal_->stats().pauses, 2u);
  EXPECT_GT(terminal_->stats().videos_completed, 0u);
}

TEST_F(TerminalFrameWindowTest, GlitchAndReprime) {
  Build();
  fake_->held_blocks.insert(6);
  ASSERT_TRUE(RunChecked(10.0));
  ASSERT_GE(terminal_->stats().glitches, 1u);
  fake_->ReleaseHeld();
  ASSERT_TRUE(RunChecked(14.0));
  EXPECT_EQ(terminal_->state(), Terminal::State::kPlaying);
}

TEST_F(TerminalFrameWindowTest, FinalWindowShorterThanABlock) {
  // 30 s is 900 frames: from frame 0 the last window holds 4 frames, and
  // a jump to 0.3 s before the end leaves 9.
  Build(TerminalParams(), /*video_seconds=*/30.0);
  ASSERT_TRUE(RunChecked(25.0));
  terminal_->JumpTo(library_->video(terminal_->current_video())
                        .duration_seconds() -
                    0.3);
  ASSERT_TRUE(RunChecked(70.0));
  EXPECT_GE(terminal_->stats().videos_completed, 2u);
  EXPECT_EQ(terminal_->stats().glitches, 0u);
}

// Whole simulations for the moves a lone terminal cannot make: patch
// syncs onto a shared stream and session failovers off a dead node.
::testing::AssertionResult RunCheckedSimulation(vod::Simulation* simulation,
                                                double until) {
  for (double t = 0.0; t < until;) {
    t = std::min(until, t + 1.0 / 60.0);
    simulation->env().RunUntil(t);
    for (int i = 0; i < simulation->num_terminals(); ++i) {
      ::testing::AssertionResult ok = CursorMatchesVideo(
          simulation->terminal(i), simulation->library());
      if (!ok) return ok << " at t=" << t;
    }
  }
  return ::testing::AssertionSuccess();
}

std::uint64_t SumOverTerminals(vod::Simulation* simulation,
                               std::uint64_t Terminal::Stats::*field) {
  std::uint64_t sum = 0;
  for (int i = 0; i < simulation->num_terminals(); ++i) {
    sum += simulation->terminal(i).stats().*field;
  }
  return sum;
}

TEST(TerminalFrameWindowSimTest, PatchSyncs) {
  vod::SimConfig config;
  config.num_nodes = 1;
  config.disks_per_node = 2;
  config.video_seconds = 30.0;
  config.videos_per_disk = 4;
  config.server_memory_bytes = 128LL * 1024 * 1024;
  config.start_window_sec = 10.0;
  config.warmup_seconds = 15.0;
  config.measure_seconds = 40.0;
  config.terminals = 40;
  config.piggyback_window_sec = 8.0;
  config.patch_window_sec = 10.0;
  vod::Simulation simulation(config);
  ASSERT_TRUE(RunCheckedSimulation(&simulation, 55.0));
  EXPECT_GT(SumOverTerminals(&simulation, &Terminal::Stats::patch_syncs), 0u);
}

TEST(TerminalFrameWindowSimTest, SessionFailovers) {
  vod::SimConfig config;
  config.num_nodes = 2;
  config.disks_per_node = 2;
  config.video_seconds = 25.0;
  config.server_memory_bytes = 32LL * 1024 * 1024;
  config.terminals = 40;
  config.start_window_sec = 10.0;
  config.warmup_seconds = 15.0;
  config.measure_seconds = 30.0;
  config.placement = vod::VideoPlacement::kReplicatedStriped;
  config.replica_count = 2;
  config.request_retry_budget = 2;
  config.fault_plan.reroute_hop_budget = 0;
  config.fault_plan.script.push_back(
      {20.0, fault::FaultKind::kNodeFail, 1});
  config.fault_plan.script.push_back(
      {40.0, fault::FaultKind::kNodeRecover, 1});
  vod::Simulation simulation(config);
  ASSERT_TRUE(RunCheckedSimulation(&simulation, 45.0));
  EXPECT_GT(
      SumOverTerminals(&simulation, &Terminal::Stats::session_failovers), 0u);
}

}  // namespace
}  // namespace spiffi::client
