// Tests for the §8.1 interactive features: in-video jumps (rewind /
// fast-forward by seek) and skip-based visual search.

#include <memory>
#include <vector>

#include "client/terminal.h"
#include "gtest/gtest.h"
#include "layout/striping.h"
#include "mpeg/zipf.h"

namespace spiffi::client {
namespace {

using server::Message;

// Instant-ish fake server: replies after a fixed delay.
class EchoServer final : public server::NodeDirectory,
                         public server::MessageSink {
 public:
  explicit EchoServer(sim::Environment* env) : env_(env) {}
  server::MessageSink* node_sink(int) override { return this; }
  class Deliver final : public sim::EventHandler {
   public:
    Deliver(Message m, server::MessageSink* sink) : m_(m), sink_(sink) {}
    void OnEvent(std::uint64_t) override { sink_->OnMessage(m_); }

   private:
    Message m_;
    server::MessageSink* sink_;
  };

  void OnMessage(const Message& request) override {
    requests.push_back(request);
    Message reply = request;
    reply.kind = Message::Kind::kReadReply;
    deliveries_.push_back(
        std::make_unique<Deliver>(reply, request.reply_to));
    env_->ScheduleAfter(0.01, deliveries_.back().get());
  }
  std::vector<Message> requests;

 private:
  sim::Environment* env_;
  std::vector<std::unique_ptr<Deliver>> deliveries_;
};

class SearchTest : public ::testing::Test {
 protected:
  static constexpr std::int64_t kBlock = 512 * 1024;

  void Build(TerminalParams params = TerminalParams(),
             double video_seconds = 120.0) {
    mpeg::ZipfDistribution popularity(1, 0.0);
    library_ = std::make_unique<mpeg::VideoLibrary>(
        1, video_seconds, mpeg::MpegParams(), popularity, 1, kBlock);
    layout_ = std::make_unique<layout::StripedLayout>(
        1, 1, kBlock,
        std::vector<std::int64_t>{library_->NumBlocks(0)});
    network_ = std::make_unique<hw::Network>(&env_, hw::NetworkParams());
    fake_ = std::make_unique<EchoServer>(&env_);
    params.random_initial_position = false;
    terminal_ = std::make_unique<Terminal>(
        &env_, 0, params, network_.get(), fake_.get(), library_.get(),
        layout_.get(), sim::Rng(7), 0.0);
  }

  sim::Environment env_;
  std::unique_ptr<mpeg::VideoLibrary> library_;
  std::unique_ptr<layout::StripedLayout> layout_;
  std::unique_ptr<hw::Network> network_;
  std::unique_ptr<EchoServer> fake_;
  std::unique_ptr<Terminal> terminal_;
};

TEST_F(SearchTest, JumpForwardMovesPosition) {
  Build();
  env_.RunUntil(5.0);
  ASSERT_EQ(terminal_->state(), Terminal::State::kPlaying);
  terminal_->JumpTo(60.0);
  EXPECT_EQ(terminal_->state(), Terminal::State::kPriming);
  env_.RunUntil(6.0);
  EXPECT_EQ(terminal_->state(), Terminal::State::kPlaying);
  EXPECT_NEAR(terminal_->PositionSeconds(), 60.0, 2.0);
  EXPECT_EQ(terminal_->stats().glitches, 0u);
}

TEST_F(SearchTest, JumpBackwardRewinds) {
  Build();
  env_.RunUntil(30.0);
  terminal_->JumpTo(5.0);
  env_.RunUntil(31.0);
  EXPECT_EQ(terminal_->state(), Terminal::State::kPlaying);
  EXPECT_NEAR(terminal_->PositionSeconds(), 5.0 + 0.5, 1.5);
}

TEST_F(SearchTest, StaleRepliesAfterJumpAreDiscarded) {
  Build();
  // Jump while the prime requests are still in flight.
  env_.RunUntil(0.005);
  ASSERT_GT(terminal_->inflight_bytes(), 0);
  std::uint64_t before = terminal_->stats().stale_replies;
  terminal_->JumpTo(90.0);  // abandons in-flight requests
  env_.RunUntil(2.0);
  // The abandoned stream had data in flight; its replies were dropped.
  EXPECT_GT(terminal_->stats().stale_replies, before);
  // And the byte accounting stayed consistent: buffer refilled cleanly.
  EXPECT_EQ(terminal_->stats().glitches, 0u);
  EXPECT_GE(terminal_->occupied_bytes(), 0);
  EXPECT_LE(terminal_->occupied_bytes() + terminal_->inflight_bytes(),
            2 * 1024 * 1024);
}

TEST_F(SearchTest, VisualSearchAdvancesFasterThanPlayback) {
  Build();
  env_.RunUntil(5.0);
  double position = terminal_->PositionSeconds();
  terminal_->BeginVisualSearch(/*forward=*/true, /*show=*/1.0,
                               /*skip=*/7.0, /*duration=*/10.0);
  EXPECT_EQ(terminal_->state(), Terminal::State::kSearching);
  env_.RunUntil(20.0);
  // After the search the terminal resumed normal playback well ahead of
  // where 15 s of normal playback would have reached (8x speed-ish).
  EXPECT_EQ(terminal_->state(), Terminal::State::kPlaying);
  EXPECT_GT(terminal_->PositionSeconds(), position + 30.0);
  EXPECT_GT(terminal_->stats().search_segments, 3u);
  EXPECT_GT(terminal_->stats().search_frames, 3u * 25u);
}

TEST_F(SearchTest, VisualSearchReadsOnlyShownSegments) {
  Build();
  env_.RunUntil(5.0);
  std::size_t before = fake_->requests.size();
  terminal_->BeginVisualSearch(true, 1.0, 7.0, 8.0);
  env_.RunUntil(13.5);
  std::size_t during = fake_->requests.size() - before;
  // ~8 s of search at 1-in-8 skip shows ~8 segments of ~1 s => roughly
  // 8-16 block requests; 8 s of normal playback with re-prime would be
  // comparable, but the search covered ~64 s of movie. The key check:
  // far fewer blocks than the covered span (64 blocks).
  EXPECT_LT(during, 30u);
  EXPECT_GE(during, 6u);
}

TEST_F(SearchTest, BackwardSearchRewinds) {
  Build();
  env_.RunUntil(60.0);
  double position = terminal_->PositionSeconds();
  terminal_->BeginVisualSearch(/*forward=*/false, 1.0, 7.0, 10.0);
  env_.RunUntil(75.0);
  EXPECT_EQ(terminal_->state(), Terminal::State::kPlaying);
  EXPECT_LT(terminal_->PositionSeconds(), position - 20.0);
}

TEST_F(SearchTest, ForwardSearchOffTheEndFinishesVideo) {
  Build(TerminalParams(), /*video_seconds=*/30.0);
  env_.RunUntil(20.0);
  std::uint64_t completed = terminal_->stats().videos_completed;
  terminal_->BeginVisualSearch(true, 1.0, 7.0, 60.0);
  env_.RunUntil(28.0);
  // The search hit the end of the 30 s video and the terminal moved on
  // (the library has one video, so it restarted it).
  EXPECT_GT(terminal_->stats().videos_completed, completed);
}

TEST_F(SearchTest, BackwardSearchClampsAtStart) {
  Build();
  env_.RunUntil(10.0);
  terminal_->BeginVisualSearch(false, 1.0, 7.0, 60.0);
  // The rewind runs off the front of the movie after two segments
  // (10 -> 2 -> -6) and resumes normal playback near the beginning.
  env_.RunUntil(14.0);
  EXPECT_EQ(terminal_->state(), Terminal::State::kPlaying);
  EXPECT_LT(terminal_->PositionSeconds(), 6.0);
  EXPECT_EQ(terminal_->stats().glitches, 0u);
}

TEST_F(SearchTest, RandomSearchesViaParamsRun) {
  TerminalParams params;
  params.search_enabled = true;
  params.searches_per_video_mean = 5.0;
  params.search_duration_mean_sec = 5.0;
  Build(params, /*video_seconds=*/60.0);
  env_.RunUntil(120.0);
  EXPECT_GT(terminal_->stats().searches, 0u);
  EXPECT_GT(terminal_->stats().videos_completed, 0u);
  EXPECT_EQ(terminal_->stats().glitches, 0u);
}

}  // namespace
}  // namespace spiffi::client
