// End-to-end behaviour of deadline-driven scheduling through a whole
// node: urgent requests overtake lazy ones on the disk, and deadline
// boosts from attaching requests take effect.

#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "layout/striping.h"
#include "mpeg/zipf.h"
#include "server/node.h"

namespace spiffi::server {
namespace {

class ReplyLog final : public MessageSink {
 public:
  explicit ReplyLog(sim::Environment* env) : env_(env) {}
  void OnMessage(const Message& message) override {
    replies.push_back({message.block, env_->now()});
  }
  std::vector<std::pair<std::int64_t, double>> replies;

 private:
  sim::Environment* env_;
};

class RealTimeE2eTest : public ::testing::Test {
 protected:
  static constexpr std::int64_t kBlock = 512 * 1024;

  void Build(DiskSchedPolicy policy) {
    mpeg::ZipfDistribution popularity(2, 0.0);
    library_ = std::make_unique<mpeg::VideoLibrary>(
        2, 120.0, mpeg::MpegParams(), popularity, 1, kBlock);
    std::vector<std::int64_t> blocks;
    for (int v = 0; v < 2; ++v) {
      blocks.push_back(library_->NumBlocks(v));
    }
    // One node, ONE disk so everything contends on one arm.
    layout_ = std::make_unique<layout::StripedLayout>(1, 1, kBlock,
                                                      std::move(blocks));
    network_ = std::make_unique<hw::Network>(&env_, hw::NetworkParams());
    NodeConfig config;
    config.disks_per_node = 1;
    config.sched.policy = policy;
    config.sched.realtime_classes = 3;
    config.sched.realtime_spacing_sec = 2.0;
    config.prefetch = PrefetchPolicy::kNone;
    node_ = std::make_unique<Node>(&env_, config, network_.get(),
                                   library_.get(), layout_.get());
    log_ = std::make_unique<ReplyLog>(&env_);
  }

  void SendRead(std::int64_t block, double deadline, int terminal) {
    Message request;
    request.kind = Message::Kind::kReadRequest;
    request.terminal = terminal;
    request.video = 0;
    request.block = block;
    request.deadline = deadline;
    request.reply_to = log_.get();
    PostMessage(&env_, network_.get(), kControlMessageBytes, node_.get(),
                request);
  }

  sim::Environment env_;
  std::unique_ptr<mpeg::VideoLibrary> library_;
  std::unique_ptr<layout::StripedLayout> layout_;
  std::unique_ptr<hw::Network> network_;
  std::unique_ptr<Node> node_;
  std::unique_ptr<ReplyLog> log_;
};

TEST_F(RealTimeE2eTest, UrgentRequestOvertakesLazyOnes) {
  Build(DiskSchedPolicy::kRealTime);
  // Ten lazy requests spread over the disk, then one urgent request to a
  // far cylinder. With real-time scheduling the urgent one is serviced
  // as soon as the in-progress read finishes.
  for (int i = 0; i < 10; ++i) {
    SendRead(/*block=*/i * 10, /*deadline=*/60.0, /*terminal=*/i);
  }
  SendRead(/*block=*/95, /*deadline=*/0.3, /*terminal=*/99);
  env_.Run();
  ASSERT_EQ(log_->replies.size(), 11u);
  // The urgent block (95) is among the first two replies (it may just
  // miss the head of the first service).
  bool urgent_early = log_->replies[0].first == 95 ||
                      log_->replies[1].first == 95;
  EXPECT_TRUE(urgent_early);
}

TEST_F(RealTimeE2eTest, FcfsDoesNotReorderForDeadlines) {
  Build(DiskSchedPolicy::kFcfs);
  for (int i = 0; i < 10; ++i) {
    SendRead(i * 10, 60.0, i);
  }
  SendRead(95, 0.3, 99);
  env_.Run();
  ASSERT_EQ(log_->replies.size(), 11u);
  // FCFS serves in arrival order: the urgent request is last.
  EXPECT_EQ(log_->replies.back().first, 95);
}

TEST_F(RealTimeE2eTest, AttachBoostAcceleratesSharedRead) {
  Build(DiskSchedPolicy::kRealTime);
  // Fill the disk queue with lazy work, then request block 90 lazily and
  // attach to it urgently: the shared read must jump the queue.
  for (int i = 0; i < 10; ++i) {
    SendRead(i * 10 + 1, 60.0, i);
  }
  SendRead(90, 60.0, 50);   // lazy original
  SendRead(90, 0.3, 51);    // urgent attacher boosts the pending read
  env_.Run();
  ASSERT_EQ(log_->replies.size(), 12u);
  // Block 90 replies (two of them) appear within the first four replies.
  int position_of_shared = 0;
  for (std::size_t i = 0; i < log_->replies.size(); ++i) {
    if (log_->replies[i].first == 90) {
      position_of_shared = static_cast<int>(i);
      break;
    }
  }
  EXPECT_LT(position_of_shared, 4);
}

TEST_F(RealTimeE2eTest, PastDueRequestsAreMostUrgent) {
  Build(DiskSchedPolicy::kRealTime);
  for (int i = 0; i < 6; ++i) {
    SendRead(i * 10, 3.0, i);  // class 1 at t=0
  }
  SendRead(77, -1.0, 9);  // already past due -> class 0
  env_.Run();
  ASSERT_EQ(log_->replies.size(), 7u);
  bool past_due_early =
      log_->replies[0].first == 77 || log_->replies[1].first == 77;
  EXPECT_TRUE(past_due_early);
}

}  // namespace
}  // namespace spiffi::server
