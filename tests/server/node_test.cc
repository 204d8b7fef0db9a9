// Integration tests for a single server node: buffer pool, disk path,
// prefetching, and the reply protocol, driven by a fake terminal.

#include "server/node.h"

#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "layout/striping.h"
#include "mpeg/zipf.h"
#include "server/message.h"

namespace spiffi::server {
namespace {

class FakeTerminal final : public MessageSink {
 public:
  explicit FakeTerminal(sim::Environment* env) : env_(env) {}
  void OnMessage(const Message& message) override {
    replies.push_back({message, env_->now()});
  }
  std::vector<std::pair<Message, double>> replies;

 private:
  sim::Environment* env_;
};

class NodeTest : public ::testing::Test {
 protected:
  static constexpr std::int64_t kBlock = 512 * 1024;

  void Build(NodeConfig config = NodeConfig()) {
    mpeg::ZipfDistribution popularity(4, 1.0);
    library_ = std::make_unique<mpeg::VideoLibrary>(
        4, /*duration=*/120.0, mpeg::MpegParams(), popularity, 1, kBlock);
    std::vector<std::int64_t> blocks;
    for (int v = 0; v < 4; ++v) {
      blocks.push_back(library_->NumBlocks(v));
    }
    // One node, two disks.
    layout_ = std::make_unique<layout::StripedLayout>(1, 2, kBlock,
                                                      std::move(blocks));
    network_ = std::make_unique<hw::Network>(&env_, hw::NetworkParams());
    config.id = 0;
    config.disks_per_node = 2;
    node_ = std::make_unique<Node>(&env_, config, network_.get(),
                                   library_.get(), layout_.get());
    terminal_ = std::make_unique<FakeTerminal>(&env_);
  }

  void SendRead(int video, std::int64_t block, double deadline = 100.0,
                int terminal_id = 1) {
    Message request;
    request.kind = Message::Kind::kReadRequest;
    request.terminal = terminal_id;
    request.video = video;
    request.block = block;
    request.deadline = deadline;
    request.reply_to = terminal_.get();
    PostMessage(&env_, network_.get(), kControlMessageBytes, node_.get(),
                request);
  }

  sim::Environment env_;
  std::unique_ptr<mpeg::VideoLibrary> library_;
  std::unique_ptr<layout::StripedLayout> layout_;
  std::unique_ptr<hw::Network> network_;
  std::unique_ptr<Node> node_;
  std::unique_ptr<FakeTerminal> terminal_;
};

TEST_F(NodeTest, MissReadsFromDiskAndReplies) {
  Build();
  SendRead(0, 0);
  env_.Run();
  ASSERT_EQ(terminal_->replies.size(), 1u);
  const Message& reply = terminal_->replies[0].first;
  EXPECT_EQ(reply.kind, Message::Kind::kReadReply);
  EXPECT_EQ(reply.video, 0);
  EXPECT_EQ(reply.block, 0);
  EXPECT_EQ(reply.bytes, kBlock);
  EXPECT_EQ(node_->pool().stats().misses, 1u);
  // The reply took at least one disk transfer.
  EXPECT_GT(terminal_->replies[0].second,
            static_cast<double>(kBlock) /
                node_->disk(0).params().transfer_rate_bytes_per_sec);
}

TEST_F(NodeTest, SecondReferenceHitsBufferPool) {
  Build();
  SendRead(0, 0, 100.0, /*terminal=*/1);
  env_.Run();  // runs until idle (including the chained prefetch)
  double second_sent_at = env_.now();
  SendRead(0, 0, 100.0, /*terminal=*/2);
  env_.Run();
  ASSERT_EQ(terminal_->replies.size(), 2u);
  EXPECT_EQ(node_->pool().stats().hits, 1u);
  EXPECT_EQ(node_->pool().stats().shared_refs, 1u);
  // The hit is served without a second disk read: much faster.
  double hit_latency = terminal_->replies[1].second - second_sent_at;
  EXPECT_LT(hit_latency, 0.05);
}

TEST_F(NodeTest, ConcurrentRequestsForSameBlockShareOneDiskRead) {
  Build();
  SendRead(0, 0, 100.0, 1);
  SendRead(0, 0, 100.0, 2);
  SendRead(0, 0, 100.0, 3);
  env_.Run();
  EXPECT_EQ(terminal_->replies.size(), 3u);
  const auto& stats = node_->pool().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.attaches, 2u);
  // Only one demand read hit the disk (plus possibly a prefetch).
  std::uint64_t served =
      node_->disk(0).requests_served() + node_->disk(1).requests_served();
  EXPECT_LE(served, 2u);
}

TEST_F(NodeTest, AttachBoostsInflightDeadline) {
  NodeConfig config;
  config.sched.policy = DiskSchedPolicy::kRealTime;
  config.prefetch = PrefetchPolicy::kNone;
  Build(config);
  SendRead(0, 0, /*deadline=*/100.0, 1);
  SendRead(0, 0, /*deadline=*/0.5, 2);  // urgent attach
  // Run just far enough for both to be processed; inspect the in-flight
  // request's deadline via the pool.
  env_.RunUntil(0.02);
  BufferPool::Page* page =
      node_->pool().Lookup(PageKey{0, 0});
  ASSERT_NE(page, nullptr);
  if (page->io_in_flight && page->inflight_request != nullptr) {
    EXPECT_DOUBLE_EQ(page->inflight_request->deadline, 0.5);
  }
  env_.Run();
  EXPECT_EQ(terminal_->replies.size(), 2u);
}

TEST_F(NodeTest, OnMissTriggerPrefetchesNextBlockOnSameDisk) {
  NodeConfig config;
  config.prefetch = PrefetchPolicy::kFifo;
  config.prefetch_trigger = PrefetchTrigger::kOnMiss;
  Build(config);
  SendRead(0, 0);
  env_.Run();
  // Next block on the same disk is block 2 (1 node x 2 disks -> width 2).
  BufferPool::Page* prefetched = node_->pool().Lookup(PageKey{0, 2});
  ASSERT_NE(prefetched, nullptr);
  EXPECT_TRUE(prefetched->valid);
  EXPECT_TRUE(prefetched->prefetched);
  // And block 1 (other disk) was not prefetched.
  EXPECT_EQ(node_->pool().Lookup(PageKey{0, 1}), nullptr);
}

TEST_F(NodeTest, OnReferenceTriggerPrefetchesOnHitsToo) {
  NodeConfig config;
  config.prefetch = PrefetchPolicy::kFifo;
  config.prefetch_trigger = PrefetchTrigger::kOnReference;
  Build(config);
  SendRead(0, 0);
  env_.Run();
  ASSERT_NE(node_->pool().Lookup(PageKey{0, 2}), nullptr);
  // A later hit on block 2 chains a prefetch of block 4.
  SendRead(0, 2);
  env_.Run();
  EXPECT_NE(node_->pool().Lookup(PageKey{0, 4}), nullptr);
}

TEST_F(NodeTest, OnMissTriggerDoesNotChainFromHits) {
  NodeConfig config;
  config.prefetch = PrefetchPolicy::kFifo;
  config.prefetch_trigger = PrefetchTrigger::kOnMiss;
  Build(config);
  SendRead(0, 0);
  env_.Run();
  SendRead(0, 2);  // hits the prefetched page
  env_.Run();
  EXPECT_EQ(node_->pool().Lookup(PageKey{0, 4}), nullptr);
}

TEST_F(NodeTest, NoPrefetchPastEndOfVideo) {
  NodeConfig config;
  config.prefetch = PrefetchPolicy::kFifo;
  Build(config);
  std::int64_t last = library_->NumBlocks(0) - 1;
  SendRead(0, last);
  env_.Run();
  EXPECT_EQ(terminal_->replies.size(), 1u);
  // Nothing beyond the video was prefetched (no crash either).
}

TEST_F(NodeTest, LastBlockReplyIsShort) {
  Build();
  std::int64_t last = library_->NumBlocks(0) - 1;
  SendRead(0, last);
  env_.Run();
  ASSERT_EQ(terminal_->replies.size(), 1u);
  std::int64_t expected =
      library_->video(0).total_bytes() - last * kBlock;
  EXPECT_EQ(terminal_->replies[0].first.bytes, expected);
}

TEST_F(NodeTest, CpuCostsAreCharged) {
  NodeConfig config;
  config.prefetch = PrefetchPolicy::kNone;
  Build(config);
  SendRead(0, 0);
  env_.Run();
  // receive + start I/O + send = 2200 + 20000 + 6800 instructions at
  // 40 MIPS = 0.725 ms of CPU busy time.
  double busy = node_->cpu().service_tally().sum();
  EXPECT_NEAR(busy, 29000.0 / 40e6, 1e-9);
}

TEST_F(NodeTest, RequestsSpreadAcrossDisks) {
  NodeConfig config;
  config.prefetch = PrefetchPolicy::kNone;
  Build(config);
  SendRead(0, 0);  // disk 0
  SendRead(0, 1);  // disk 1
  SendRead(0, 2);  // disk 0
  env_.Run();
  EXPECT_EQ(node_->disk(0).requests_served(), 2u);
  EXPECT_EQ(node_->disk(1).requests_served(), 1u);
}

TEST_F(NodeTest, ResetStatsClearsCounters) {
  Build();
  SendRead(0, 0);
  env_.Run();
  node_->ResetStats(env_.now());
  EXPECT_EQ(node_->pool().stats().references, 0u);
  EXPECT_EQ(node_->disk(0).requests_served(), 0u);
}

}  // namespace
}  // namespace spiffi::server
