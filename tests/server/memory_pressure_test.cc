// Node behaviour when the buffer pool is nearly exhausted: requests must
// stall on page allocation and drain without deadlock, and the stall
// statistics must record it.

#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "layout/striping.h"
#include "mpeg/zipf.h"
#include "server/node.h"

namespace spiffi::server {
namespace {

class CountingSink final : public MessageSink {
 public:
  void OnMessage(const Message&) override { ++replies; }
  int replies = 0;
};

class MemoryPressureTest : public ::testing::Test {
 protected:
  static constexpr std::int64_t kBlock = 512 * 1024;

  void Build(std::int64_t pool_pages, PrefetchPolicy prefetch) {
    mpeg::ZipfDistribution popularity(4, 0.0);
    library_ = std::make_unique<mpeg::VideoLibrary>(
        4, 120.0, mpeg::MpegParams(), popularity, 1, kBlock);
    std::vector<std::int64_t> blocks;
    for (int v = 0; v < 4; ++v) {
      blocks.push_back(library_->NumBlocks(v));
    }
    layout_ = std::make_unique<layout::StripedLayout>(1, 2, kBlock,
                                                      std::move(blocks));
    network_ = std::make_unique<hw::Network>(&env_, hw::NetworkParams());
    NodeConfig config;
    config.disks_per_node = 2;
    config.pool_pages = pool_pages;
    config.prefetch = prefetch;
    config.prefetch_workers = 4;
    node_ = std::make_unique<Node>(&env_, config, network_.get(),
                                   library_.get(), layout_.get());
  }

  void SendRead(int video, std::int64_t block, int terminal) {
    Message request;
    request.kind = Message::Kind::kReadRequest;
    request.terminal = terminal;
    request.video = video;
    request.block = block;
    request.deadline = 100.0;
    request.reply_to = &sink_;
    PostMessage(&env_, network_.get(), kControlMessageBytes, node_.get(),
                request);
  }

  sim::Environment env_;
  std::unique_ptr<mpeg::VideoLibrary> library_;
  std::unique_ptr<layout::StripedLayout> layout_;
  std::unique_ptr<hw::Network> network_;
  std::unique_ptr<Node> node_;
  CountingSink sink_;
};

TEST_F(MemoryPressureTest, BurstLargerThanPoolDrainsCompletely) {
  Build(/*pool_pages=*/4, PrefetchPolicy::kNone);
  // 32 distinct blocks, only 4 pages: most requests must wait for pages.
  for (int i = 0; i < 32; ++i) {
    SendRead(i % 4, (i / 4) * 2, /*terminal=*/i);
  }
  env_.Run();
  EXPECT_EQ(sink_.replies, 32);
  EXPECT_GT(node_->pool().stats().allocation_stalls, 0u);
  EXPECT_GT(node_->pool().stats().evictions, 0u);
}

TEST_F(MemoryPressureTest, PrefetchDoesNotDeadlockTinyPool) {
  Build(/*pool_pages=*/3, PrefetchPolicy::kFifo);
  for (int i = 0; i < 16; ++i) {
    SendRead(i % 4, 0, i);
    SendRead(i % 4, 1, i);
  }
  env_.Run();
  EXPECT_EQ(sink_.replies, 32);
}

TEST_F(MemoryPressureTest, SharingStillWorksUnderPressure) {
  Build(/*pool_pages=*/4, PrefetchPolicy::kNone);
  // Many terminals hammer the same block: one disk read, many replies.
  for (int t = 0; t < 20; ++t) SendRead(0, 0, t);
  env_.Run();
  EXPECT_EQ(sink_.replies, 20);
  EXPECT_EQ(node_->pool().stats().misses, 1u);
  EXPECT_EQ(node_->pool().stats().attaches + node_->pool().stats().hits,
            19u);
}

TEST_F(MemoryPressureTest, StallsClearOnceLoadPasses) {
  Build(/*pool_pages=*/4, PrefetchPolicy::kNone);
  for (int i = 0; i < 16; ++i) SendRead(i % 4, i % 3, i);
  env_.Run();
  int first_wave = sink_.replies;
  EXPECT_EQ(first_wave, 16);
  // A later request proceeds normally.
  SendRead(0, 4, 99);
  env_.Run();
  EXPECT_EQ(sink_.replies, 17);
}

}  // namespace
}  // namespace spiffi::server
