// Layout interface conformance: invariants every Layout implementation
// must satisfy, run against striped, non-striped, and replicated-striped
// layouts through one parameterized suite. New layouts join by adding a
// factory to the instantiation list.

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "layout/layout.h"
#include "layout/nonstriped.h"
#include "layout/replicated.h"
#include "layout/striping.h"

namespace spiffi::layout {
namespace {

constexpr int kNodes = 2;
constexpr int kDisksPerNode = 2;
constexpr int kVideos = 8;  // divisible by total disks (non-striped)
constexpr std::int64_t kBlocksPerVideo = 40;
constexpr std::int64_t kStripe = 512 * 1024;

struct LayoutCase {
  std::string name;
  std::unique_ptr<Layout> (*make)();
};

std::unique_ptr<Layout> MakeStriped() {
  return std::make_unique<StripedLayout>(
      kNodes, kDisksPerNode, kStripe,
      std::vector<std::int64_t>(kVideos, kBlocksPerVideo));
}

std::unique_ptr<Layout> MakeNonStriped() {
  return std::make_unique<NonStripedLayout>(
      kNodes, kDisksPerNode, kStripe,
      std::vector<std::int64_t>(kVideos, kBlocksPerVideo * kStripe),
      /*seed=*/17);
}

std::unique_ptr<Layout> MakeReplicated() {
  return std::make_unique<ReplicatedStripedLayout>(
      kNodes, kDisksPerNode, kStripe,
      std::vector<std::int64_t>(kVideos, kBlocksPerVideo),
      /*replicas=*/2);
}

class LayoutConformanceTest : public testing::TestWithParam<LayoutCase> {
 protected:
  void SetUp() override { layout_ = GetParam().make(); }
  std::unique_ptr<Layout> layout_;
};

TEST_P(LayoutConformanceTest, ReportsTheConstructedTopology) {
  EXPECT_EQ(layout_->num_nodes(), kNodes);
  EXPECT_EQ(layout_->disks_per_node(), kDisksPerNode);
  EXPECT_EQ(layout_->total_disks(), kNodes * kDisksPerNode);
  EXPECT_GE(layout_->replica_count(), 1);
}

TEST_P(LayoutConformanceTest, LocationsAreInternallyConsistent) {
  for (int v = 0; v < kVideos; ++v) {
    for (std::int64_t b = 0; b < kBlocksPerVideo; ++b) {
      BlockLocation loc = layout_->Locate(v, b);
      EXPECT_GE(loc.node, 0);
      EXPECT_LT(loc.node, kNodes);
      EXPECT_GE(loc.disk_local, 0);
      EXPECT_LT(loc.disk_local, kDisksPerNode);
      EXPECT_EQ(loc.disk_global, loc.node * kDisksPerNode + loc.disk_local);
      EXPECT_GE(loc.offset, 0);
      EXPECT_EQ(loc.offset % kStripe, 0);  // block-aligned
      EXPECT_EQ(layout_->Locate(v, b), loc);  // pure function of (v, b)
    }
  }
}

TEST_P(LayoutConformanceTest, DistinctBlocksNeverShareDiskAndOffset) {
  std::set<std::pair<int, std::int64_t>> placed;
  for (int v = 0; v < kVideos; ++v) {
    for (std::int64_t b = 0; b < kBlocksPerVideo; ++b) {
      BlockLocation loc = layout_->Locate(v, b);
      EXPECT_TRUE(placed.insert({loc.disk_global, loc.offset}).second)
          << "video " << v << " block " << b << " overlaps another block";
    }
  }
}

TEST_P(LayoutConformanceTest, NextBlockOnSameDiskIsForwardAndOnThatDisk) {
  for (int v = 0; v < kVideos; ++v) {
    for (std::int64_t b = 0; b < kBlocksPerVideo; ++b) {
      std::int64_t next = layout_->NextBlockOnSameDisk(v, b);
      if (next < 0) continue;  // no successor: allowed
      EXPECT_GT(next, b);
      EXPECT_LT(next, kBlocksPerVideo);
      EXPECT_EQ(layout_->Locate(v, next).disk_global,
                layout_->Locate(v, b).disk_global);
      // ...and it is the NEXT one: nothing between them on that disk.
      for (std::int64_t between = b + 1; between < next; ++between) {
        EXPECT_NE(layout_->Locate(v, between).disk_global,
                  layout_->Locate(v, b).disk_global);
      }
    }
  }
}

TEST_P(LayoutConformanceTest, ReplicasListPrimaryFirstAndDistinctDisks) {
  for (int v = 0; v < kVideos; ++v) {
    for (std::int64_t b = 0; b < kBlocksPerVideo; b += 5) {
      std::vector<BlockLocation> copies = layout_->Replicas(v, b);
      ASSERT_EQ(copies.size(),
                static_cast<std::size_t>(layout_->replica_count()));
      EXPECT_EQ(copies[0], layout_->Locate(v, b));
      std::set<int> disks;
      for (const BlockLocation& loc : copies) {
        EXPECT_GE(loc.node, 0);
        EXPECT_LT(loc.node, kNodes);
        EXPECT_EQ(loc.disk_global,
                  loc.node * kDisksPerNode + loc.disk_local);
        disks.insert(loc.disk_global);
      }
      // Copies exist to survive a disk loss: they must not share one.
      EXPECT_EQ(disks.size(), copies.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, LayoutConformanceTest,
    testing::Values(LayoutCase{"striped", MakeStriped},
                    LayoutCase{"nonstriped", MakeNonStriped},
                    LayoutCase{"replicated", MakeReplicated}),
    [](const testing::TestParamInfo<LayoutCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace spiffi::layout
