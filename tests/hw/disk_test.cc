#include "hw/disk.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "sim/environment.h"

namespace spiffi::hw {
namespace {

// Minimal FCFS policy for exercising the disk mechanism in isolation.
class FcfsPolicy final : public DiskScheduler {
 public:
  void Push(DiskRequest* request) override { queue_.push_back(request); }
  DiskRequest* Pop(std::int64_t, sim::SimTime) override {
    DiskRequest* r = queue_.front();
    queue_.pop_front();
    return r;
  }
  bool empty() const override { return queue_.empty(); }
  std::size_t size() const override { return queue_.size(); }
  std::string name() const override { return "fcfs"; }

 private:
  std::deque<DiskRequest*> queue_;
};

class Collector final : public DiskCompletionListener {
 public:
  explicit Collector(sim::Environment* env) : env_(env) {}
  void OnDiskComplete(DiskRequest* request) override {
    completions.push_back({request, env_->now()});
  }
  std::vector<std::pair<DiskRequest*, double>> completions;

 private:
  sim::Environment* env_;
};

class DiskTest : public ::testing::Test {
 protected:
  void Build(DiskParams params = DiskParams()) {
    params_ = params;
    collector_ = std::make_unique<Collector>(&env_);
    disk_ = std::make_unique<Disk>(&env_, params_,
                                   std::make_unique<FcfsPolicy>(), 0,
                                   collector_.get());
  }

  DiskRequest MakeRequest(std::int64_t offset, std::int64_t bytes,
                          std::int64_t video = 0,
                          std::int64_t block = 0) {
    DiskRequest r;
    r.video = video;
    r.block = block;
    r.disk_offset = offset;
    r.bytes = bytes;
    return r;
  }

  // Keeps late-submitted requests alive for the whole test.
  DiskRequest* Own(DiskRequest request) {
    owned_.push_back(std::make_unique<DiskRequest>(request));
    return owned_.back().get();
  }

  sim::Environment env_;
  DiskParams params_;
  std::unique_ptr<Collector> collector_;
  std::unique_ptr<Disk> disk_;
  std::vector<std::unique_ptr<DiskRequest>> owned_;
};

TEST_F(DiskTest, ZeroSeekWhenSameCylinder) {
  Build();
  // Head starts at cylinder 0; a read at offset 0 needs no seek.
  double t = disk_->ServiceTimeFrom(0, 0.0, 0, 64 * kKiB, 0);
  double transfer = 64.0 * kKiB / params_.transfer_rate_bytes_per_sec;
  // Only rotation (at most one revolution) plus transfer.
  EXPECT_GE(t, transfer);
  EXPECT_LE(t, transfer + params_.rotation_time_ms * 1e-3 + 1e-12);
}

TEST_F(DiskTest, SeekTimeGrowsWithDistance) {
  Build();
  double near = params_.SeekTimeSeconds(10);
  double far = params_.SeekTimeSeconds(1000);
  EXPECT_GT(far, near);
  // sqrt model: quadrupling distance doubles the non-settle part.
  double base = params_.settle_time_ms * 1e-3;
  EXPECT_NEAR((far - base) / (near - base), 10.0, 1e-9);
}

TEST_F(DiskTest, FullStrokeSeekMatchesDataSheetOrder) {
  Build();
  // ~5600-cylinder stroke should be around 22 ms for the ST15150N.
  double t = params_.SeekTimeSeconds(5600);
  EXPECT_GT(t, 0.018);
  EXPECT_LT(t, 0.025);
}

TEST_F(DiskTest, CompletionDeliveredAfterServiceTime) {
  Build();
  DiskRequest r = MakeRequest(0, 512 * kKiB);
  disk_->Submit(&r);
  env_.Run();
  ASSERT_EQ(collector_->completions.size(), 1u);
  double done = collector_->completions[0].second;
  double transfer = 512.0 * kKiB / params_.transfer_rate_bytes_per_sec;
  EXPECT_GE(done, transfer);  // at least the media transfer time
  EXPECT_LT(done, transfer + 0.05);  // plus bounded positioning
}

TEST_F(DiskTest, RequestsServicedSequentially) {
  Build();
  DiskRequest a = MakeRequest(0, 512 * kKiB, 0, 0);
  DiskRequest b = MakeRequest(100 * params_.cylinder_bytes, 512 * kKiB, 1, 0);
  disk_->Submit(&a);
  disk_->Submit(&b);
  env_.Run();
  ASSERT_EQ(collector_->completions.size(), 2u);
  EXPECT_EQ(collector_->completions[0].first, &a);
  EXPECT_EQ(collector_->completions[1].first, &b);
  EXPECT_GT(collector_->completions[1].second,
            collector_->completions[0].second);
}

TEST_F(DiskTest, HeadPositionPersistsAcrossRequests) {
  Build();
  DiskRequest a = MakeRequest(500 * params_.cylinder_bytes, 128 * kKiB);
  disk_->Submit(&a);
  env_.Run();
  EXPECT_EQ(disk_->head_cylinder(), 500);
}

TEST_F(DiskTest, TransferSpanningCylindersAddsSettle) {
  Build();
  // 4 cylinders' worth of data starting at a cylinder boundary crosses
  // 3 boundaries.
  std::int64_t bytes = 4 * params_.cylinder_bytes;
  double t0 = disk_->ServiceTimeFrom(0, 0.0, 0, params_.cylinder_bytes, 0);
  double t1 = disk_->ServiceTimeFrom(0, 0.0, 0, bytes, 0);
  double extra_transfer = 3.0 * params_.cylinder_bytes /
                          params_.transfer_rate_bytes_per_sec;
  double extra_settle = 3.0 * params_.settle_time_ms * 1e-3;
  EXPECT_NEAR(t1 - t0, extra_transfer + extra_settle, 1e-9);
}

TEST_F(DiskTest, IdleDiskCreditsReadAheadForSequentialStream) {
  Build();
  DiskRequest a = MakeRequest(0, 512 * kKiB, /*video=*/7, /*block=*/0);
  disk_->Submit(&a);
  env_.Run();
  EXPECT_EQ(disk_->cache_hit_bytes(), 0u);

  // Long idle gap, then the sequential continuation: up to one cache
  // context (128 KB) should be credited.
  env_.Spawn([](sim::Environment* env, Disk* disk,
                DiskRequest* r) -> sim::Process {
    co_await env->Hold(1.0);
    disk->Submit(r);
  }(&env_, disk_.get(), Own(MakeRequest(512 * kKiB, 512 * kKiB, 7, 16))));
  env_.Run();
  EXPECT_EQ(disk_->cache_hit_bytes(),
            static_cast<std::uint64_t>(params_.cache_context_bytes));
}

TEST_F(DiskTest, BusyDiskGetsNoReadAhead) {
  Build();
  // Back-to-back sequential requests: no idle time, no cache credit.
  DiskRequest a = MakeRequest(0, 512 * kKiB, 7, 0);
  DiskRequest b = MakeRequest(512 * kKiB, 512 * kKiB, 7, 16);
  disk_->Submit(&a);
  disk_->Submit(&b);
  env_.Run();
  EXPECT_EQ(disk_->cache_hit_bytes(), 0u);
}

TEST_F(DiskTest, NonSequentialStreamGetsNoReadAhead) {
  Build();
  DiskRequest a = MakeRequest(0, 512 * kKiB, 7, 0);
  disk_->Submit(&a);
  env_.Run();
  env_.Spawn([](sim::Environment* env, Disk* disk,
                DiskRequest* r) -> sim::Process {
    co_await env->Hold(1.0);
    disk->Submit(r);
  }(&env_, disk_.get(),
        Own(MakeRequest(64 * kMiB, 512 * kKiB, 8, 3))));
  env_.Run();
  EXPECT_EQ(disk_->cache_hit_bytes(), 0u);
}

TEST_F(DiskTest, UtilizationReflectsBusyTime) {
  Build();
  DiskRequest a = MakeRequest(0, 512 * kKiB);
  disk_->Submit(&a);
  env_.Run();
  double service = collector_->completions[0].second;
  // Run further idle time, utilization halves.
  env_.RunUntil(2.0 * service);
  EXPECT_NEAR(disk_->AverageUtilization(env_.now()), 0.5, 1e-9);
}

TEST_F(DiskTest, RotationalDelayIsDeterministicAndBounded) {
  Build();
  double rotation = params_.rotation_time_ms * 1e-3;
  double t1 = disk_->ServiceTimeFrom(0, 0.123, 0, 64 * kKiB, 0);
  double t2 = disk_->ServiceTimeFrom(0, 0.123, 0, 64 * kKiB, 0);
  EXPECT_DOUBLE_EQ(t1, t2);  // pure function of inputs
  double transfer = 64.0 * kKiB / params_.transfer_rate_bytes_per_sec;
  EXPECT_LT(t1 - transfer, rotation + 1e-12);
}

TEST_F(DiskTest, CachedBytesSkipMechanicalPath) {
  Build();
  std::int64_t bytes = 512 * kKiB;
  double uncached = disk_->ServiceTimeFrom(100, 0.0, 200 * params_.cylinder_bytes,
                                           bytes, 0);
  double fully_cached = disk_->ServiceTimeFrom(
      100, 0.0, 200 * params_.cylinder_bytes, bytes, bytes);
  EXPECT_NEAR(fully_cached,
              static_cast<double>(bytes) / params_.transfer_rate_bytes_per_sec,
              1e-12);
  EXPECT_GT(uncached, fully_cached);
}

// Pins the service loop's exact event sequence across its three ways of
// waiting: a burst to an idle disk (one wakeup, the rest picked without
// suspending), a failure with reads queued and more arriving while down,
// and an arrival to a disk that failed while idle.
TEST_F(DiskTest, HandoffSequenceThroughBurstFailureAndRecovery) {
  Build();
  // Distinct videos far apart: no read-ahead credit, every read seeks.
  std::vector<DiskRequest*> reads;
  for (int i = 0; i < 9; ++i) {
    reads.push_back(Own(MakeRequest((i * 7 % 9) * 300 * params_.cylinder_bytes,
                                    256 * kKiB, /*video=*/i)));
  }
  env_.Spawn([](sim::Environment* env, Disk* disk,
                std::vector<DiskRequest*> r) -> sim::Process {
    for (int i = 0; i < 3; ++i) disk->Submit(r[i]);
    co_await env->Hold(1.0);
    disk->Submit(r[3]);
    co_await env->Hold(0.001);  // r[3] in service, two queued behind it
    disk->Submit(r[4]);
    disk->Submit(r[5]);
    disk->SetFailed(true);
    co_await env->Hold(0.5);
    disk->Submit(r[6]);
    disk->Submit(r[7]);
    co_await env->Hold(0.5);
    disk->SetFailed(false);
    co_await env->Hold(1.0);  // queue drained, loop idle
    disk->SetFailed(true);
    disk->Submit(r[8]);
    co_await env->Hold(0.25);
    disk->SetFailed(false);
  }(&env_, disk_.get(), reads));
  env_.Run();

  // Replays the loop's arithmetic: FCFS picks at max(free, available).
  const double first_recovery = 1.0 + 0.001 + 0.5 + 0.5;
  const double second_recovery = first_recovery + 1.0 + 0.25;
  const double available[] = {0.0, 0.0, 0.0, 1.0, first_recovery,
                              first_recovery, first_recovery,
                              first_recovery, second_recovery};
  ASSERT_EQ(collector_->completions.size(), reads.size());
  std::int64_t head = 0;
  double free_at = 0.0;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const DiskRequest& r = *reads[i];
    const double start = std::max(free_at, available[i]);
    free_at = start + disk_->ServiceTimeFrom(head, start, r.disk_offset,
                                             r.bytes, 0);
    head = (r.disk_offset + r.bytes - 1) / params_.cylinder_bytes;
    EXPECT_EQ(collector_->completions[i].first, reads[i]) << i;
    EXPECT_DOUBLE_EQ(collector_->completions[i].second, free_at) << i;
  }
  EXPECT_EQ(disk_->cache_hit_bytes(), 0u);
  // 2 process starts + 6 script holds + 9 services + 5 loop wakeups
  // (the two arrivals to an idle loop, r[8]'s arrival while down, and
  // the two recoveries); reads that find the loop busy add none.
  EXPECT_EQ(env_.events_fired(), 22u);
}

}  // namespace
}  // namespace spiffi::hw
