#include "client/stream_share.h"

#include "gtest/gtest.h"
#include "sim/process.h"

namespace spiffi::client {
namespace {

TEST(PiggybackTest, ZeroWindowAlwaysLeadsImmediately) {
  sim::Environment env;
  StreamShareManager manager(&env, 0.0);
  auto a = manager.Arrange(1, -1, 0.0, nullptr);
  auto b = manager.Arrange(1, -1, 0.0, nullptr);
  EXPECT_EQ(a.role, StreamShareManager::Role::kLeader);
  EXPECT_EQ(b.role, StreamShareManager::Role::kLeader);
  EXPECT_DOUBLE_EQ(a.start_time, 0.0);
}

TEST(PiggybackTest, SecondRequestInWindowFollows) {
  sim::Environment env;
  StreamShareManager manager(&env, 300.0);
  auto leader = manager.Arrange(5, -1, 0.0, nullptr);
  EXPECT_EQ(leader.role, StreamShareManager::Role::kLeader);
  EXPECT_DOUBLE_EQ(leader.start_time, 300.0);
  auto follower = manager.Arrange(5, -1, 0.0, nullptr);
  EXPECT_EQ(follower.role, StreamShareManager::Role::kFollower);
  EXPECT_DOUBLE_EQ(follower.start_time, 300.0);  // same group start
  EXPECT_EQ(manager.groups_formed(), 1u);
  EXPECT_EQ(manager.followers_attached(), 1u);
}

TEST(PiggybackTest, DifferentVideosFormSeparateGroups) {
  sim::Environment env;
  StreamShareManager manager(&env, 300.0);
  auto a = manager.Arrange(1, -1, 0.0, nullptr);
  auto b = manager.Arrange(2, -1, 0.0, nullptr);
  EXPECT_EQ(a.role, StreamShareManager::Role::kLeader);
  EXPECT_EQ(b.role, StreamShareManager::Role::kLeader);
  EXPECT_EQ(manager.groups_formed(), 2u);
}

TEST(PiggybackTest, GroupClosesAfterWindow) {
  sim::Environment env;
  StreamShareManager manager(&env, 10.0);
  manager.Arrange(3, -1, 0.0, nullptr);  // group starts at t=10
  bool checked = false;
  env.Spawn([](sim::Environment* e, StreamShareManager* m,
               bool* done) -> sim::Process {
    co_await e->Hold(11.0);  // past the group's start time
    auto late = m->Arrange(3, -1, 0.0, nullptr);
    EXPECT_EQ(late.role, StreamShareManager::Role::kLeader);
    EXPECT_DOUBLE_EQ(late.start_time, 21.0);  // now (11) + window (10)
    *done = true;
  }(&env, &manager, &checked));
  env.Run();
  EXPECT_TRUE(checked);
}

TEST(PiggybackTest, JoinAtExactStartTimeStillFollows) {
  sim::Environment env;
  StreamShareManager manager(&env, 10.0);
  manager.Arrange(3, -1, 0.0, nullptr);
  bool checked = false;
  env.Spawn([](sim::Environment* e, StreamShareManager* m,
               bool* done) -> sim::Process {
    co_await e->Hold(10.0);
    auto join = m->Arrange(3, -1, 0.0, nullptr);
    EXPECT_EQ(join.role, StreamShareManager::Role::kFollower);
    *done = true;
  }(&env, &manager, &checked));
  env.Run();
  EXPECT_TRUE(checked);
}

TEST(PiggybackTest, ManyFollowersOneGroup) {
  sim::Environment env;
  StreamShareManager manager(&env, 300.0);
  manager.Arrange(7, -1, 0.0, nullptr);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(manager.Arrange(7, -1, 0.0, nullptr).role,
              StreamShareManager::Role::kFollower);
  }
  EXPECT_EQ(manager.groups_formed(), 1u);
  EXPECT_EQ(manager.followers_attached(), 20u);
}

}  // namespace
}  // namespace spiffi::client
