// Stream sharing between terminals watching the same movie.
//
// Generalizes the paper's §8.2 piggybacking stub into a service tier
// with three cooperating mechanisms:
//
//  * Batching: when a terminal asks to start a video, the manager may
//    delay the start by up to `window_sec` (the subscriber watches
//    commercials). Other terminals requesting the same video before the
//    delayed start join the group as followers: they are fed from the
//    leader's stream and place no load of their own on the server.
//
//  * Patching: a terminal arriving up to `patch_window_sec` AFTER the
//    group's stream has started joins anyway. It starts displaying
//    immediately, fetching only the prefix it missed over a short
//    unicast catch-up stream; once its display reaches the join offset
//    the unicast stream ends and the terminal rides the shared stream
//    (buffering it from the join point on). Its display timeline stays
//    shifted by the join offset, so it finishes that much later than
//    the group.
//
//  * Leader handoff: a group records its members in join order. When
//    the leader departs (pause, jump, visual search), leadership passes
//    deterministically to the first exact-mirror follower, which starts
//    a real stream at the current group position; the rest of the group
//    keeps following. With no mirror left the group disbands and every
//    remaining member converts to a private stream at its own position.
//
// Groups carry deterministic ids (a per-manager counter), so shared
// runs replay bit-identically at any worker count. One group per video
// is tracked — the latest; a still-streaming group displaced by a newer
// one simply finishes without handoff coverage (its followers complete
// on schedule), which only forgoes some promotion load.
//
// Simplification vs. a real implementation: followers mirror the shared
// display exactly and are assumed glitch-free whenever the leader is —
// their bytes travel the network bus, whose bandwidth the paper
// declares unlimited. A patcher's post-sync buffering of the shared
// stream (up to patch_window_sec of video) is likewise not charged
// against its terminal memory.

#ifndef SPIFFI_CLIENT_STREAM_SHARE_H_
#define SPIFFI_CLIENT_STREAM_SHARE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/environment.h"

namespace spiffi::client {

// Callback surface a terminal registers when joining a group. Calls
// arrive synchronously from inside the departing leader's event.
class StreamShareMember {
 public:
  virtual ~StreamShareMember() = default;
  // This member is now the group's leader: start a real stream at the
  // group's current position and keep serving the remaining followers.
  virtual void OnPromotedToLeader(int video) = 0;
  // The group lost its stream with no mirror to promote: continue as a
  // private stream from the member's own position.
  virtual void OnShareGroupDisbanded(int video) = 0;
};

class StreamShareManager {
 public:
  enum class Role { kLeader, kFollower, kPatcher };

  struct Arrangement {
    Role role = Role::kLeader;
    sim::SimTime start_time = 0.0;  // when the SHARED display begins
    std::uint64_t group_id = 0;     // 0 when batching is disabled
    double patch_seconds = 0.0;     // patcher: prefix length to unicast
  };

  struct Stats {
    std::uint64_t groups_formed = 0;
    std::uint64_t followers_attached = 0;
    std::uint64_t patchers_attached = 0;
    double patch_seconds_total = 0.0;  // sum of unicast prefix lengths
    std::uint64_t leader_handoffs = 0;
    std::uint64_t groups_disbanded = 0;
    std::uint64_t groups_pruned = 0;
  };

  // `window_sec` == 0 disables batching (every caller leads
  // immediately); `patch_window_sec` == 0 disables patching. With
  // batching off but patching on, groups still form — they just start
  // with no delay.
  StreamShareManager(sim::Environment* env, double window_sec,
                     double patch_window_sec = 0.0)
      : env_(env),
        window_sec_(window_sec),
        patch_window_sec_(patch_window_sec) {}

  // Called by a terminal that wants to start `video` now. A `member`
  // registers the caller for handoff; `duration_sec` bounds the group's
  // lifetime (and the patch-join horizon). Arrange(video, -1, 0.0,
  // nullptr) joins anonymously: no membership, no handoff.
  Arrangement Arrange(int video, int terminal, double duration_sec,
                      StreamShareMember* member);

  // The leader of (`video`, `group_id`) is abandoning the shared
  // stream: promote the first exact-mirror follower, or disband. A
  // stale group id (group already displaced or pruned) is a no-op.
  void LeaderDeparting(int video, std::uint64_t group_id, int terminal);
  // A follower/patcher is leaving the group (e.g. a patcher pausing its
  // catch-up stream): drop its membership record.
  void MemberDeparting(int video, std::uint64_t group_id, int terminal);

  // Erases every group that can neither be joined nor needs handoff
  // bookkeeping any more; returns how many were dropped. Runs
  // automatically on touch and amortized every few arrangements — the
  // fix for the unbounded `open_groups_` growth of the old manager.
  std::size_t PruneExpired();
  std::size_t open_group_count() const { return groups_.size(); }

  const Stats& stats() const { return stats_; }
  std::uint64_t groups_formed() const { return stats_.groups_formed; }
  std::uint64_t followers_attached() const {
    return stats_.followers_attached;
  }
  void ResetStats() { stats_ = Stats(); }

 private:
  struct Member {
    int terminal = -1;
    double offset_sec = 0.0;  // 0 = exact mirror; >0 = patched join
    StreamShareMember* callback = nullptr;
  };
  struct Group {
    std::uint64_t id = 0;
    sim::SimTime start_time = 0.0;
    sim::SimTime end_time = 0.0;  // shared stream end (start + duration)
    int leader = -1;
    std::vector<Member> members;  // join order; excludes the leader
  };

  // No longer joinable and no member could still need a handoff signal.
  bool Expired(const Group& group, sim::SimTime now) const;

  sim::Environment* env_;
  double window_sec_;
  double patch_window_sec_;
  std::unordered_map<int, Group> groups_;  // latest group per video
  std::uint64_t next_group_id_ = 1;
  std::uint64_t arranges_ = 0;  // drives the amortized sweep
  Stats stats_;
};

}  // namespace spiffi::client

#endif  // SPIFFI_CLIENT_STREAM_SHARE_H_
