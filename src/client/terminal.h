// Video terminal (paper §5.1 and Fig 2).
//
// A terminal primes its buffers, then displays MPEG frames at the nominal
// rate while concurrently requesting subsequent stripe blocks whenever it
// has the memory to buffer them. If the display catches up with the data
// (buffer underrun) the terminal records a *glitch*, stops the display,
// and fully re-primes its buffers before restarting — increasing the
// glitch's duration but making an immediate second glitch unlikely.
//
// Each read request carries a deadline: the simulated time at which the
// first byte of the requested block will be consumed, computed from the
// video's deterministic frame timeline and the terminal's display clock.
// When one video ends the terminal immediately selects another according
// to the popularity distribution (closed system).
//
// Optional behaviours: random pauses (§8.1, Fig 19) and shared starts
// (batching and patching, see client/stream_share.h).

#ifndef SPIFFI_CLIENT_TERMINAL_H_
#define SPIFFI_CLIENT_TERMINAL_H_

#include <cstdint>
#include <set>
#include <vector>

#include "client/stream_share.h"
#include "fault/state.h"
#include "layout/layout.h"
#include "mpeg/frame_window.h"
#include "mpeg/video.h"
#include "obs/quantile_sketch.h"
#include "server/message.h"
#include "server/server.h"
#include "sim/environment.h"
#include "sim/random.h"

namespace spiffi::vod {
class AdmissionController;
}  // namespace spiffi::vod

namespace spiffi::client {

struct TerminalParams {
  std::int64_t memory_bytes = 2 * 1024 * 1024;
  bool pause_enabled = false;
  double pauses_per_video_mean = 2.0;     // Poisson mean (§8.1: "twice")
  double pause_duration_mean_sec = 120.0; // exponential mean ("2 minutes")
  // Start the FIRST video at a uniformly random playback position, as if
  // the closed system had already been running for hours. This reaches
  // the steady state the paper measures (all terminals active, spread
  // through their movies) without simulating a full video length of
  // warmup. Subsequent videos always start from the beginning.
  bool random_initial_position = true;

  // Visual search (§8.1): subscribers occasionally fast-forward or rewind
  // with a skip-based search that shows `search_show_sec` out of every
  // show+skip seconds of video. Searches start at Poisson-distributed
  // playback positions and last an exponential duration.
  bool search_enabled = false;
  double searches_per_video_mean = 1.0;
  double search_duration_mean_sec = 30.0;
  double search_show_sec = 1.0;
  double search_skip_sec = 7.0;

  // Block-request timeout/retry (ISSUE 9). When retry_budget > 0 every
  // outstanding block request arms a deadline-derived timeout; on
  // expiry the block is re-sent to the first live replica (bounded
  // exponential backoff between attempts), and a timeout whose target
  // node is down triggers a whole-stream session failover instead of
  // per-block retries. 0 keeps the wait-until-glitch behaviour and is
  // bit-identical to it.
  int retry_budget = 0;
  double retry_min_timeout_sec = 0.25;
  double retry_backoff_base_sec = 0.25;
  // Admission control: base delay before a deferred session retries
  // the gate (doubles per consecutive deferral, capped at 16x).
  double admission_defer_sec = 2.0;
};

class Terminal final : public server::MessageSink,
                       public sim::EventHandler,
                       public StreamShareMember {
 public:
  enum class State {
    kIdle,          // constructed, not yet started
    kWaitingStart,  // share-group leader waiting out the batching window
    kPriming,       // filling buffers before (re)starting display
    kPlaying,       // displaying frames
    kPaused,        // user pressed pause
    kSearching,     // skip-based fast-forward/rewind visual search
    kFollowing,     // riding another terminal's shared stream
  };

  // This terminal's part in its current share group, if any. A patcher
  // is kPatcher while its unicast catch-up stream runs and reports
  // kFollower once synced onto the shared stream.
  enum class ShareRole { kNone, kLeader, kFollower, kPatcher };

  struct Stats {
    std::uint64_t glitches = 0;
    std::uint64_t requests_sent = 0;
    std::uint64_t blocks_received = 0;
    std::uint64_t frames_displayed = 0;
    std::uint64_t videos_completed = 0;
    std::uint64_t primes = 0;
    std::uint64_t pauses = 0;
    std::uint64_t searches = 0;
    std::uint64_t patches_started = 0;   // unicast catch-up streams begun
    std::uint64_t patch_syncs = 0;       // catch-ups that reached the group
    std::uint64_t share_promotions = 0;  // follower -> leader handoffs
    std::uint64_t share_disbands = 0;    // groups lost under this member
    std::uint64_t search_segments = 0;      // segments shown during search
    std::uint64_t search_frames = 0;        // frames shown during search
    std::uint64_t stale_replies = 0;        // replies to abandoned streams
    // Request -> block arrival (seconds), in a mergeable <=1%
    // relative-error sketch; SimMetrics reads its sum and percentiles.
    obs::QuantileSketch response_sketch;

    // Deadline accounting, measured at block arrival. Slack is
    // deadline - arrival time (seconds): positive means the block came
    // early.
    obs::QuantileSketch slack_sketch;   // signed: late arrivals negative
    // Late blocks (slack < 0), attributed to the pipeline stage that
    // consumed the largest share of the response time — the terminal's
    // answer to "who caused this glitch risk".
    std::uint64_t late_blocks = 0;
    std::uint64_t late_attrib_network = 0;
    std::uint64_t late_attrib_server_cpu = 0;   // CPU queue + pool stalls
    std::uint64_t late_attrib_disk_queue = 0;
    std::uint64_t late_attrib_disk_service = 0;
    std::uint64_t late_attrib_fault = 0;        // degraded-mode delays

    // Degraded-mode accounting (zero on healthy runs). A block can be
    // redirected at issue (the terminal saw the primary down) and/or
    // re-routed between nodes after arriving at a dead copy.
    std::uint64_t requests_redirected = 0;  // sent to a replica directly
    std::uint64_t blocks_rerouted = 0;      // replies that hopped nodes

    // Resilience accounting (zero when retry_budget == 0).
    std::uint64_t request_retries = 0;    // timed-out blocks re-sent
    std::uint64_t retries_exhausted = 0;  // budget spent, left waiting
    std::uint64_t session_failovers = 0;  // whole-stream migrations
    std::uint64_t duplicate_replies = 0;  // original + retry both landed
  };

  // The terminal schedules its own first start at `start_time`.
  // `share` may be nullptr (no batching/patching); `fault` may be
  // nullptr (no failure awareness — requests always target the primary
  // copy). When `ingress` is set (the terminal's assigned proxy in a
  // two-tier topology) every request goes there instead of being routed
  // to an origin node; the proxy tier handles failover itself.
  // `admission`, when given, gates every session start (and failover
  // re-admission) through the controller; nullptr admits everyone.
  Terminal(sim::Environment* env, int id, const TerminalParams& params,
           hw::Network* network, server::NodeDirectory* server,
           const mpeg::VideoLibrary* library, const layout::Layout* layout,
           sim::Rng rng, sim::SimTime start_time,
           StreamShareManager* share = nullptr,
           const fault::FaultState* fault = nullptr,
           server::MessageSink* ingress = nullptr,
           vod::AdmissionController* admission = nullptr);

  Terminal(const Terminal&) = delete;
  Terminal& operator=(const Terminal&) = delete;

  // Block replies from the server.
  void OnMessage(const server::Message& message) override;
  // Timer events (start, frame ticks, pause end, follower end).
  void OnEvent(std::uint64_t token) override;
  // Share-group handoff callbacks (see StreamShareMember).
  void OnPromotedToLeader(int video) override;
  void OnShareGroupDisbanded(int video) override;

  int id() const { return id_; }
  State state() const { return state_; }
  ShareRole share_role() const { return share_role_; }
  int current_video() const { return video_; }
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  // Buffer occupancy in bytes (arrived and unconsumed); for tests.
  std::int64_t occupied_bytes() const { return occupied_bytes_; }
  std::int64_t inflight_bytes() const { return inflight_bytes_; }
  // Display cursor: the next frame to show and the bytes consumed before
  // it, which equal the current video's CumulativeBytesAtFrame(next_frame)
  // while one plays; for tests.
  std::int64_t next_frame() const { return next_frame_; }
  std::int64_t consumed_bytes() const { return consumed_bytes_; }
  // Frame-size draws of the display loop (refills, scalar draws).
  const mpeg::FrameWindow& frame_window() const { return frame_window_; }

  // --- Interactive controls (§8.1) ---

  // Jumps to an absolute playback position (seconds) within the current
  // video, discarding buffered data and re-priming from there. Valid
  // while playing, paused, or searching.
  void JumpTo(double playback_seconds);

  // Starts a skip-based visual search from the current position: shows
  // `show_sec` of video, skips `skip_sec`, repeating forward or backward
  // for `duration_sec` (or until the video boundary), then resumes normal
  // playback from wherever the search ended. Valid while playing.
  void BeginVisualSearch(bool forward, double show_sec, double skip_sec,
                         double duration_sec);

  // Current playback position in seconds (consumption point).
  double PositionSeconds() const { return ConsumedPlaybackTime(); }

 private:
  // Event tokens. Follow-end tokens additionally carry a generation in
  // the bits above kTokenBits, and retry tokens carry the block index
  // there (see follow_gen_ / OnRetryTimeout); all other tokens fit in
  // the low bits unchanged.
  static constexpr std::uint64_t kStartToken = 1;
  static constexpr std::uint64_t kFrameToken = 2;
  static constexpr std::uint64_t kPauseEndToken = 3;
  static constexpr std::uint64_t kFollowEndToken = 4;
  static constexpr std::uint64_t kSearchFrameToken = 5;
  static constexpr std::uint64_t kRetryToken = 6;
  // Deferred-admission retry: re-enters ChooseNextVideo (and thus the
  // admission gate). Deliberately distinct from kStartToken, whose
  // pending_video_ branch starts an already-arranged stream directly.
  static constexpr std::uint64_t kAdmissionRetryToken = 7;
  static constexpr std::uint64_t kTokenBits = 3;
  static constexpr std::uint64_t kTokenMask = (1u << kTokenBits) - 1;

  void ChooseNextVideo();
  // Begins priming `video` with display starting at `start_frame`.
  void StartVideo(int video, std::int64_t start_frame);
  void IssueRequests();
  void CheckPrimeComplete();
  void BeginDisplay();
  void DisplayFrame();
  void HandleGlitch();
  void FinishVideo();
  void EnterPause();

  // --- Stream sharing internals ---
  // Enters kFollowing until `end_time`, displaying as if playback time 0
  // were at `display_anchor` (group start for mirrors, the patcher's own
  // anchor for patched joins).
  void BeginFollowing(sim::SimTime display_anchor, sim::SimTime end_time);
  // The patch stream's display reached the join offset: drop the
  // unicast stream and ride the shared one.
  void SyncToSharedStream();
  // Leaving the current stream for an interactive action (pause, jump,
  // search): hand leadership off or detach a patcher.
  void DepartSharedGroup();
  // Playback position implied by `follow_anchor_`, clamped to a valid
  // frame of `video`.
  std::int64_t FollowFrameNow(int video) const;

  // Resets the streaming state (buffers, request window, display cursor)
  // to start consuming at `frame` of the current video. Bumps the stream
  // epoch so replies to earlier requests are discarded on arrival.
  void ResetStreamAt(std::int64_t frame);
  // Visual-search internals.
  void StartSearchSegment();
  void EndVisualSearch();
  void DisplaySearchFrame();
  void OnSearchBlock(const server::Message& message);

  // Posts a read request for `block` of the current video. It goes to
  // the assigned proxy when there is one; otherwise to the primary
  // copy's node, or to the first live replica when faults are active and
  // the primary is down (client-side failover; the server re-routes
  // stale picks). Returns the origin node targeted, -1 via a proxy.
  int PostRequest(std::int64_t block, std::int64_t bytes,
                  sim::SimTime deadline);

  // Accounts an arrived block against its pending-request record:
  // response time, deadline slack, lateness attribution, trace span end.
  void RecordArrival(const server::Message& message);
  // Attributes a late block to its dominant pipeline stage. `retry_wait`
  // is the extra time spent waiting out retry timeouts (0 without
  // retries); it is charged to the fault stage.
  void AttributeLateBlock(const server::Message& message, double response,
                          double retry_wait);

  // --- Request timeout/retry internals (retry_budget > 0 only) ---
  // Absolute fire time of the first timeout for a request with this
  // deadline: shortly before the block's consumption point, but never
  // sooner than the minimum timeout from now.
  sim::SimTime FirstRetryFireTime(sim::SimTime deadline) const;
  // Arms (or re-arms) the retry timer of the pending request at `block`.
  void ArmRetryTimer(std::int64_t block, sim::SimTime fire_time);
  // A retry timer fired: re-send to the next live replica, or fail the
  // whole session over when the target node is down.
  void OnRetryTimeout(std::int64_t block);
  // Migrates the whole stream to surviving replicas: re-admission,
  // epoch bump (stale in-flight replies), full re-prime from the
  // consumption point. Happens once per outage by construction — the
  // re-primed requests route to live nodes.
  void SessionFailover();
  void CancelRetryTimers();

  // Absolute time by which `block`'s first byte will be consumed.
  sim::SimTime DeadlineForBlock(std::int64_t block) const;
  // Bytes [0, boundary) have arrived contiguously.
  std::int64_t ContiguousBytes() const;
  // Playback time of the consumption point (frame-aligned).
  double ConsumedPlaybackTime() const;

  // --- Hot block: what a display tick reads or writes ---
  // DisplayFrame, the early exits of IssueRequests and the tick's
  // ScheduleTick touch only these fields, kept together at the front so
  // a tick touches few cache lines; everything else follows.
  sim::Environment* env_;
  State state_ = State::kIdle;
  const mpeg::Video* vid_ = nullptr;
  // Display cursor: next frame to show, bytes consumed so far, and the
  // sim time of playback time 0 while playing.
  std::int64_t next_frame_ = 0;
  std::int64_t consumed_bytes_ = 0;
  sim::SimTime anchor_ = 0.0;
  // The library's frame rate, read once (the same double every tick
  // divides by), and its read block size.
  double frames_per_second_;
  const std::int64_t block_bytes_;
  // Buffer accounting and the request frontier. Blocks before
  // first_block_ (the block containing the starting position) are never
  // requested; contiguous_blocks_ counts arrived blocks from first_block_
  // on.
  std::int64_t occupied_bytes_ = 0;
  std::int64_t inflight_bytes_ = 0;
  std::int64_t first_block_ = 0;
  std::int64_t contiguous_blocks_ = 0;
  std::int64_t next_request_block_ = 0;
  std::int64_t num_blocks_ = 0;
  std::int64_t video_bytes_ = 0;
  // A patch limit >= 0 caps a unicast catch-up stream: requests stop at
  // patch_limit_block_ and the display syncs onto the shared stream at
  // patch_limit_frame_ (see the stream-sharing fields below).
  std::int64_t patch_limit_frame_ = -1;
  std::int64_t patch_limit_block_ = 0;
  // Pauses: upcoming pause positions (playback seconds), descending.
  std::vector<double> pause_at_;
  // Visual search (§8.1): upcoming search positions per video,
  // descending.
  std::vector<double> search_at_;
  // memory_bytes, the only field a tick reads, leads the struct.
  TerminalParams params_;
  // Sizes of the frames from next_frame_ on. Invalidated by
  // ResetStreamAt, which every video change, jump, search, failover and
  // patch sync passes through.
  mpeg::FrameWindow frame_window_;
  // frames_displayed, which every tick bumps, sits in its first line.
  Stats stats_;

  // --- Cold: the rest ---
  int id_;
  hw::Network* network_;
  server::NodeDirectory* server_;
  const mpeg::VideoLibrary* library_;
  const layout::Layout* layout_;
  sim::Rng rng_;
  StreamShareManager* share_;
  const fault::FaultState* fault_;
  server::MessageSink* ingress_;  // proxy hop; nullptr = flat topology
  vod::AdmissionController* admission_;  // nullptr = admit everyone
  int admission_defer_streak_ = 0;  // consecutive deferrals (backoff)

  int video_ = -1;
  int pending_video_ = -1;  // selected, waiting for a delayed start

  bool first_video_ = true;

  std::int64_t start_frame_ = 0;  // first frame actually consumed
  std::int64_t start_byte_ = 0;   // and its first byte
  // In-flight request bookkeeping, one record per outstanding block:
  // when it was issued, the deadline it carried, and the open trace span.
  struct PendingRequest {
    std::int64_t block = -1;  // ring tag; -1 = free slot
    sim::SimTime issue_time = 0.0;
    sim::SimTime deadline = sim::kSimTimeMax;
    std::uint64_t trace_id = 0;
    // Retry state (unused when retry_budget == 0).
    int node = -1;          // origin node targeted (-1 via proxy ingress)
    int attempts = 0;       // retries consumed
    sim::SimTime last_send_time = 0.0;  // most recent (re)send
    sim::EventId retry_timer = 0;       // armed timeout, 0 = none
  };
  // The records live in a fixed ring indexed by block & (size - 1).
  // IssueRequests keeps occupied + in-flight bytes within memory_bytes,
  // and no block after the oldest outstanding one can be consumed, so
  // the outstanding blocks span at most memory_bytes / block_bytes_ + 1
  // blocks (the +1 is a video's short last block). A ring of
  // bit_ceil(memory_bytes / block_bytes_ + 2) slots therefore never maps
  // two outstanding blocks to one slot.
  std::vector<PendingRequest> inflight_;
  // The record of outstanding `block`, or nullptr.
  PendingRequest* FindPending(std::int64_t block) {
    PendingRequest& slot =
        inflight_[static_cast<std::size_t>(block) & (inflight_.size() - 1)];
    return slot.block == block ? &slot : nullptr;
  }
  // A fresh record for `block`, whose slot must be free.
  PendingRequest& AddPending(std::int64_t block);
  std::set<std::int64_t> arrived_out_of_order_;

  sim::SimTime prime_start_ = 0.0;  // when the current prime began (trace)

  sim::SimTime pause_end_ = 0.0;
  // A session failover interrupted a pause: when the re-prime completes,
  // return to kPaused (the original kPauseEndToken is still scheduled)
  // instead of starting playback early.
  bool resume_paused_ = false;

  // Stream epoch: bumped whenever buffered/in-flight data is abandoned
  // (video change, jump, search start/end). Sent as the request cookie;
  // replies with a stale cookie are dropped.
  std::uint64_t epoch_ = 0;

  // Stream sharing. share_group_/share_video_ identify the group this
  // terminal belongs to (or leads); follow_anchor_ is the sim time of
  // this member's playback position 0 while kFollowing; follow_gen_
  // invalidates scheduled follow-end events after a promotion or
  // disband pulls the terminal out of kFollowing early.
  ShareRole share_role_ = ShareRole::kNone;
  std::uint64_t share_group_ = 0;
  int share_video_ = -1;
  sim::SimTime follow_anchor_ = 0.0;
  std::uint64_t follow_gen_ = 0;
  double pending_patch_seconds_ = 0.0;
  // Blocks this stream will actually request: num_blocks_, or the patch
  // cap while a catch-up stream runs.
  std::int64_t RequestableBlocks() const {
    return patch_limit_frame_ >= 0 ? patch_limit_block_ : num_blocks_;
  }

  // The visual search in progress.
  bool search_forward_ = true;
  double search_show_sec_ = 1.0;
  double search_skip_sec_ = 7.0;
  sim::SimTime search_end_time_ = 0.0;
  std::int64_t search_segment_start_ = 0;  // first frame of the segment
  std::int64_t search_segment_end_ = 0;    // one past the last frame
  std::int64_t search_cursor_ = 0;         // display cursor (frame)
  std::set<std::int64_t> search_blocks_pending_;
};

}  // namespace spiffi::client

#endif  // SPIFFI_CLIENT_TERMINAL_H_
