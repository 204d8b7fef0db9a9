#include "client/terminal.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "obs/trace.h"
#include "sim/check.h"
#include "vod/admission.h"

namespace spiffi::client {

using server::Message;

Terminal::Terminal(sim::Environment* env, int id,
                   const TerminalParams& params, hw::Network* network,
                   server::NodeDirectory* server,
                   const mpeg::VideoLibrary* library,
                   const layout::Layout* layout, sim::Rng rng,
                   sim::SimTime start_time, StreamShareManager* share,
                   const fault::FaultState* fault,
                   server::MessageSink* ingress,
                   vod::AdmissionController* admission)
    : env_(env),
      frames_per_second_(library->frame_model().params().frames_per_second),
      block_bytes_(library->block_bytes()),
      params_(params),
      id_(id),
      network_(network),
      server_(server),
      library_(library),
      layout_(layout),
      rng_(rng),
      share_(share),
      fault_(fault),
      ingress_(ingress),
      admission_(admission) {
  SPIFFI_CHECK(env != nullptr);
  SPIFFI_CHECK(params.memory_bytes >= block_bytes_);
  inflight_.resize(std::bit_ceil(static_cast<std::uint64_t>(
      params.memory_bytes / block_bytes_ + 2)));
  env_->Schedule(start_time, this, kStartToken);
}

double Terminal::ConsumedPlaybackTime() const {
  return static_cast<double>(next_frame_) / frames_per_second_;
}

std::int64_t Terminal::ContiguousBytes() const {
  return std::min((first_block_ + contiguous_blocks_) * block_bytes_,
                  video_bytes_);
}

sim::SimTime Terminal::DeadlineForBlock(std::int64_t block) const {
  // The frame holding the first byte of the block that will actually be
  // consumed (the starting block is consumed from the starting frame, not
  // from its own first byte).
  double block_time = vid_->PlaybackTimeOfFrame(
      std::max(vid_->BlockStartFrame(block), start_frame_));
  switch (state_) {
    case State::kPlaying:
      return anchor_ + block_time;
    case State::kPaused:
      // Display resumes at pause_end_; the clock then runs from the
      // current consumption point.
      return pause_end_ + (block_time - ConsumedPlaybackTime());
    default:
      // Priming: assume display could start immediately (conservative).
      return env_->now() + (block_time - ConsumedPlaybackTime());
  }
}

void Terminal::OnEvent(std::uint64_t token) {
  if ((token & kTokenMask) == kFollowEndToken) {
    // The generation guards against follow-end events scheduled for a
    // stream this terminal already left via promotion or disband.
    if (state_ == State::kFollowing &&
        (token >> kTokenBits) == follow_gen_) {
      ++stats_.videos_completed;
      share_role_ = ShareRole::kNone;
      state_ = State::kIdle;
      // The followed session is fully over; the video it mirrored must
      // not leak into the next kStartToken (a deferred admission retry
      // would otherwise replay it, bypassing the gate).
      pending_video_ = -1;
      if (admission_ != nullptr) admission_->Release(id_);
      ChooseNextVideo();
    }
    return;
  }
  if ((token & kTokenMask) == kRetryToken) {
    OnRetryTimeout(static_cast<std::int64_t>(token >> kTokenBits));
    return;
  }
  switch (token) {
    case kStartToken:
      if (pending_video_ >= 0) {
        StartVideo(pending_video_, 0);
      } else {
        ChooseNextVideo();
      }
      break;
    case kFrameToken:
      if (state_ == State::kPlaying) DisplayFrame();
      break;
    case kPauseEndToken:
      if (state_ == State::kPaused) {
        state_ = State::kPlaying;
        anchor_ = env_->now() - ConsumedPlaybackTime();
        env_->ScheduleTick(env_->now(), this, kFrameToken);
      }
      break;
    case kSearchFrameToken:
      if (state_ == State::kSearching) DisplaySearchFrame();
      break;
    case kAdmissionRetryToken:
      // Deferred admission retry: always back through the gate and the
      // popularity draw — never a direct StartVideo.
      ChooseNextVideo();
      break;
    default:
      SPIFFI_CHECK(false);
  }
}

void Terminal::ChooseNextVideo() {
  if (admission_ != nullptr) {
    // The gate comes before the popularity draw so admission-off runs
    // keep an identical RNG sequence. A deferred session retries after
    // a bounded-exponential delay; a rejection waits the full cooldown.
    vod::AdmissionController::Decision decision = admission_->TryAdmit(id_);
    if (decision != vod::AdmissionController::Decision::kAdmit) {
      double factor =
          decision == vod::AdmissionController::Decision::kReject
              ? 16.0
              : static_cast<double>(
                    1 << std::min(admission_defer_streak_, 4));
      ++admission_defer_streak_;
      env_->ScheduleAfter(params_.admission_defer_sec * factor, this,
                          kAdmissionRetryToken);
      return;
    }
    admission_defer_streak_ = 0;
  }
  int video = library_->Select(&rng_);
  // Only the very first video starts mid-stream (steady-state warmup);
  // later selections play from the beginning.
  std::int64_t start_frame = 0;
  if (first_video_) {
    first_video_ = false;
    if (params_.random_initial_position) {
      start_frame = static_cast<std::int64_t>(rng_.UniformInt(
          static_cast<std::uint64_t>(library_->video(video).frame_count())));
    }
  }
  if (share_ == nullptr) {
    StartVideo(video, start_frame);
    return;
  }
  // Share groups always watch from the beginning (the batching window
  // replaces the steady-state position spread).
  double duration = library_->video(video).duration_seconds();
  StreamShareManager::Arrangement arrangement =
      share_->Arrange(video, id_, duration, this);
  pending_video_ = video;
  share_video_ = video;
  share_group_ = arrangement.group_id;
  switch (arrangement.role) {
    case StreamShareManager::Role::kFollower:
      // Exact mirror of the shared stream from its (possibly still
      // pending) start to its end.
      share_role_ = ShareRole::kFollower;
      BeginFollowing(arrangement.start_time,
                     arrangement.start_time + duration);
      return;
    case StreamShareManager::Role::kPatcher:
      // Start right away; StartVideo caps the stream at the missed
      // prefix and the display syncs onto the shared stream after it.
      share_role_ = ShareRole::kPatcher;
      pending_patch_seconds_ = arrangement.patch_seconds;
      StartVideo(video, 0);
      return;
    case StreamShareManager::Role::kLeader:
      share_role_ = ShareRole::kLeader;
      state_ = State::kWaitingStart;
      env_->Schedule(arrangement.start_time, this, kStartToken);
      return;
  }
}

void Terminal::BeginFollowing(sim::SimTime display_anchor,
                              sim::SimTime end_time) {
  state_ = State::kFollowing;
  follow_anchor_ = display_anchor;
  ++follow_gen_;
  env_->Schedule(end_time, this,
                 kFollowEndToken | (follow_gen_ << kTokenBits));
}

std::int64_t Terminal::FollowFrameNow(int video) const {
  double position = env_->now() - follow_anchor_;
  auto frame = static_cast<std::int64_t>(
      std::llround(position * frames_per_second_));
  return std::clamp<std::int64_t>(
      frame, 0, library_->video(video).frame_count() - 1);
}

void Terminal::OnPromotedToLeader(int video) {
  if (state_ != State::kFollowing || pending_video_ != video) return;
  ++stats_.share_promotions;
  ++follow_gen_;  // the scheduled follow-end no longer applies
  share_role_ = ShareRole::kLeader;
  std::int64_t frame = FollowFrameNow(video);
  obs::TraceInstant(env_, obs::TraceCategory::kTerminal, "share_promote",
                    obs::Tracer::kTerminalsPid, id_,
                    {{"video", static_cast<double>(video)},
                     {"start_frame", static_cast<double>(frame)}});
  StartVideo(video, frame);
}

void Terminal::OnShareGroupDisbanded(int video) {
  if (share_role_ == ShareRole::kPatcher && video_ == video &&
      state_ != State::kFollowing) {
    // Mid-patch: keep the running unicast stream, just remove its cap —
    // the rest of the video must now be fetched privately too.
    ++stats_.share_disbands;
    share_role_ = ShareRole::kNone;
    patch_limit_frame_ = -1;
    IssueRequests();
    return;
  }
  if (state_ != State::kFollowing || pending_video_ != video) return;
  ++stats_.share_disbands;
  ++follow_gen_;
  share_role_ = ShareRole::kNone;
  StartVideo(video, FollowFrameNow(video));
}

void Terminal::DepartSharedGroup() {
  if (share_ == nullptr || share_role_ == ShareRole::kNone) return;
  if (share_role_ == ShareRole::kLeader) {
    share_->LeaderDeparting(share_video_, share_group_, id_);
  } else {
    // Only a patcher can get here — a plain follower has no display
    // events from which to act. Its stream turns private.
    share_->MemberDeparting(share_video_, share_group_, id_);
    patch_limit_frame_ = -1;
  }
  share_role_ = ShareRole::kNone;
}

void Terminal::SyncToSharedStream() {
  SPIFFI_DCHECK(share_role_ == ShareRole::kPatcher);
  ++stats_.patch_syncs;
  // The unicast catch-up stream ends here: from this point the terminal
  // consumes the shared stream it has been buffering since the join.
  // Anything buffered or in flight past the join offset duplicates the
  // shared stream and is dropped (replies go stale via the epoch bump).
  std::int64_t frame = next_frame_;
  ResetStreamAt(frame);
  obs::TraceInstant(env_, obs::TraceCategory::kTerminal, "patch_sync",
                    obs::Tracer::kTerminalsPid, id_,
                    {{"video", static_cast<double>(video_)},
                     {"position_sec", ConsumedPlaybackTime()}});
  share_role_ = ShareRole::kFollower;
  sim::SimTime end_time = anchor_ + vid_->duration_seconds();
  pending_video_ = video_;
  video_ = -1;
  vid_ = nullptr;
  BeginFollowing(anchor_, end_time);
}

void Terminal::ResetStreamAt(std::int64_t frame) {
  ++epoch_;  // replies to everything issued so far become stale
  CancelRetryTimers();
  next_frame_ = frame;
  frame_window_.Invalidate();
  start_frame_ = frame;
  start_byte_ = vid_->CumulativeBytesAtFrame(frame);
  consumed_bytes_ = start_byte_;
  first_block_ = start_byte_ / block_bytes_;
  next_request_block_ = first_block_;
  contiguous_blocks_ = 0;
  arrived_out_of_order_.clear();
  std::fill(inflight_.begin(), inflight_.end(), PendingRequest());
  search_blocks_pending_.clear();
  occupied_bytes_ = 0;
  inflight_bytes_ = 0;
  patch_limit_frame_ = -1;
  resume_paused_ = false;
}

void Terminal::StartVideo(int video, std::int64_t start_frame) {
  SPIFFI_CHECK(inflight_bytes_ == 0);
  video_ = video;
  pending_video_ = -1;
  vid_ = &library_->video(video);
  video_bytes_ = vid_->total_bytes();
  num_blocks_ = library_->NumBlocks(video);

  ResetStreamAt(start_frame);

  if (pending_patch_seconds_ > 0.0 && start_frame == 0) {
    // Unicast catch-up stream: fetch and display only the frames the
    // shared stream has already passed, then sync onto it.
    auto frames = static_cast<std::int64_t>(
        std::ceil(pending_patch_seconds_ * frames_per_second_ - 1e-9));
    patch_limit_frame_ =
        std::clamp<std::int64_t>(frames, 1, vid_->frame_count());
    std::int64_t last_byte =
        vid_->CumulativeBytesAtFrame(patch_limit_frame_) - 1;
    patch_limit_block_ = last_byte / block_bytes_ + 1;
    ++stats_.patches_started;
  }
  pending_patch_seconds_ = 0.0;

  pause_at_.clear();
  if (params_.pause_enabled) {
    // Poisson-distributed pause count (mean pauses_per_video_mean) at
    // uniform playback positions after the starting point.
    double l = std::exp(-params_.pauses_per_video_mean);
    int count = 0;
    for (double p = rng_.NextDouble(); p > l; p *= rng_.NextDouble()) {
      ++count;
    }
    for (int i = 0; i < count; ++i) {
      double at = rng_.Uniform(ConsumedPlaybackTime(),
                               vid_->duration_seconds());
      pause_at_.push_back(at);
    }
    std::sort(pause_at_.begin(), pause_at_.end(), std::greater<double>());
  }

  search_at_.clear();
  if (params_.search_enabled) {
    double l = std::exp(-params_.searches_per_video_mean);
    int count = 0;
    for (double p = rng_.NextDouble(); p > l; p *= rng_.NextDouble()) {
      ++count;
    }
    for (int i = 0; i < count; ++i) {
      search_at_.push_back(rng_.Uniform(ConsumedPlaybackTime(),
                                        vid_->duration_seconds()));
    }
    std::sort(search_at_.begin(), search_at_.end(),
              std::greater<double>());
  }

  state_ = State::kPriming;
  ++stats_.primes;
  prime_start_ = env_->now();
  obs::TraceInstant(env_, obs::TraceCategory::kTerminal, "video_start",
                    obs::Tracer::kTerminalsPid, id_,
                    {{"video", static_cast<double>(video)},
                     {"start_frame", static_cast<double>(start_frame)}});
  IssueRequests();
}

void Terminal::IssueRequests() {
  if (state_ != State::kPriming && state_ != State::kPlaying &&
      state_ != State::kPaused) {
    return;
  }
  while (next_request_block_ < RequestableBlocks()) {
    std::int64_t bytes = vid_->BlockBytes(next_request_block_);
    if (occupied_bytes_ + inflight_bytes_ + bytes > params_.memory_bytes) {
      break;  // no room to buffer another block
    }
    const sim::SimTime deadline = DeadlineForBlock(next_request_block_);
    std::uint64_t trace_id = obs::TraceAsyncBegin(
        env_, obs::TraceCategory::kTerminal, "block_request",
        obs::Tracer::kTerminalsPid,
        {{"terminal", static_cast<double>(id_)},
         {"block", static_cast<double>(next_request_block_)}});
    const int target_node = PostRequest(next_request_block_, bytes, deadline);

    inflight_bytes_ += bytes;
    PendingRequest& pending = AddPending(next_request_block_);
    pending.issue_time = env_->now();
    pending.deadline = deadline;
    pending.trace_id = trace_id;
    pending.node = target_node;
    pending.last_send_time = env_->now();
    if (params_.retry_budget > 0) {
      ArmRetryTimer(next_request_block_, FirstRetryFireTime(deadline));
    }
    ++stats_.requests_sent;
    ++next_request_block_;
  }
}

void Terminal::OnMessage(const Message& message) {
  SPIFFI_DCHECK(message.kind == Message::Kind::kReadReply);
  if (message.cookie != epoch_) {
    // Reply to a stream abandoned by a video change, jump, or search.
    ++stats_.stale_replies;
    return;
  }
  if (state_ == State::kSearching) {
    OnSearchBlock(message);
    return;
  }
  if (FindPending(message.block) == nullptr) {
    // Duplicate delivery: a retried request and the original both
    // completed. The first reply was accounted; drop the straggler
    // before it corrupts the buffer bookkeeping. Unreachable when
    // retry_budget == 0 (every live-epoch block has a pending record).
    ++stats_.duplicate_replies;
    return;
  }

  inflight_bytes_ -= message.bytes;
  occupied_bytes_ += message.bytes;
  if (message.block == first_block_) {
    // The part of the starting block before the starting position is
    // never displayed; do not let it occupy buffer space forever.
    occupied_bytes_ -= start_byte_ - first_block_ * block_bytes_;
  }
  ++stats_.blocks_received;
  RecordArrival(message);

  if (message.block == first_block_ + contiguous_blocks_) {
    ++contiguous_blocks_;
    auto next = arrived_out_of_order_.begin();
    while (next != arrived_out_of_order_.end() &&
           *next == first_block_ + contiguous_blocks_) {
      ++contiguous_blocks_;
      next = arrived_out_of_order_.erase(next);
    }
  } else {
    arrived_out_of_order_.insert(message.block);
  }

  if (state_ == State::kPriming) CheckPrimeComplete();
}

int Terminal::PostRequest(std::int64_t block, std::int64_t bytes,
                          sim::SimTime deadline) {
  server::MessageSink* sink = ingress_;
  int target_node = -1;
  if (sink == nullptr) {
    layout::BlockLocation loc = layout_->Locate(video_, block);
    if (fault_ != nullptr && !fault_->LocationUp(loc)) {
      for (const layout::BlockLocation& copy :
           layout_->Replicas(video_, block)) {
        if (fault_->LocationUp(copy)) {
          ++stats_.requests_redirected;
          loc = copy;
          break;
        }
      }
      // Every copy is down: send to the primary, whose node will park
      // the request until a repair.
    }
    target_node = loc.node;
    sink = server_->node_sink(target_node);
  }
  Message request;
  request.kind = Message::Kind::kReadRequest;
  request.terminal = id_;
  request.video = video_;
  request.block = block;
  request.bytes = bytes;
  request.deadline = deadline;
  request.reply_to = this;
  request.cookie = epoch_;
  server::PostMessage(env_, network_, server::kControlMessageBytes, sink,
                      request);
  return target_node;
}

void Terminal::RecordArrival(const Message& message) {
  PendingRequest* pending = FindPending(message.block);
  if (pending == nullptr) return;
  if (pending->retry_timer != 0) env_->Cancel(pending->retry_timer);
  if (message.hops > 0) ++stats_.blocks_rerouted;
  double response = env_->now() - pending->issue_time;
  stats_.response_sketch.Add(response);
  double slack = pending->deadline - env_->now();
  stats_.slack_sketch.Add(slack);
  if (slack < 0.0) {
    AttributeLateBlock(message, response,
                       pending->attempts > 0
                           ? pending->last_send_time - pending->issue_time
                           : 0.0);
  }
  obs::TraceAsyncEnd(env_, obs::TraceCategory::kTerminal, "block_request",
                     obs::Tracer::kTerminalsPid, pending->trace_id,
                     {{"response_ms", response * 1e3},
                      {"slack_ms", slack * 1e3}});
  *pending = PendingRequest();
}

Terminal::PendingRequest& Terminal::AddPending(std::int64_t block) {
  PendingRequest& slot =
      inflight_[static_cast<std::size_t>(block) & (inflight_.size() - 1)];
  SPIFFI_CHECK(slot.block == -1);  // the span bound above held
  slot.block = block;
  return slot;
}

void Terminal::AttributeLateBlock(const Message& message, double response,
                                  double retry_wait) {
  ++stats_.late_blocks;
  const server::ReadTiming& timing = message.timing;
  // Stage shares of the response time: wire transit (both directions),
  // server CPU + pool stalls, disk queueing, disk mechanism, and
  // degraded-mode delay (time parked on or hopping between nodes whose
  // copy was down, plus time waiting out retry timeouts; always 0 on
  // healthy runs). The stage with the largest share takes the blame for
  // the missed deadline.
  double network = response - retry_wait - timing.ServerSeconds();
  double stages[] = {network, timing.ServerOverheadSeconds(),
                     timing.disk_queue_sec, timing.disk_service_sec,
                     timing.fault_wait_sec + retry_wait};
  int worst = 0;
  for (int i = 1; i < 5; ++i) {
    if (stages[i] > stages[worst]) worst = i;
  }
  switch (worst) {
    case 0: ++stats_.late_attrib_network; break;
    case 1: ++stats_.late_attrib_server_cpu; break;
    case 2: ++stats_.late_attrib_disk_queue; break;
    case 3: ++stats_.late_attrib_disk_service; break;
    case 4: ++stats_.late_attrib_fault; break;
  }
}

void Terminal::CheckPrimeComplete() {
  if (inflight_bytes_ != 0) return;
  bool exhausted = next_request_block_ >= RequestableBlocks();
  bool full = !exhausted &&
              occupied_bytes_ + vid_->BlockBytes(next_request_block_) >
                  params_.memory_bytes;
  if (exhausted || full) BeginDisplay();
}

void Terminal::BeginDisplay() {
  SPIFFI_DCHECK(state_ == State::kPriming);
  obs::TraceSpan(env_, obs::TraceCategory::kTerminal, "prime",
                 obs::Tracer::kTerminalsPid, id_, prime_start_,
                 {{"video", static_cast<double>(video_)}});
  if (resume_paused_) {
    resume_paused_ = false;
    if (pause_end_ > env_->now()) {
      // A failover interrupted a pause: sit out the remainder. The
      // original kPauseEndToken is still scheduled and restarts the
      // display at pause_end_.
      state_ = State::kPaused;
      return;
    }
    // The pause expired while re-priming (its end token no-op'd); start
    // playback now.
  }
  state_ = State::kPlaying;
  anchor_ = env_->now() - ConsumedPlaybackTime();
  env_->ScheduleTick(env_->now(), this, kFrameToken);
}

void Terminal::DisplayFrame() {
  // A pending pause takes effect before the frame at its position.
  if (!pause_at_.empty() && ConsumedPlaybackTime() >= pause_at_.back()) {
    pause_at_.pop_back();
    EnterPause();
    return;
  }
  // Likewise a pending visual search (mostly fast-forward).
  if (!search_at_.empty() && ConsumedPlaybackTime() >= search_at_.back()) {
    search_at_.pop_back();
    bool forward = rng_.NextDouble() < 0.7;
    double duration =
        rng_.Exponential(params_.search_duration_mean_sec);
    BeginVisualSearch(forward, params_.search_show_sec,
                      params_.search_skip_sec, duration);
    return;
  }

  std::int64_t frame_bytes = frame_window_.Peek(*vid_, next_frame_);
  if (consumed_bytes_ + frame_bytes > ContiguousBytes()) {
    HandleGlitch();
    return;
  }

  consumed_bytes_ += frame_bytes;
  occupied_bytes_ -= frame_bytes;
  frame_window_.Advance();
  ++next_frame_;
  ++stats_.frames_displayed;
  IssueRequests();  // consumption freed buffer space

  if (patch_limit_frame_ >= 0 && next_frame_ >= patch_limit_frame_) {
    SyncToSharedStream();
    return;
  }
  if (next_frame_ >= vid_->frame_count()) {
    FinishVideo();
    return;
  }
  env_->ScheduleTick(anchor_ + static_cast<double>(next_frame_) /
                                   frames_per_second_,
                     this, kFrameToken);
}

void Terminal::HandleGlitch() {
  ++stats_.glitches;
  obs::TraceInstant(env_, obs::TraceCategory::kTerminal, "glitch",
                    obs::Tracer::kTerminalsPid, id_,
                    {{"video", static_cast<double>(video_)},
                     {"position_sec", ConsumedPlaybackTime()}});
  // Stop the display and fully re-prime before restarting (§5.1).
  state_ = State::kPriming;
  ++stats_.primes;
  prime_start_ = env_->now();
  IssueRequests();
  // A full, fully-arrived buffer whose next frame still does not fit can
  // never make progress (the terminal memory is smaller than one frame) —
  // fail fast instead of glitching in a zero-time loop.
  SPIFFI_CHECK(!(inflight_bytes_ == 0 &&
                 next_request_block_ < RequestableBlocks() &&
                 occupied_bytes_ + vid_->BlockBytes(next_request_block_) >
                     params_.memory_bytes));
  CheckPrimeComplete();  // everything may already have arrived
}

void Terminal::EnterPause() {
  DepartSharedGroup();
  state_ = State::kPaused;
  ++stats_.pauses;
  pause_end_ =
      env_->now() + rng_.Exponential(params_.pause_duration_mean_sec);
  env_->Schedule(pause_end_, this, kPauseEndToken);
}

void Terminal::JumpTo(double playback_seconds) {
  SPIFFI_CHECK(vid_ != nullptr);
  SPIFFI_CHECK(state_ == State::kPlaying || state_ == State::kPaused ||
               state_ == State::kSearching || state_ == State::kPriming);
  DepartSharedGroup();
  auto frame = static_cast<std::int64_t>(
      std::llround(playback_seconds * frames_per_second_));
  frame = std::clamp<std::int64_t>(frame, 0, vid_->frame_count() - 1);
  state_ = State::kPriming;
  ++stats_.primes;
  prime_start_ = env_->now();
  ResetStreamAt(frame);
  IssueRequests();
}

void Terminal::BeginVisualSearch(bool forward, double show_sec,
                                 double skip_sec, double duration_sec) {
  SPIFFI_CHECK(vid_ != nullptr);
  SPIFFI_CHECK(state_ == State::kPlaying || state_ == State::kPaused);
  SPIFFI_CHECK(show_sec > 0.0);
  SPIFFI_CHECK(skip_sec >= 0.0);
  DepartSharedGroup();
  ++stats_.searches;
  state_ = State::kSearching;
  search_forward_ = forward;
  search_show_sec_ = show_sec;
  search_skip_sec_ = skip_sec;
  search_end_time_ = env_->now() + duration_sec;
  search_segment_start_ = next_frame_;
  // Buffered normal-playback data is abandoned; its replies go stale.
  ResetStreamAt(next_frame_);
  state_ = State::kSearching;  // ResetStreamAt does not touch state
  StartSearchSegment();
}

void Terminal::StartSearchSegment() {
  SPIFFI_DCHECK(state_ == State::kSearching);
  if (env_->now() >= search_end_time_ ||
      search_segment_start_ < 0 ||
      search_segment_start_ >= vid_->frame_count()) {
    EndVisualSearch();
    return;
  }
  auto show_frames = static_cast<std::int64_t>(
      std::llround(search_show_sec_ * frames_per_second_));
  if (show_frames < 1) show_frames = 1;
  search_segment_end_ = std::min(search_segment_start_ + show_frames,
                                 vid_->frame_count());
  search_cursor_ = search_segment_start_;

  // Request exactly the blocks covering the shown segment — the skipped
  // video is never read, so searching adds little server load (§8.1).
  std::int64_t first_byte =
      vid_->CumulativeBytesAtFrame(search_segment_start_);
  std::int64_t last_byte =
      vid_->CumulativeBytesAtFrame(search_segment_end_) - 1;
  std::int64_t b0 = first_byte / block_bytes_;
  std::int64_t b1 = last_byte / block_bytes_;
  SPIFFI_DCHECK(search_blocks_pending_.empty());
  for (std::int64_t b = b0; b <= b1; ++b) {
    search_blocks_pending_.insert(b);
  }
  for (std::int64_t b = b0; b <= b1; ++b) {
    // Best effort: the picture is choppy by design, so the deadline is
    // one show+skip period out.
    PostRequest(b, vid_->BlockBytes(b),
                env_->now() + search_show_sec_ + search_skip_sec_);
    ++stats_.requests_sent;
  }
}

void Terminal::OnSearchBlock(const server::Message& message) {
  search_blocks_pending_.erase(message.block);
  ++stats_.blocks_received;
  if (search_blocks_pending_.empty()) {
    ++stats_.search_segments;
    env_->Schedule(env_->now(), this, kSearchFrameToken);
  }
}

void Terminal::DisplaySearchFrame() {
  ++stats_.search_frames;
  ++search_cursor_;
  if (search_cursor_ < search_segment_end_) {
    env_->ScheduleTick(env_->now() + 1.0 / frames_per_second_, this,
                       kSearchFrameToken);
    return;
  }
  // Segment done: hop over the skipped span (or back for rewind).
  auto hop = static_cast<std::int64_t>(std::llround(
      (search_show_sec_ + search_skip_sec_) * frames_per_second_));
  search_segment_start_ += search_forward_ ? hop : -hop;
  if (search_forward_ &&
      search_segment_start_ >= vid_->frame_count()) {
    // Fast-forwarded off the end of the movie.
    ResetStreamAt(vid_->frame_count());
    FinishVideo();
    return;
  }
  StartSearchSegment();
}

void Terminal::EndVisualSearch() {
  std::int64_t resume = std::clamp<std::int64_t>(
      search_segment_start_, 0, vid_->frame_count() - 1);
  state_ = State::kPriming;
  ++stats_.primes;
  prime_start_ = env_->now();
  ResetStreamAt(resume);
  IssueRequests();
}

void Terminal::FinishVideo() {
  ++stats_.videos_completed;
  obs::TraceInstant(env_, obs::TraceCategory::kTerminal, "video_complete",
                    obs::Tracer::kTerminalsPid, id_,
                    {{"video", static_cast<double>(video_)}});
  SPIFFI_DCHECK(occupied_bytes_ == 0);
  // A leader that plays to the end leaves its group to expire naturally
  // (no handoff needed: mirrors end at the same instant, patchers drain
  // their buffered tail).
  share_role_ = ShareRole::kNone;
  state_ = State::kIdle;
  video_ = -1;
  vid_ = nullptr;
  if (admission_ != nullptr) admission_->Release(id_);
  // "When a terminal finishes one movie, it randomly selects a new video
  // and immediately begins playing it." (§6)
  ChooseNextVideo();
}

// --- Request timeout/retry/failover (ISSUE 9) ---

sim::SimTime Terminal::FirstRetryFireTime(sim::SimTime deadline) const {
  // Deadline-derived: fire shortly before the block's consumption point
  // (replacing the silent wait-until-glitch), but never sooner than the
  // minimum timeout after the send — a healthy round trip must have a
  // chance to complete first.
  return std::max(deadline - params_.retry_min_timeout_sec,
                  env_->now() + params_.retry_min_timeout_sec);
}

void Terminal::ArmRetryTimer(std::int64_t block, sim::SimTime fire_time) {
  PendingRequest* pending = FindPending(block);
  SPIFFI_DCHECK(pending != nullptr);
  pending->retry_timer = env_->Schedule(
      fire_time, this,
      kRetryToken | (static_cast<std::uint64_t>(block) << kTokenBits));
}

void Terminal::CancelRetryTimers() {
  for (PendingRequest& pending : inflight_) {
    if (pending.retry_timer != 0) {
      env_->Cancel(pending.retry_timer);
      pending.retry_timer = 0;
    }
  }
}

void Terminal::OnRetryTimeout(std::int64_t block) {
  PendingRequest* found = FindPending(block);
  if (found == nullptr) return;  // reply won a same-tick race
  PendingRequest& pending = *found;
  pending.retry_timer = 0;
  // A timeout whose target node has died is not a lost message — the
  // whole stream's routing is stale. Migrate the session once instead
  // of re-sending block by block.
  if (fault_ != nullptr && pending.node >= 0 &&
      !fault_->node_up(pending.node)) {
    SessionFailover();
    return;
  }
  if (pending.attempts >= params_.retry_budget) {
    // Budget spent: leave the request outstanding — the degraded-read
    // path (park + reroute) still delivers it eventually.
    ++stats_.retries_exhausted;
    return;
  }
  ++pending.attempts;
  ++stats_.request_retries;
  // Re-send against the first live replica (possibly a different node
  // than the original pick). The duplicate carries the same epoch
  // cookie and deadline; whichever reply lands first wins and the
  // straggler is dropped as a duplicate.
  pending.node = PostRequest(block, vid_->BlockBytes(block), pending.deadline);
  pending.last_send_time = env_->now();

  // Bounded exponential backoff before the next attempt.
  double backoff = params_.retry_backoff_base_sec *
                   static_cast<double>(1 << std::min(pending.attempts - 1, 6));
  ArmRetryTimer(block, env_->now() + backoff);
}

void Terminal::SessionFailover() {
  ++stats_.session_failovers;
  if (admission_ != nullptr) admission_->Readmit(id_);
  obs::TraceInstant(env_, obs::TraceCategory::kTerminal, "session_failover",
                    obs::Tracer::kTerminalsPid, id_,
                    {{"video", static_cast<double>(video_)},
                     {"position_sec", ConsumedPlaybackTime()}});
  // Abandon every outstanding request (their replies go stale via the
  // epoch bump) and re-prime the whole stream from the consumption
  // point; the fresh requests route to surviving replicas. A leader's
  // share group migrates implicitly — followers mirror the leader's
  // stream and never issue I/O of their own. A mid-patch catch-up
  // stream turns private (its sync point dies with the reset). A
  // session caught mid-pause returns to the pause once re-primed.
  const bool was_paused = state_ == State::kPaused;
  if (share_role_ == ShareRole::kPatcher) DepartSharedGroup();
  state_ = State::kPriming;
  ++stats_.primes;
  prime_start_ = env_->now();
  ResetStreamAt(next_frame_);
  resume_paused_ = was_paused;
  IssueRequests();
}

}  // namespace spiffi::client
