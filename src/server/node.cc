#include "server/node.h"

#include <algorithm>

#include "fault/state.h"
#include "obs/trace.h"
#include "server/server.h"
#include "sim/check.h"

namespace spiffi::server {

Node::Node(sim::Environment* env, const NodeConfig& config,
           hw::Network* network, const mpeg::VideoLibrary* library,
           const layout::Layout* layout, NodeDirectory* peers,
           const fault::FaultState* fault)
    : env_(env),
      config_(config),
      network_(network),
      library_(library),
      layout_(layout),
      peers_(peers),
      fault_(fault),
      cpu_(env, config.cpu_mips),
      pool_(env, config.pool_pages, config.replacement) {
  SPIFFI_CHECK(env != nullptr);
  SPIFFI_CHECK(network != nullptr);
  SPIFFI_CHECK(library != nullptr);
  SPIFFI_CHECK(layout != nullptr);
  const std::int32_t pid = obs::Tracer::kNodePidBase + config.id;
  pool_.SetTraceTrack(pid);
  disks_.reserve(config.disks_per_node);
  prefetchers_.reserve(config.disks_per_node);
  for (int d = 0; d < config.disks_per_node; ++d) {
    int global = config.id * config.disks_per_node + d;
    disks_.push_back(std::make_unique<hw::Disk>(
        env, config.disk, MakeDiskScheduler(config.sched), global, this));
    disks_.back()->SetTraceTrack(pid, obs::Tracer::kDiskTidBase + d);
    prefetchers_.push_back(std::make_unique<Prefetcher>(
        env, config.prefetch, config.prefetch_workers,
        config.max_advance_prefetch_sec, &pool_, &cpu_, disks_[d].get(),
        config.costs));
    prefetchers_.back()->SetTraceTrack(pid, obs::Tracer::kDiskTidBase + d);
  }
  if (config.prefix_cache_fraction > 0.0) {
    prefix_budget_pages_ = static_cast<std::int64_t>(
        static_cast<double>(config.pool_pages) *
        config.prefix_cache_fraction);
    // Pinned pages are exempt from eviction; leave Allocate at least
    // half the pool no matter what the caller asked for.
    prefix_budget_pages_ =
        std::min(prefix_budget_pages_, config.pool_pages / 2);
    video_refs_.assign(library->count(), 0);
    prefix_quota_.assign(library->count(), 0);
    if (prefix_budget_pages_ > 0) env->Spawn(PrefixManager());
  }
}

sim::Process Node::PrefixManager() {
  for (;;) {
    co_await env_->Hold(config_.prefix_recompute_sec);
    RecomputePrefixQuotas();
  }
}

void Node::MaybePinPrefix(BufferPool::Page* page) {
  if (prefix_budget_pages_ <= 0 || page->pinned_prefix || !page->valid) {
    return;
  }
  if (page->key.block >= prefix_quota_[page->key.video]) return;
  if (pool_.pinned_pages() >= prefix_budget_pages_) return;
  pool_.PinPrefix(page);
}

void Node::RecomputePrefixQuotas() {
  if (prefix_budget_pages_ <= 0) return;
  std::uint64_t total = 0;
  for (std::uint64_t refs : video_refs_) total += refs;
  if (total == 0) return;  // no demand measured yet; keep current quotas

  // Popularity-proportional prefix sizing (arXiv:1003.4049): each video
  // earns a prefix share of the budget equal to its measured share of
  // demand. Quotas are global block indexes; striping spreads a global
  // prefix range evenly across nodes, so a budget of B local pages
  // supports roughly B * num_nodes global prefix blocks. The pin-time
  // budget check in MaybePinPrefix bounds the error for other layouts.
  const int videos = library_->count();
  const double budget_blocks = static_cast<double>(prefix_budget_pages_) *
                               std::max(config_.num_nodes, 1);
  for (int v = 0; v < videos; ++v) {
    double share =
        static_cast<double>(video_refs_[v]) / static_cast<double>(total);
    prefix_quota_[v] =
        std::min(static_cast<std::int64_t>(share * budget_blocks),
                 library_->NumBlocks(v));
  }

  // Shrunk quotas release their pages back to normal eviction...
  pool_.ReconcilePinned([this](const PageKey& key) {
    return key.block < prefix_quota_[key.video];
  });

  // ...and grown quotas warm their missing local blocks through the
  // regular prefetch path, most popular video first, while pin budget
  // remains. Deadlines are lazy: resident by about the next recompute.
  std::vector<int> order(videos);
  for (int v = 0; v < videos; ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [this](int a, int b) {
    if (video_refs_[a] != video_refs_[b]) {
      return video_refs_[a] > video_refs_[b];
    }
    return a < b;
  });
  std::int64_t room = prefix_budget_pages_ - pool_.pinned_pages();
  for (int v : order) {
    if (room <= 0) break;
    for (std::int64_t b = 0; b < prefix_quota_[v] && room > 0; ++b) {
      layout::BlockLocation loc = LocalReplica(v, b);
      if (loc.node != config_.id) continue;
      if (pool_.Lookup(PageKey{v, b}) != nullptr) continue;
      if (fault_ != nullptr && !fault_->LocationUp(loc)) continue;
      PrefetchTask task;
      task.key = PageKey{v, b};
      task.disk_offset = loc.offset;
      task.bytes = library_->BlockBytes(v, b);
      task.terminal = -1;
      task.est_deadline = env_->now() + config_.prefix_recompute_sec;
      prefetchers_[loc.disk_local]->Enqueue(task);
      --room;
    }
  }
}

void Node::OnMessage(const Message& message) {
  SPIFFI_DCHECK(message.kind == Message::Kind::kReadRequest);
  env_->Spawn(HandleRead(message));
}

void Node::OnDiskComplete(hw::DiskRequest* request) {
  auto* page = static_cast<BufferPool::Page*>(request->context);
  SPIFFI_DCHECK(page != nullptr);
  pool_.Complete(page);
  // Freshly landed in-quota prefix blocks (demand or prefetch, which
  // includes the warming reads) pin immediately.
  MaybePinPrefix(page);
}

layout::BlockLocation Node::LocalReplica(int video,
                                         std::int64_t block) const {
  layout::BlockLocation loc = layout_->Locate(video, block);
  if (loc.node == config_.id || fault_ == nullptr) return loc;
  for (const layout::BlockLocation& copy :
       layout_->Replicas(video, block)) {
    if (copy.node == config_.id) return copy;
  }
  return loc;
}

bool Node::FindLiveReplica(int video, std::int64_t block,
                           layout::BlockLocation* out) const {
  SPIFFI_DCHECK(fault_ != nullptr);
  for (const layout::BlockLocation& copy :
       layout_->Replicas(video, block)) {
    if (copy.node != config_.id && fault_->LocationUp(copy)) {
      *out = copy;
      return true;
    }
  }
  return false;
}

void Node::TriggerPrefetch(int video, std::int64_t block,
                           sim::SimTime reference_deadline, int terminal) {
  if (config_.prefetch == PrefetchPolicy::kNone) return;
  std::int64_t next = layout_->NextBlockOnSameDisk(video, block);
  if (next < 0) return;
  PageKey key{video, next};
  if (pool_.Lookup(key) != nullptr) return;  // already cached / in flight

  // Chained declustering keeps replica chains disk-aligned, so the copy
  // of `next` this node holds is on the same local disk as the copy of
  // `block` just referenced — the same-disk prefetch rule survives
  // re-routing unchanged.
  layout::BlockLocation loc = LocalReplica(video, next);
  SPIFFI_DCHECK(loc.node == config_.id);
  if (fault_ != nullptr && !fault_->LocationUp(loc)) {
    ++fault_stats_.prefetches_skipped_dead;
    obs::TraceInstant(env_, obs::TraceCategory::kPrefetch,
                      "prefetch_skip_dead_disk",
                      obs::Tracer::kNodePidBase + config_.id,
                      obs::Tracer::kDiskTidBase + loc.disk_local,
                      {{"block", static_cast<double>(next)}});
    return;
  }

  PrefetchTask task;
  task.key = key;
  task.disk_offset = loc.offset;
  task.bytes = library_->BlockBytes(video, next);
  task.terminal = terminal;
  // Estimate the deadline the anticipated true request will carry: the
  // reference's deadline shifted by the playback time between the blocks.
  if (reference_deadline < sim::kSimTimeMax) {
    double gap =
        library_->BlockPlaybackTime(video, next) -
        library_->BlockPlaybackTime(video, block);
    task.est_deadline = reference_deadline + gap;
  }
  prefetchers_[loc.disk_local]->Enqueue(task);
}

sim::Process Node::HandleRead(Message message) {
  const std::int32_t trace_pid = obs::Tracer::kNodePidBase + config_.id;
  const sim::SimTime hop_arrival = env_->now();
  ReadTiming timing;
  // A re-routed request keeps the receive time of its first hop, so
  // ServerSeconds() covers the whole degraded journey; the residence
  // time of earlier hops arrives pre-charged in fault_wait_sec.
  timing.node_received =
      message.hops > 0 ? message.timing.node_received : hop_arrival;
  timing.fault_wait_sec = message.timing.fault_wait_sec;
  std::uint64_t span = obs::TraceAsyncBegin(
      env_, obs::TraceCategory::kServer, "server_read", trace_pid,
      {{"terminal", static_cast<double>(message.terminal)},
       {"block", static_cast<double>(message.block)},
       {"hops", static_cast<double>(message.hops)}});

  co_await cpu_.Execute(config_.costs.receive_message_instructions);

  PageKey key{message.video, message.block};
  if (prefix_budget_pages_ > 0) {
    // Demand popularity for prefix sizing: every locally served
    // reference counts toward its video.
    ++video_refs_[message.video];
  }

  if (config_.prefetch_trigger == PrefetchTrigger::kOnReference) {
    // Aggressive: every real reference drives the prefetcher.
    TriggerPrefetch(message.video, message.block, message.deadline,
                    message.terminal);
  }

  BufferPool::Page* page = nullptr;
  for (;;) {
    page = pool_.Lookup(key);
    if (page != nullptr) {
      pool_.RecordReference(page, message.terminal);
      pool_.Pin(page);
      if (page->io_in_flight) {
        timing.path = ReadTiming::Path::kAttach;
        // Attach to the outstanding read; make sure it is scheduled at
        // least as urgently as this reference requires. The read may not
        // have reached the disk yet (its issuer is still queued on the
        // CPU) — urgent_deadline covers that window.
        if (message.deadline < page->urgent_deadline) {
          page->urgent_deadline = message.deadline;
        }
        if (page->inflight_request != nullptr &&
            message.deadline < page->inflight_request->deadline) {
          page->inflight_request->deadline = message.deadline;
        }
        (void)co_await pool_.Ready(page).Wait();
      }
      if (timing.path == ReadTiming::Path::kUnknown) {
        timing.path = ReadTiming::Path::kHit;
      }
      pool_.Touch(page, message.terminal);
      MaybePinPrefix(page);
      break;
    }

    // Miss: the read must touch a disk. If our copy of the block is
    // down, re-route to a surviving replica (within the hop budget) or
    // park until a repair, re-checking sooner as the deadline nears.
    if (fault_ != nullptr) {
      layout::BlockLocation local =
          LocalReplica(message.video, message.block);
      if (!fault_->LocationUp(local)) {
        sim::SimTime wait_start = env_->now();
        bool waited = false;
        for (;;) {
          layout::BlockLocation alt;
          if (message.hops < config_.fault_hop_budget &&
              peers_ != nullptr &&
              FindLiveReplica(message.video, message.block, &alt)) {
            ++fault_stats_.rerouted_requests;
            if (waited) ++fault_stats_.degraded_waits;
            Message forward = message;
            ++forward.hops;
            // Charge this hop's whole residence (receive CPU + parked
            // time) to the fault stage.
            forward.timing.node_received = timing.node_received;
            forward.timing.fault_wait_sec =
                message.timing.fault_wait_sec + (env_->now() - hop_arrival);
            obs::TraceAsyncEnd(
                env_, obs::TraceCategory::kServer, "server_read",
                trace_pid, span,
                {{"rerouted_to", static_cast<double>(alt.node)}});
            obs::TraceInstant(env_, obs::TraceCategory::kFault, "reroute",
                              obs::Tracer::kFaultPid, local.disk_global,
                              {{"disk", static_cast<double>(
                                            local.disk_global)},
                               {"to_node", static_cast<double>(alt.node)},
                               {"block", static_cast<double>(
                                             message.block)}});
            PostMessage(env_, network_, kControlMessageBytes,
                        peers_->node_sink(alt.node), forward);
            co_return;
          }
          waited = true;
          double delay = config_.fault_recheck_sec;
          double until_deadline = message.deadline - env_->now();
          if (until_deadline > 0.0 && until_deadline < delay) {
            delay = std::max(until_deadline, delay * 0.125);
          }
          co_await env_->Hold(delay);
          if (fault_->LocationUp(local)) break;
        }
        ++fault_stats_.degraded_waits;
        timing.fault_wait_sec += env_->now() - wait_start;
        continue;  // re-run the lookup: the block may have landed meanwhile
      }
    }

    page = pool_.Allocate(key, /*for_prefetch=*/false);
    if (page == nullptr) {
      (void)co_await pool_.free_pages().Wait();
      continue;  // re-check Lookup: someone may have started this block
    }
    pool_.RecordMiss();

    if (config_.prefetch_trigger == PrefetchTrigger::kOnMiss) {
      // Limited: only demand reads that reach the disk spawn prefetches.
      TriggerPrefetch(message.video, message.block, message.deadline,
                      message.terminal);
    }

    layout::BlockLocation loc = LocalReplica(message.video, message.block);
    SPIFFI_DCHECK(loc.node == config_.id);

    co_await cpu_.Execute(config_.costs.start_io_instructions);

    hw::DiskRequest request;
    request.video = message.video;
    request.block = message.block;
    request.disk_offset = loc.offset;
    request.bytes = library_->BlockBytes(message.video, message.block);
    request.deadline = std::min(message.deadline, page->urgent_deadline);
    request.terminal = message.terminal;
    request.context = page;
    page->inflight_request = &request;
    disks_[loc.disk_local]->Submit(&request);

    (void)co_await pool_.Ready(page).Wait();
    timing.path = ReadTiming::Path::kMiss;
    timing.disk_queue_sec = request.queue_wait_sec;
    timing.disk_service_sec = request.service_sec;
    pool_.Touch(page, message.terminal);
    break;
  }

  // Reply with the block payload.
  co_await cpu_.Execute(config_.costs.send_message_instructions);
  Message reply;
  reply.kind = Message::Kind::kReadReply;
  reply.terminal = message.terminal;
  reply.video = message.video;
  reply.block = message.block;
  reply.bytes = library_->BlockBytes(message.video, message.block);
  reply.cookie = message.cookie;
  reply.hops = message.hops;
  timing.reply_sent = env_->now();
  reply.timing = timing;
  obs::TraceAsyncEnd(env_, obs::TraceCategory::kServer, "server_read",
                     trace_pid, span,
                     {{"path", static_cast<double>(
                                   static_cast<int>(timing.path))},
                      {"disk_queue_ms", timing.disk_queue_sec * 1e3},
                      {"disk_service_ms", timing.disk_service_sec * 1e3}});
  PostMessage(env_, network_, reply.bytes, message.reply_to, reply);
  pool_.Unpin(page);
}

void Node::ResetStats(sim::SimTime now) {
  cpu_.ResetStats(now);
  pool_.ResetStats();
  for (auto& disk : disks_) disk->ResetStats(now);
  for (auto& prefetcher : prefetchers_) prefetcher->ResetStats();
  fault_stats_ = FaultStats{};
}

}  // namespace spiffi::server
