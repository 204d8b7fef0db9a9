#include "proxy/proxy_node.h"

#include <algorithm>

#include "obs/trace.h"
#include "obs/tracer.h"
#include "sim/check.h"

namespace spiffi::proxy {

ProxyNode::ProxyNode(sim::Environment* env, const ProxyParams& params,
                     hw::Network* network, server::NodeDirectory* origin,
                     const layout::Layout* layout,
                     const mpeg::VideoLibrary* library,
                     const fault::FaultState* fault)
    : env_(env),
      params_(params),
      network_(network),
      origin_(origin),
      layout_(layout),
      fault_(fault),
      cache_(params.cache_pages, params.policy,
             [&] {
               std::vector<std::int64_t> blocks(library->count());
               for (int v = 0; v < library->count(); ++v) {
                 blocks[v] = library->NumBlocks(v);
               }
               return blocks;
             }()),
      trace_pid_(obs::Tracer::kProxyPidBase + params.id) {
  SPIFFI_CHECK(env != nullptr);
  SPIFFI_CHECK(network != nullptr);
  SPIFFI_CHECK(origin != nullptr);
  SPIFFI_CHECK(layout != nullptr);
  if (params_.policy != ProxyPolicy::kLru && params_.recompute_sec > 0.0) {
    env_->Spawn(RecomputeLoop());
  }
}

void ProxyNode::OnMessage(const server::Message& message) {
  switch (message.kind) {
    case server::Message::Kind::kReadRequest:
      HandleRequest(message);
      return;
    case server::Message::Kind::kReadReply:
      HandleReply(message);
      return;
  }
}

void ProxyNode::HandleRequest(const server::Message& message) {
  cache_.RecordReference(message.video);
  ++stats_.references;

  const server::PageKey key{message.video, message.block};
  if (cache_.Contains(message.video, message.block)) {
    // Hit: answer from the proxy, never touching the origin tier. The
    // proxy charges no node time (dedicated hardware, see the header).
    cache_.Touch(message.video, message.block);
    ++stats_.hits;
    stats_.bytes_from_cache += static_cast<std::uint64_t>(message.bytes);
    server::Message reply = message;
    reply.kind = server::Message::Kind::kReadReply;
    reply.reply_to = nullptr;
    reply.timing.node_received = env_->now();
    reply.timing.reply_sent = env_->now();
    reply.timing.path = server::ReadTiming::Path::kHit;
    obs::TraceInstant(env_, obs::TraceCategory::kProxy, "hit", trace_pid_,
                      obs::Tracer::kCpuTid);
    server::PostMessage(env_, network_, reply.bytes, message.reply_to, reply);
    return;
  }

  auto pending = pending_.find(key);
  if (pending != pending_.end()) {
    // A forward for this block is already in flight: attach to it.
    ++stats_.attaches;
    pending->second.waiters.push_back(
        Waiter{message.reply_to, message.terminal, message.cookie});
    obs::TraceInstant(env_, obs::TraceCategory::kProxy, "attach", trace_pid_,
                      obs::Tracer::kCpuTid);
    return;
  }

  // Miss: forward to the first live origin copy, primary first — the
  // same failover order terminals use in the flat topology.
  ++stats_.forwards;
  PendingForward& forward = pending_[key];
  forward.forward_time = env_->now();
  forward.generation = ++forward_gen_;
  forward.waiters.push_back(
      Waiter{message.reply_to, message.terminal, message.cookie});

  const int target_node =
      PickOriginNode(message.video, message.block, -1);

  server::Message fwd = message;
  fwd.reply_to = this;
  forward.request = fwd;
  forward.last_node = target_node;
  obs::TraceInstant(env_, obs::TraceCategory::kProxy, "forward", trace_pid_,
                    obs::Tracer::kCpuTid);
  server::PostMessage(env_, network_, server::kControlMessageBytes,
                      origin_->node_sink(target_node), fwd);
  if (params_.retry_budget > 0) {
    env_->Spawn(ForwardWatchdog(key, forward.generation));
  }
}

int ProxyNode::PickOriginNode(int video, std::int64_t block,
                              int avoid_node) const {
  const std::vector<layout::BlockLocation> copies =
      layout_->Replicas(video, block);
  const int primary = copies.front().node;
  if (fault_ == nullptr) return primary;
  int first_live = -1;
  for (const layout::BlockLocation& loc : copies) {
    if (!fault_->LocationUp(loc)) continue;
    if (first_live < 0) first_live = loc.node;
    if (loc.node != avoid_node) return loc.node;
  }
  // Only the avoided node is live: better a retry there than nowhere.
  if (first_live >= 0) return first_live;
  // All copies down: fall through to the primary; the origin's own
  // degraded-read machinery parks the request until a copy returns.
  return primary;
}

void ProxyNode::HandleReply(const server::Message& message) {
  const server::PageKey key{message.video, message.block};
  auto it = pending_.find(key);
  if (it == pending_.end()) {
    // Late duplicate: a watchdog re-forward and the original both got
    // answered, and the first reply already fanned out to the waiters.
    ++stats_.stale_replies;
    cache_.Insert(message.video, message.block);
    return;
  }
  stats_.forward_latency.Add(env_->now() - it->second.forward_time);
  cache_.Insert(message.video, message.block);
  obs::TraceCounter(env_, obs::TraceCategory::kProxy, "cached_pages",
                    trace_pid_, obs::Tracer::kCpuTid,
                    static_cast<double>(cache_.pages_in_use()));
  // Fan the origin reply out to every waiter, re-addressed per terminal.
  // The vector is moved out first: PostMessage delivery is deferred, but
  // erase invalidates the PendingForward either way.
  std::vector<Waiter> waiters = std::move(it->second.waiters);
  pending_.erase(it);
  for (const Waiter& waiter : waiters) {
    server::Message reply = message;
    reply.terminal = waiter.terminal;
    reply.cookie = waiter.cookie;
    reply.reply_to = nullptr;
    server::PostMessage(env_, network_, reply.bytes, waiter.sink, reply);
  }
}

void ProxyNode::ResetStats() {
  stats_ = Stats();
  cache_.ResetStats();
}

sim::Process ProxyNode::RecomputeLoop() {
  for (;;) {
    co_await env_->Hold(params_.recompute_sec);
    cache_.Recompute();
  }
}

sim::Process ProxyNode::ForwardWatchdog(server::PageKey key,
                                        std::uint64_t generation) {
  double timeout = params_.retry_min_timeout_sec;
  for (;;) {
    co_await env_->Hold(timeout);
    auto it = pending_.find(key);
    if (it == pending_.end()) co_return;  // a reply resolved the forward
    if (it->second.generation != generation) {
      // Our forward resolved and the key missed again (cache eviction in
      // between): the new forward has its own watchdog — leave it alone.
      co_return;
    }
    PendingForward& forward = it->second;
    if (forward.attempts >= params_.retry_budget) co_return;
    ++forward.attempts;
    ++stats_.forward_retries;
    const int target =
        PickOriginNode(key.video, key.block, forward.last_node);
    forward.last_node = target;
    obs::TraceInstant(env_, obs::TraceCategory::kProxy, "forward_retry",
                      trace_pid_, obs::Tracer::kCpuTid);
    server::PostMessage(env_, network_, server::kControlMessageBytes,
                        origin_->node_sink(target), forward.request);
    timeout = params_.retry_backoff_base_sec *
              static_cast<double>(1 << std::min(forward.attempts - 1, 6));
  }
}

}  // namespace spiffi::proxy
