// A proxy cache node: the middle tier between terminals and origin
// nodes.
//
// Terminals assigned to this proxy send every block request here
// instead of to the owning origin node. The proxy keeps a bounded
// membership cache of recently served blocks (proxy/proxy_cache.h):
//
//   hit      reply to the terminal immediately — the block is resident
//            at the proxy, so neither the origin node nor the backbone
//            between them is touched.
//   attach   a forward for the same block is already in flight to the
//            origin; the request joins its waiter list and is answered
//            by the same origin reply (the proxy-tier analogue of the
//            buffer pool's I/O attach).
//   miss     the request is forwarded to the first live origin copy of
//            the block, primary first, from Layout::Replicas() — the same
//            failover order terminals use in the flat topology; the
//            reply fills the cache and fans out to every waiter.
//
// The proxy charges no CPU (like terminals, it is modelled as dedicated
// switching hardware per §5.1); its cost model is purely the extra wire
// hops, and its benefit is every origin round trip a hit avoids.
// Popularity-aware policies digest measured reference counts on a
// periodic recompute process. All state is per-proxy and message
// handling is single-threaded coroutine-free code, so runs are
// bit-identical at any --jobs N.

#ifndef SPIFFI_PROXY_PROXY_NODE_H_
#define SPIFFI_PROXY_PROXY_NODE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fault/state.h"
#include "hw/network.h"
#include "layout/layout.h"
#include "mpeg/video.h"
#include "proxy/proxy_cache.h"
#include "server/message.h"
#include "server/server.h"
#include "sim/environment.h"
#include "sim/process.h"
#include "sim/stats.h"

namespace spiffi::proxy {

struct ProxyParams {
  int id = 0;
  std::int64_t cache_pages = 256;  // in stripe blocks
  ProxyPolicy policy = ProxyPolicy::kLru;
  double recompute_sec = 30.0;  // re-rank / re-quota period
  // Forward retry (0 = off). When on, each miss forward is covered by a
  // watchdog that re-forwards to the next live origin copy after a
  // timeout, with bounded exponential backoff between attempts.
  int retry_budget = 0;
  double retry_min_timeout_sec = 0.25;
  double retry_backoff_base_sec = 0.25;
};

class ProxyNode final : public server::MessageSink {
 public:
  struct Stats {
    std::uint64_t references = 0;  // terminal requests received
    std::uint64_t hits = 0;        // served from the proxy cache
    std::uint64_t attaches = 0;    // joined an in-flight forward
    std::uint64_t forwards = 0;    // misses forwarded to an origin node
    std::uint64_t bytes_from_cache = 0;  // payload bytes hits saved
    std::uint64_t forward_retries = 0;  // watchdog re-forwards
    std::uint64_t stale_replies = 0;    // late duplicates after a retry
    sim::Tally forward_latency;    // forward -> origin reply (seconds)
  };

  // `origin` (usually the VideoServer) resolves origin node sinks;
  // `fault` may be nullptr (forwards always target the primary copy).
  ProxyNode(sim::Environment* env, const ProxyParams& params,
            hw::Network* network, server::NodeDirectory* origin,
            const layout::Layout* layout,
            const mpeg::VideoLibrary* library,
            const fault::FaultState* fault = nullptr);

  ProxyNode(const ProxyNode&) = delete;
  ProxyNode& operator=(const ProxyNode&) = delete;

  // Terminal requests and origin replies both arrive here.
  void OnMessage(const server::Message& message) override;

  int id() const { return params_.id; }
  ProxyCache& cache() { return cache_; }
  const ProxyCache& cache() const { return cache_; }
  const Stats& stats() const { return stats_; }
  // Popularity counts live in the cache and persist (measurement, not
  // windowed statistic); only the counters reset.
  void ResetStats();

 private:
  void HandleRequest(const server::Message& message);
  void HandleReply(const server::Message& message);
  // First live origin copy for the block (primary first), preferring a
  // node other than `avoid_node` so a retry lands on a fresh replica.
  int PickOriginNode(int video, std::int64_t block, int avoid_node) const;
  // Periodic popularity digestion for the rank/quota policies.
  sim::Process RecomputeLoop();
  // Re-forwards `key` while it stays pending, up to the retry budget.
  // `generation` pins the watchdog to the PendingForward it was spawned
  // for: if that forward resolves and the same key misses again before
  // the next wake, the stale watchdog exits instead of prematurely
  // retrying the new forward (which has a watchdog of its own).
  sim::Process ForwardWatchdog(server::PageKey key,
                               std::uint64_t generation);

  // One terminal waiting on an in-flight forward.
  struct Waiter {
    server::MessageSink* sink = nullptr;
    int terminal = -1;
    std::uint64_t cookie = 0;
  };
  struct PendingForward {
    sim::SimTime forward_time = 0.0;
    std::vector<Waiter> waiters;  // arrival order
    server::Message request;      // the forwarded message, for retries
    int last_node = -1;           // origin node of the latest attempt
    int attempts = 0;             // retries so far (first send is free)
    std::uint64_t generation = 0; // distinguishes re-misses of one key
  };

  sim::Environment* env_;
  ProxyParams params_;
  hw::Network* network_;
  server::NodeDirectory* origin_;
  const layout::Layout* layout_;
  const fault::FaultState* fault_;

  ProxyCache cache_;
  std::unordered_map<server::PageKey, PendingForward, server::PageKeyHash>
      pending_;
  std::uint64_t forward_gen_ = 0;  // generation of the latest forward
  Stats stats_;
  std::int32_t trace_pid_;
};

}  // namespace spiffi::proxy

#endif  // SPIFFI_PROXY_PROXY_NODE_H_
