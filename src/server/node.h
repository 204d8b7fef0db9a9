// A server node: one CPU, a buffer pool, and a set of disks with their
// schedulers and prefetchers (paper Fig 1).
//
// Read path for a terminal request (§5.2):
//   network -> receive CPU cost -> buffer pool lookup
//     hit       reply immediately from memory
//     in flight pin the page, boost the pending disk request's deadline,
//               wait for the I/O (the paper's inter-terminal sharing)
//     miss      claim a page (waiting for a free one if necessary),
//               start-I/O CPU cost, queue the read at the proper disk,
//               wait for completion
//   every real reference also triggers a background prefetch of the next
//   stripe block on the same disk, carrying an estimated deadline.
//   send CPU cost -> reply (block payload) over the network.

#ifndef SPIFFI_SERVER_NODE_H_
#define SPIFFI_SERVER_NODE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/cpu.h"
#include "hw/disk.h"
#include "hw/network.h"
#include "layout/layout.h"
#include "mpeg/video.h"
#include "server/buffer_pool.h"
#include "server/disk_sched.h"
#include "server/message.h"
#include "server/prefetch.h"
#include "sim/environment.h"
#include "sim/process.h"

namespace spiffi::fault {
class FaultState;
}  // namespace spiffi::fault

namespace spiffi::server {

class NodeDirectory;  // server.h; needed to forward degraded reads

struct NodeConfig {
  int id = 0;
  int disks_per_node = 4;
  double cpu_mips = 40.0;
  hw::CpuCosts costs;
  hw::DiskParams disk;
  DiskSchedParams sched;
  std::int64_t pool_pages = 2048;
  ReplacementPolicy replacement = ReplacementPolicy::kGlobalLru;
  PrefetchPolicy prefetch = PrefetchPolicy::kFifo;
  PrefetchTrigger prefetch_trigger = PrefetchTrigger::kOnMiss;
  int prefetch_workers = 1;
  double max_advance_prefetch_sec = 8.0;
  // Degraded-read tuning (mirrors fault::FaultPlan; only consulted when
  // a fault state is attached): maximum re-route forwards per request,
  // and the recovery re-check period while no replica is alive.
  int fault_hop_budget = 2;
  double fault_recheck_sec = 0.25;
  // Pinned prefix cache: the node dedicates up to
  // pool_pages * prefix_cache_fraction pages to the first blocks of
  // popular videos, re-sizing per-video quotas from measured demand
  // every prefix_recompute_sec (0 fraction disables the machinery
  // entirely). num_nodes scales local page budget to global prefix
  // blocks under striping.
  double prefix_cache_fraction = 0.0;
  double prefix_recompute_sec = 30.0;
  int num_nodes = 1;
};

class Node final : public MessageSink, public hw::DiskCompletionListener {
 public:
  // `peers` (usually the owning VideoServer) and `fault` are optional:
  // without them the degraded-read machinery is compiled in but never
  // entered, so healthy runs are untouched.
  Node(sim::Environment* env, const NodeConfig& config,
       hw::Network* network, const mpeg::VideoLibrary* library,
       const layout::Layout* layout, NodeDirectory* peers = nullptr,
       const fault::FaultState* fault = nullptr);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Terminal read requests arrive here from the network.
  void OnMessage(const Message& message) override;
  // Disk reads complete here.
  void OnDiskComplete(hw::DiskRequest* request) override;

  int id() const { return config_.id; }
  hw::Cpu& cpu() { return cpu_; }
  const hw::Cpu& cpu() const { return cpu_; }
  BufferPool& pool() { return pool_; }
  const BufferPool& pool() const { return pool_; }
  hw::Disk& disk(int local) { return *disks_[local]; }
  const hw::Disk& disk(int local) const { return *disks_[local]; }
  Prefetcher& prefetcher(int local) { return *prefetchers_[local]; }
  const Prefetcher& prefetcher(int local) const {
    return *prefetchers_[local];
  }
  int num_disks() const { return static_cast<int>(disks_.size()); }

  // Degraded-mode counters (all zero when no faults are injected).
  struct FaultStats {
    std::uint64_t rerouted_requests = 0;   // forwarded to a live replica
    std::uint64_t degraded_waits = 0;      // parked awaiting a repair
    std::uint64_t prefetches_skipped_dead = 0;
  };
  const FaultStats& fault_stats() const { return fault_stats_; }

  // Pinned-prefix introspection (for tests and telemetry).
  std::int64_t prefix_budget_pages() const { return prefix_budget_pages_; }
  std::int64_t prefix_quota(int video) const {
    return prefix_quota_.empty() ? 0 : prefix_quota_[video];
  }
  // Recomputes quotas from the demand measured so far and reconciles
  // the pinned set (normally driven by the periodic PrefixManager).
  void RecomputePrefixQuotas();

  void ResetStats(sim::SimTime now);

 private:
  sim::Process HandleRead(Message message);
  // Periodic popularity -> quota recomputation.
  sim::Process PrefixManager();
  // Pins `page` if it is an in-quota prefix block and budget remains.
  void MaybePinPrefix(BufferPool::Page* page);

  // The copy of (video, block) this node serves: the primary if it is
  // ours, else the local replica. Falls back to the primary location
  // when no copy lives here (the caller must not submit it).
  layout::BlockLocation LocalReplica(int video, std::int64_t block) const;

  // First live replica of the block on another node, in chain order.
  bool FindLiveReplica(int video, std::int64_t block,
                       layout::BlockLocation* out) const;

  // Issues a prefetch for the next block of `video` on the same disk as
  // `block` (the basic SPIFFI rule), tagging it with the deadline the
  // true request is expected to carry.
  void TriggerPrefetch(int video, std::int64_t block,
                       sim::SimTime reference_deadline, int terminal);

  sim::Environment* env_;
  NodeConfig config_;
  hw::Network* network_;
  const mpeg::VideoLibrary* library_;
  const layout::Layout* layout_;
  NodeDirectory* peers_;
  const fault::FaultState* fault_;
  FaultStats fault_stats_;

  hw::Cpu cpu_;
  BufferPool pool_;
  std::vector<std::unique_ptr<hw::Disk>> disks_;
  std::vector<std::unique_ptr<Prefetcher>> prefetchers_;

  // Pinned prefix cache state (empty / zero when disabled). Demand
  // counts accumulate over the whole run — popularity is a measurement,
  // not a windowed statistic, so ResetStats leaves it alone.
  std::int64_t prefix_budget_pages_ = 0;
  std::vector<std::uint64_t> video_refs_;
  std::vector<std::int64_t> prefix_quota_;  // pin blocks [0, quota)
};

}  // namespace spiffi::server

#endif  // SPIFFI_SERVER_NODE_H_
