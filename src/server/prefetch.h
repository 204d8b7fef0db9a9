// Prefetching engines (paper §5.2.3).
//
// One Prefetcher serves one disk. Real references enqueue a task for the
// next stripe block on the same disk; a fixed set of prefetch worker
// processes drain the queue — the worker count is the prefetching
// "aggressiveness", bounding how many prefetch reads can sit in the disk
// queue at once.
//
// Policies:
//  * kFifo     — the basic SPIFFI mechanism: a FIFO queue; issued
//                prefetch requests carry no deadline (lowest priority
//                under real-time scheduling, indistinguishable from real
//                work under elevator).
//  * kRealTime — tasks carry the estimated deadline of the anticipated
//                true request and are issued most-urgent-first; the disk
//                request inherits the deadline so an urgent prefetch can
//                overtake a non-urgent true request.
//  * kDelayed  — real-time prefetching, but a task may not be issued
//                earlier than max_advance before its estimated deadline
//                (Fig 7), bounding the memory a prefetched page occupies
//                before it is consumed.

#ifndef SPIFFI_SERVER_PREFETCH_H_
#define SPIFFI_SERVER_PREFETCH_H_

#include <cstdint>
#include <vector>

#include "hw/cpu.h"
#include "hw/disk.h"
#include "server/buffer_pool.h"
#include "sim/environment.h"
#include "sim/flat_table.h"
#include "sim/process.h"
#include "sim/wait_list.h"

namespace spiffi::server {

enum class PrefetchPolicy { kNone, kFifo, kRealTime, kDelayed };
// Names in enumerator order.
inline constexpr const char* kPrefetchPolicyNames[] = {"none", "fifo",
                                                       "real-time", "delayed"};

// How aggressively prefetches are generated (§5.2.3: "the prefetching
// mechanism was configured to maximize the performance of the disk
// scheduling algorithm in use").
//  * kOnMiss      — limited: only a demand read that actually went to
//                   disk triggers a prefetch of the next block, keeping
//                   prefetch traffic from interfering with real requests
//                   (the paper's elevator/GSS/round-robin setting).
//  * kOnReference — aggressive: every real reference triggers a prefetch,
//                   so a sequential stream stays continuously covered
//                   (the paper's real-time scheduling setting, viable
//                   because urgent real requests can overtake prefetches).
enum class PrefetchTrigger { kOnMiss, kOnReference };

const char* PrefetchPolicyName(PrefetchPolicy policy);

struct PrefetchTask {
  PageKey key;
  std::int64_t disk_offset = 0;
  std::int64_t bytes = 0;
  sim::SimTime est_deadline = sim::kSimTimeMax;
  int terminal = -1;
};

class Prefetcher {
 public:
  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t issued = 0;       // disk reads actually started
    std::uint64_t already_cached = 0;  // dropped at issue time
    std::uint64_t dropped_disk_down = 0;  // disk failed after enqueue
  };

  Prefetcher(sim::Environment* env, PrefetchPolicy policy, int num_workers,
             double max_advance_sec, BufferPool* pool, hw::Cpu* cpu,
             hw::Disk* disk, const hw::CpuCosts& costs);

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  // Queues a prefetch; duplicates of already-pending tasks are dropped.
  void Enqueue(const PrefetchTask& task);

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }
  std::size_t queue_length() const { return queue_.size(); }
  PrefetchPolicy policy() const { return policy_; }

  // Perfetto track prefetch events render on — the owning node points it
  // at the serviced disk's track.
  void SetTraceTrack(std::int32_t pid, std::int32_t tid) {
    trace_pid_ = pid;
    trace_tid_ = tid;
  }

 private:
  // One queued task plus its arrival sequence number. The queue is a
  // binary min-heap ordered by (est_deadline, seq) for the deadline
  // policies and by seq alone for kFifo; the seq tie-break keeps the heap
  // stable, so pop order is identical to the former first-minimum linear
  // scan while each pop costs O(log n) instead of O(n).
  struct QueuedTask {
    PrefetchTask task;
    std::uint64_t seq = 0;
  };

  sim::Process Worker();

  // Heap ordering predicate ("a fires after b").
  bool LaterTask(const QueuedTask& a, const QueuedTask& b) const;

  // Removes and returns the next task: FIFO order for kFifo, earliest
  // estimated deadline (stable on ties) otherwise. O(log n).
  PrefetchTask PopNext();
  // Earliest estimated deadline among queued tasks; only meaningful for
  // the deadline-ordered policies. O(1).
  sim::SimTime MinDeadline() const;

  sim::Environment* env_;
  PrefetchPolicy policy_;
  double max_advance_sec_;
  BufferPool* pool_;
  hw::Cpu* cpu_;
  hw::Disk* disk_;
  hw::CpuCosts costs_;

  std::vector<QueuedTask> queue_;  // heap (see QueuedTask)
  std::uint64_t next_seq_ = 0;
  // Keys queued or being read: 16-byte slots (the key alone), grown on
  // demand.
  sim::FlatSet<PageKey, PageKeyHash> pending_;
  sim::WaitList arrivals_;
  Stats stats_;
  std::int32_t trace_pid_ = 0;
  std::int32_t trace_tid_ = 0;
};

}  // namespace spiffi::server

#endif  // SPIFFI_SERVER_PREFETCH_H_
