// Disk mechanism model: seek + settle + rotation + transfer, with a
// per-stream read-ahead cache, driven by a pluggable scheduling policy.
//
// The disk runs a service-loop process: whenever requests are pending it
// asks the scheduler policy for the next one, computes its mechanical
// service time from the current head position and platter angle, holds for
// that long, and fires the request's completion listener.
//
// Timing model
//   seek      settle + factor * sqrt(cylinder distance)  (0 for distance 0)
//   rotation  the platter spins continuously; the angular position of a
//             byte is its fractional offset within its cylinder, and the
//             delay is the angle still to travel when the seek completes
//   transfer  bytes / media rate, plus one settle per cylinder crossed
//   cache     if the disk was idle immediately before this request and the
//             request sequentially extends the most recently serviced
//             stream, the idle time is credited as read-ahead: up to one
//             cache context (128 KB) of the leading bytes skip the
//             mechanical path entirely. A busy disk gets no cache benefit,
//             matching real drives whose read-ahead only proceeds while
//             the mechanism is otherwise unused.

#ifndef SPIFFI_HW_DISK_H_
#define SPIFFI_HW_DISK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "hw/disk_params.h"
#include "sim/environment.h"
#include "sim/process.h"
#include "sim/stats.h"
#include "sim/wait_list.h"

namespace spiffi::hw {

// One outstanding disk read. Owned by the issuing layer (server node or
// prefetcher); the pointer must stay valid until OnDiskComplete fires.
struct DiskRequest {
  // Identity of the stripe block being read (for cache-stream matching
  // and debugging).
  std::int64_t video = -1;
  std::int64_t block = -1;

  // Physical location and size of the read on this disk.
  std::int64_t disk_offset = 0;
  std::int64_t bytes = 0;

  // Absolute simulated time by which the data is needed; kSimTimeMax for
  // requests without a deadline. Consumed by deadline-aware schedulers.
  sim::SimTime deadline = sim::kSimTimeMax;

  // True for background prefetch requests. Non-real-time schedulers treat
  // them like any other request (the paper's point); the real-time
  // scheduler ranks them purely by deadline.
  bool is_prefetch = false;

  // Terminal on whose behalf this read is issued (grouping key for GSS
  // and round-robin scheduling).
  int terminal = -1;

  // Arrival sequence number, assigned by Disk::Submit; schedulers use it
  // for FIFO tie-breaking.
  std::uint64_t seq = 0;

  // Filled in by the disk for observability: when the request entered
  // the queue, how long it waited for the head, and how long the
  // mechanical service took. Read back by the issuer after completion
  // (server nodes forward them to the terminal for glitch attribution).
  sim::SimTime submit_time = 0.0;
  double queue_wait_sec = 0.0;
  double service_sec = 0.0;
  std::uint64_t trace_id = 0;  // async-span id for the queue-wait span

  // Opaque issuer context (the server stores the buffer-pool page being
  // filled here); passed back untouched at completion.
  void* context = nullptr;

  std::int64_t start_cylinder(std::int64_t cylinder_bytes) const {
    return disk_offset / cylinder_bytes;
  }
};

// Completion callback interface.
class DiskCompletionListener {
 public:
  virtual void OnDiskComplete(DiskRequest* request) = 0;

 protected:
  ~DiskCompletionListener() = default;
};

// Scheduling policy hook. Implementations live in server/disk_sched.h.
// The disk guarantees Pop is only called when !empty().
class DiskScheduler {
 public:
  virtual ~DiskScheduler() = default;

  virtual void Push(DiskRequest* request) = 0;

  // Selects and removes the next request to service. `head_cylinder` is
  // the current head position; `now` the current simulated time (for
  // deadline-based priorities).
  virtual DiskRequest* Pop(std::int64_t head_cylinder, sim::SimTime now) = 0;

  virtual bool empty() const = 0;
  virtual std::size_t size() const = 0;

  // Human-readable policy name for reports.
  virtual std::string name() const = 0;
};

class Disk {
 public:
  Disk(sim::Environment* env, const DiskParams& params,
       std::unique_ptr<DiskScheduler> scheduler, int id,
       DiskCompletionListener* listener);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  // Hands a request to the scheduling policy and wakes the service loop.
  void Submit(DiskRequest* request);

  // Pure service-time query for a request starting from the given head
  // state; exposed for unit tests. Does not mutate the disk.
  double ServiceTimeFrom(std::int64_t head_cylinder, sim::SimTime start,
                         std::int64_t offset, std::int64_t bytes,
                         std::int64_t cached_bytes) const;

  void ResetStats(sim::SimTime now);

  // --- Fault hooks (driven by the fault-injection effect handler) ---

  // A failed disk stops picking requests: whatever is queued (and
  // whatever is submitted while down) waits until recovery; the read in
  // service when the failure hits still completes. Issuers are expected
  // to consult fault::FaultState before submitting, so parking rather
  // than erroring models the "requests never vanish" invariant the
  // terminals rely on.
  void SetFailed(bool failed);
  bool failed() const { return failed_; }

  // Service-time multiplier for transient "limp" degradation (>= 1;
  // exactly 1.0 restores bit-identical healthy timing).
  void SetServiceTimeScale(double scale);
  double service_time_scale() const { return service_scale_; }

  int id() const { return id_; }
  const DiskParams& params() const { return params_; }
  const DiskScheduler& scheduler() const { return *scheduler_; }
  std::int64_t head_cylinder() const { return head_cylinder_; }
  bool busy() const { return busy_.busy(); }
  std::size_t queue_length() const { return scheduler_->size(); }
  std::uint64_t requests_served() const { return served_; }
  std::uint64_t cache_hit_bytes() const { return cache_hit_bytes_; }
  double AverageUtilization(sim::SimTime now) const {
    return busy_.Average(now);
  }
  const sim::Tally& service_tally() const { return service_tally_; }
  const sim::Tally& seek_distance_tally() const { return seek_tally_; }
  // Queue wait: Submit -> scheduler pick, per request (seconds).
  const sim::Tally& queue_wait_tally() const { return queue_wait_tally_; }

  // Perfetto track this disk's events render on (set by the owning
  // node; defaults keep stand-alone disks on their own track).
  void SetTraceTrack(std::int32_t pid, std::int32_t tid) {
    trace_pid_ = pid;
    trace_tid_ = tid;
  }

 private:
  sim::Process ServiceLoop();

  // Read-ahead credit for `request` given the disk has been idle since
  // `idle_since` (0 credit when the stream does not continue).
  std::int64_t ReadAheadBytes(const DiskRequest& request,
                              sim::SimTime now) const;

  sim::Environment* env_;
  DiskParams params_;
  std::unique_ptr<DiskScheduler> scheduler_;
  int id_;
  DiskCompletionListener* listener_;

  sim::WaitList arrivals_;   // idle service loop waits for a Submit
  sim::WaitList recovered_;  // service loop parks here while failed

  // Fault state.
  bool failed_ = false;
  double service_scale_ = 1.0;

  // Mechanism state.
  std::int64_t head_cylinder_ = 0;

  // Read-ahead stream state: the stream serviced most recently.
  std::int64_t last_video_ = -1;
  std::int64_t last_end_offset_ = -1;
  sim::SimTime last_service_end_ = 0.0;

  // Statistics.
  sim::Utilization busy_;
  sim::Tally service_tally_;
  sim::Tally seek_tally_;
  sim::Tally queue_wait_tally_;
  std::int32_t trace_pid_ = 0;
  std::int32_t trace_tid_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t cache_hit_bytes_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace spiffi::hw

#endif  // SPIFFI_HW_DISK_H_
