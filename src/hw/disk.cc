#include "hw/disk.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "sim/check.h"

namespace spiffi::hw {

Disk::Disk(sim::Environment* env, const DiskParams& params,
           std::unique_ptr<DiskScheduler> scheduler, int id,
           DiskCompletionListener* listener)
    : env_(env),
      params_(params),
      scheduler_(std::move(scheduler)),
      id_(id),
      listener_(listener),
      arrivals_(env),
      recovered_(env) {
  SPIFFI_CHECK(env != nullptr);
  SPIFFI_CHECK(scheduler_ != nullptr);
  SPIFFI_CHECK(listener != nullptr);
  trace_tid_ = obs::Tracer::kDiskTidBase + id;
  env_->Spawn(ServiceLoop());
}

void Disk::Submit(DiskRequest* request) {
  SPIFFI_DCHECK(request != nullptr);
  SPIFFI_DCHECK(request->bytes > 0);
  SPIFFI_DCHECK(request->disk_offset >= 0);
  request->seq = next_seq_++;
  request->submit_time = env_->now();
  request->trace_id = obs::TraceAsyncBegin(
      env_, obs::TraceCategory::kDisk, "disk_queue", trace_pid_,
      {{"block", static_cast<double>(request->block)},
       {"prefetch", request->is_prefetch ? 1.0 : 0.0}});
  scheduler_->Push(request);
  obs::TraceCounter(env_, obs::TraceCategory::kDisk, "disk_queue_len",
                    trace_pid_, trace_tid_,
                    static_cast<double>(scheduler_->size()));
  arrivals_.NotifyOne();
}

std::int64_t Disk::ReadAheadBytes(const DiskRequest& request,
                                  sim::SimTime now) const {
  if (request.video != last_video_ ||
      request.disk_offset != last_end_offset_) {
    return 0;  // not a sequential continuation of the last stream
  }
  double idle = now - last_service_end_;
  if (idle <= 0.0) return 0;
  auto ahead = static_cast<std::int64_t>(
      idle * params_.transfer_rate_bytes_per_sec);
  ahead = std::min(ahead, params_.cache_context_bytes);
  return std::min(ahead, request.bytes);
}

double Disk::ServiceTimeFrom(std::int64_t head_cylinder, sim::SimTime start,
                             std::int64_t offset, std::int64_t bytes,
                             std::int64_t cached_bytes) const {
  const double rotation = params_.rotation_time_ms * 1e-3;
  const std::int64_t cyl_bytes = params_.cylinder_bytes;

  // Cached bytes still cross the SCSI bus; charge them at the media rate
  // (a mild overestimate) but skip all mechanical positioning for them.
  double time = static_cast<double>(cached_bytes) /
                params_.transfer_rate_bytes_per_sec;

  std::int64_t mech_bytes = bytes - cached_bytes;
  if (mech_bytes <= 0) return time;

  std::int64_t mech_offset = offset + cached_bytes;
  std::int64_t target_cylinder = mech_offset / cyl_bytes;

  // Seek.
  std::int64_t distance = std::llabs(target_cylinder - head_cylinder);
  time += params_.SeekTimeSeconds(distance);

  // Rotation: the platter never stops; wait for the target angle to come
  // under the head. The angular position of a byte is its fractional
  // offset within its cylinder.
  double head_angle = std::fmod(start + time, rotation) / rotation;
  double target_angle =
      static_cast<double>(mech_offset % cyl_bytes) /
      static_cast<double>(cyl_bytes);
  double wait_frac = target_angle - head_angle;
  if (wait_frac < 0.0) wait_frac += 1.0;
  time += wait_frac * rotation;

  // Transfer, plus one head-settle per cylinder boundary crossed.
  time += static_cast<double>(mech_bytes) /
          params_.transfer_rate_bytes_per_sec;
  std::int64_t end_cylinder = (mech_offset + mech_bytes - 1) / cyl_bytes;
  time += static_cast<double>(end_cylinder - target_cylinder) *
          params_.settle_time_ms * 1e-3;
  return time;
}

void Disk::SetFailed(bool failed) {
  if (failed_ == failed) return;
  failed_ = failed;
  if (!failed_) recovered_.NotifyAll();
}

void Disk::SetServiceTimeScale(double scale) {
  SPIFFI_CHECK(scale >= 1.0);
  service_scale_ = scale;
}

sim::Process Disk::ServiceLoop() {
  for (;;) {
    // The scheduler's size is the one count of queued requests: a loop
    // that finds work picks it without suspending.
    while (scheduler_->empty()) (void)co_await arrivals_.Wait();
    // A failed disk holds its queue until recovery.
    while (failed_) (void)co_await recovered_.Wait();
    sim::SimTime now = env_->now();
    DiskRequest* request = scheduler_->Pop(head_cylinder_, now);
    SPIFFI_CHECK(request != nullptr);
    request->queue_wait_sec = now - request->submit_time;
    queue_wait_tally_.Add(request->queue_wait_sec);
    obs::TraceAsyncEnd(env_, obs::TraceCategory::kDisk, "disk_queue",
                       trace_pid_, request->trace_id);
    obs::TraceCounter(env_, obs::TraceCategory::kDisk, "disk_queue_len",
                      trace_pid_, trace_tid_,
                      static_cast<double>(scheduler_->size()));

    std::int64_t cached = ReadAheadBytes(*request, now);
    // service_scale_ is exactly 1.0 outside limp episodes, keeping the
    // healthy timing bit-identical.
    double service =
        ServiceTimeFrom(head_cylinder_, now, request->disk_offset,
                        request->bytes, cached) *
        service_scale_;
    request->service_sec = service;

    std::int64_t target_cylinder =
        (request->disk_offset + cached) / params_.cylinder_bytes;
    double seek_cylinders =
        static_cast<double>(std::llabs(target_cylinder - head_cylinder_));
    seek_tally_.Add(seek_cylinders);

    busy_.SetBusy(true, now);
    {
      obs::ScopedSpan span(env_, obs::TraceCategory::kDisk, "disk_read",
                           trace_pid_, trace_tid_);
      co_await env_->Hold(service);
    }
    obs::TraceInstant(env_, obs::TraceCategory::kDisk, "read_done",
                      trace_pid_, trace_tid_,
                      {{"seek_cylinders", seek_cylinders},
                       {"cached_bytes", static_cast<double>(cached)},
                       {"queue_wait_ms", request->queue_wait_sec * 1e3}});

    // Mechanism state after the read.
    head_cylinder_ = (request->disk_offset + request->bytes - 1) /
                     params_.cylinder_bytes;
    last_video_ = request->video;
    last_end_offset_ = request->disk_offset + request->bytes;
    last_service_end_ = env_->now();

    busy_.SetBusy(false, env_->now());
    service_tally_.Add(service);
    cache_hit_bytes_ += static_cast<std::uint64_t>(cached);
    ++served_;

    listener_->OnDiskComplete(request);
  }
}

void Disk::ResetStats(sim::SimTime now) {
  busy_.Reset(now);
  service_tally_.Reset();
  seek_tally_.Reset();
  queue_wait_tally_.Reset();
  served_ = 0;
  cache_hit_bytes_ = 0;
}

}  // namespace spiffi::hw
