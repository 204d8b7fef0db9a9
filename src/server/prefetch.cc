#include "server/prefetch.h"

#include <algorithm>
#include <iterator>

#include "obs/trace.h"
#include "sim/check.h"

namespace spiffi::server {

const char* PrefetchPolicyName(PrefetchPolicy policy) {
  const auto i = static_cast<std::size_t>(policy);
  return i < std::size(kPrefetchPolicyNames) ? kPrefetchPolicyNames[i]
                                             : "unknown";
}

Prefetcher::Prefetcher(sim::Environment* env, PrefetchPolicy policy,
                       int num_workers, double max_advance_sec,
                       BufferPool* pool, hw::Cpu* cpu, hw::Disk* disk,
                       const hw::CpuCosts& costs)
    : env_(env),
      policy_(policy),
      max_advance_sec_(max_advance_sec),
      pool_(pool),
      cpu_(cpu),
      disk_(disk),
      costs_(costs),
      arrivals_(env) {
  SPIFFI_CHECK(env != nullptr);
  if (policy == PrefetchPolicy::kNone) return;
  SPIFFI_CHECK(num_workers > 0);
  for (int i = 0; i < num_workers; ++i) env_->Spawn(Worker());
}

void Prefetcher::Enqueue(const PrefetchTask& task) {
  if (policy_ == PrefetchPolicy::kNone) return;
  if (!pending_.Insert(task.key)) {
    ++stats_.duplicates_dropped;
    obs::TraceInstant(env_, obs::TraceCategory::kPrefetch,
                      "prefetch_duplicate", trace_pid_,
                      trace_tid_,
                      {{"block", static_cast<double>(task.key.block)}});
    return;
  }
  ++stats_.enqueued;
  queue_.push_back(QueuedTask{task, next_seq_++});
  std::push_heap(queue_.begin(), queue_.end(),
                 [this](const QueuedTask& a, const QueuedTask& b) {
                   return LaterTask(a, b);
                 });
  obs::TraceInstant(env_, obs::TraceCategory::kPrefetch, "prefetch_enqueue",
                    trace_pid_, trace_tid_,
                    {{"block", static_cast<double>(task.key.block)},
                     {"queue_len", static_cast<double>(queue_.size())}});
  arrivals_.NotifyOne();
}

bool Prefetcher::LaterTask(const QueuedTask& a, const QueuedTask& b) const {
  if (policy_ != PrefetchPolicy::kFifo &&
      a.task.est_deadline != b.task.est_deadline) {
    return a.task.est_deadline > b.task.est_deadline;
  }
  return a.seq > b.seq;
}

PrefetchTask Prefetcher::PopNext() {
  SPIFFI_DCHECK(!queue_.empty());
  std::pop_heap(queue_.begin(), queue_.end(),
                [this](const QueuedTask& a, const QueuedTask& b) {
                  return LaterTask(a, b);
                });
  PrefetchTask task = queue_.back().task;
  queue_.pop_back();
  return task;
}

sim::SimTime Prefetcher::MinDeadline() const {
  SPIFFI_DCHECK(policy_ != PrefetchPolicy::kFifo);  // heap is seq-ordered
  return queue_.empty() ? sim::kSimTimeMax : queue_.front().task.est_deadline;
}

sim::Process Prefetcher::Worker() {
  for (;;) {
    if (queue_.empty()) {
      (void)co_await arrivals_.Wait();
      continue;  // re-check; another worker may have taken the task
    }
    if (policy_ == PrefetchPolicy::kDelayed) {
      // Delay issuing until within max_advance of the estimated deadline
      // (Fig 7). Wake early if a more urgent task arrives.
      sim::SimTime eligible_at = MinDeadline() - max_advance_sec_;
      if (env_->now() < eligible_at) {
        (void)co_await arrivals_.WaitUntil(eligible_at);
        continue;  // re-evaluate from scratch
      }
    }
    PrefetchTask task = PopNext();

    if (disk_->failed()) {
      // The disk died after this task was enqueued. Background reads are
      // speculative — drop rather than park a worker on a dead drive
      // (the true request will re-route through a replica instead).
      pending_.Erase(task.key);
      ++stats_.dropped_disk_down;
      obs::TraceInstant(env_, obs::TraceCategory::kPrefetch,
                        "prefetch_drop_disk_down", trace_pid_, trace_tid_,
                        {{"block", static_cast<double>(task.key.block)}});
      continue;
    }

    if (pool_->Lookup(task.key) != nullptr) {
      // A real request (or another worker) got there first.
      pending_.Erase(task.key);
      ++stats_.already_cached;
      obs::TraceInstant(env_, obs::TraceCategory::kPrefetch,
                        "prefetch_cancel_cached", trace_pid_, trace_tid_,
                        {{"block", static_cast<double>(task.key.block)}});
      continue;
    }

    // Claim a buffer page, waiting for one if the pool is saturated.
    BufferPool::Page* page = nullptr;
    for (;;) {
      page = pool_->Allocate(task.key, /*for_prefetch=*/true);
      if (page != nullptr) break;
      (void)co_await pool_->free_pages().Wait();
      if (pool_->Lookup(task.key) != nullptr) break;  // raced; drop
    }
    if (page == nullptr) {
      pending_.Erase(task.key);
      ++stats_.already_cached;
      continue;
    }

    co_await cpu_->Execute(costs_.start_io_instructions);

    hw::DiskRequest request;
    request.video = task.key.video;
    request.block = task.key.block;
    request.disk_offset = task.disk_offset;
    request.bytes = task.bytes;
    request.is_prefetch = true;
    request.terminal = task.terminal;
    // FIFO prefetches carry no deadline: the real-time disk scheduler
    // parks them in the lowest class; elevator ignores deadlines anyway.
    request.deadline = policy_ == PrefetchPolicy::kFifo
                           ? sim::kSimTimeMax
                           : task.est_deadline;
    // An attacher may have raised the urgency while we queued for the CPU.
    request.deadline = std::min(request.deadline, page->urgent_deadline);
    request.context = page;
    page->inflight_request = &request;
    ++stats_.issued;
    obs::TraceInstant(env_, obs::TraceCategory::kPrefetch, "prefetch_issue",
                      trace_pid_, trace_tid_,
                      {{"block", static_cast<double>(task.key.block)},
                       {"bytes", static_cast<double>(task.bytes)}});
    disk_->Submit(&request);

    (void)co_await pool_->Ready(page).Wait();
    pool_->Unpin(page);
    pending_.Erase(task.key);
  }
}

}  // namespace spiffi::server
