#include "server/buffer_pool.h"

#include "obs/trace.h"
#include "sim/check.h"

namespace spiffi::server {

BufferPool::BufferPool(sim::Environment* env, std::int64_t num_pages,
                       ReplacementPolicy policy)
    : env_(env), policy_(policy), free_waiters_(env) {
  SPIFFI_CHECK(env != nullptr);
  SPIFFI_CHECK(num_pages > 0);
  free_.reserve(static_cast<std::size_t>(num_pages));
  for (std::int64_t i = 0; i < num_pages; ++i) {
    free_.push_back(&pages_.emplace_back(env));
  }
  table_.Reserve(static_cast<std::size_t>(num_pages));
}

BufferPool::Page* BufferPool::Lookup(const PageKey& key) {
  Page** page = table_.Find(key);
  return page == nullptr ? nullptr : *page;
}

void BufferPool::RecordReference(Page* page, int terminal) {
  ++stats_.references;
  if (page->ever_referenced && page->last_terminal != terminal) {
    ++stats_.shared_refs;
  }
  if (page->pinned_prefix) ++stats_.prefix_hits;
  if (page->io_in_flight) {
    ++stats_.attaches;
    obs::TraceInstant(env_, obs::TraceCategory::kBuffer, "pool_attach",
                      trace_pid_, obs::Tracer::kPoolTid,
                      {{"terminal", static_cast<double>(terminal)},
                       {"block", static_cast<double>(page->key.block)}});
  } else {
    ++stats_.hits;
    obs::TraceInstant(env_, obs::TraceCategory::kBuffer, "pool_hit",
                      trace_pid_, obs::Tracer::kPoolTid,
                      {{"terminal", static_cast<double>(terminal)},
                       {"block", static_cast<double>(page->key.block)}});
  }
}

void BufferPool::RecordMiss() {
  ++stats_.references;
  ++stats_.misses;
  obs::TraceInstant(env_, obs::TraceCategory::kBuffer, "pool_miss",
                    trace_pid_, obs::Tracer::kPoolTid);
}

void BufferPool::RemoveFromChain(Page* page) {
  if (page->chain < 0) return;
  chains_[page->chain].Remove(page);
  page->chain = -1;
}

void BufferPool::AppendToChain(Page* page, int chain) {
  RemoveFromChain(page);
  // Under global LRU everything evictable lives on one queue; the
  // pinned chain stays separate under both policies.
  if (policy_ == ReplacementPolicy::kGlobalLru &&
      chain == kPrefetchedChain) {
    chain = kReferencedChain;
  }
  chains_[chain].Append(page);
  page->chain = chain;
}

void BufferPool::Touch(Page* page, int terminal) {
  SPIFFI_DCHECK(page->valid);
  page->ever_referenced = true;
  page->last_terminal = terminal;
  page->prefetched = false;
  // Pinned prefix pages stay put: eviction ordering is moot for them.
  if (page->pinned_prefix) return;
  AppendToChain(page, kReferencedChain);
}

void BufferPool::PinPrefix(Page* page) {
  SPIFFI_DCHECK(page->valid && !page->io_in_flight);
  if (page->pinned_prefix) return;
  page->pinned_prefix = true;
  page->prefetched = false;
  AppendToChain(page, kPinnedChain);
  obs::TraceCounter(env_, obs::TraceCategory::kBuffer, "pool_pinned_pages",
                    trace_pid_, obs::Tracer::kPoolTid,
                    static_cast<double>(pinned_pages()));
}

void BufferPool::UnpinPrefix(Page* page) {
  if (!page->pinned_prefix) return;
  page->pinned_prefix = false;
  AppendToChain(page, kReferencedChain);
  if (page->pin_count == 0) free_waiters_.NotifyOne();
}

BufferPool::Page* BufferPool::EvictFrom(int chain) {
  for (Page* page = chains_[chain].head(); page != nullptr;
       page = page->lru_next) {
    if (page->pin_count == 0 && !page->io_in_flight) {
      RemoveFromChain(page);
      table_.Erase(page->key);
      ++stats_.evictions;
      bool wasted = page->prefetched && !page->ever_referenced;
      if (wasted) ++stats_.wasted_prefetches;
      obs::TraceInstant(env_, obs::TraceCategory::kBuffer, "pool_evict",
                        trace_pid_, obs::Tracer::kPoolTid,
                        {{"block", static_cast<double>(page->key.block)},
                         {"wasted_prefetch", wasted ? 1.0 : 0.0}});
      return page;
    }
  }
  return nullptr;
}

BufferPool::Page* BufferPool::Allocate(const PageKey& key,
                                       bool for_prefetch) {
  SPIFFI_DCHECK(Lookup(key) == nullptr);
  Page* page = nullptr;
  if (!free_.empty()) {
    page = free_.back();
    free_.pop_back();
  } else {
    page = EvictFrom(kReferencedChain);
    if (page == nullptr && policy_ == ReplacementPolicy::kLovePrefetch) {
      page = EvictFrom(kPrefetchedChain);
    }
  }
  if (page == nullptr) {
    ++stats_.allocation_stalls;
    return nullptr;
  }
  page->key = key;
  page->valid = false;
  page->io_in_flight = true;
  page->prefetched = for_prefetch;
  page->pinned_prefix = false;
  page->pin_count = 1;  // caller's pin
  page->last_terminal = -1;
  page->ever_referenced = false;
  page->inflight_request = nullptr;
  page->urgent_deadline = sim::kSimTimeMax;
  table_.Insert(key, page);
  obs::TraceCounter(env_, obs::TraceCategory::kBuffer, "pool_pages_in_use",
                    trace_pid_, obs::Tracer::kPoolTid,
                    static_cast<double>(pages_in_use()));
  return page;
}

void BufferPool::Complete(Page* page) {
  SPIFFI_DCHECK(page->io_in_flight);
  page->io_in_flight = false;
  page->valid = true;
  page->inflight_request = nullptr;
  AppendToChain(page,
                page->prefetched ? kPrefetchedChain : kReferencedChain);
  page->ready.NotifyAll();
}

void BufferPool::Unpin(Page* page) {
  SPIFFI_DCHECK(page->pin_count > 0);
  --page->pin_count;
  if (page->pin_count == 0 && !page->io_in_flight) {
    // The page just became evictable; wake one allocation-stalled process.
    free_waiters_.NotifyOne();
  }
}

}  // namespace spiffi::server
