// Server buffer pool with pluggable page replacement (paper §5.2.1).
//
// Pages are stripe blocks. Two replacement policies are provided:
//
//  * Global LRU — a single LRU queue that does not distinguish prefetched
//    from referenced pages. A new page takes the first unpinned,
//    not-in-flight page from the head of the queue.
//  * Love prefetch — two LRU chains (Fig 4). A freshly prefetched page
//    goes on the prefetched-pages chain; when a terminal references it,
//    it moves to the referenced-pages chain. Replacement takes from the
//    referenced chain first and only then from the prefetched chain, so
//    pages that were read ahead but not yet consumed are protected.
//
// A third chain holds pinned prefix pages: the first blocks of popular
// videos, pinned by the owning node so that new share groups and patch
// streams start from memory. Pinned pages are exempt from eviction
// under BOTH policies (the chain is never scanned) and never count as
// wasted prefetches; the node sizes and reconciles the pinned set from
// measured popularity (see server/node.h).
//
// The LRU chains are intrusive (server/intrusive_chain.h): the
// prev/next links live in the Page itself, so moving a page between
// chains (the per-reference hot path) is a handful of pointer writes
// with no node allocation. Each page also embeds its I/O-completion
// WaitList directly.
//
// Concurrency protocol (single-threaded simulation, coroutine processes):
//  * Lookup finds a page that is valid or still being filled by an I/O.
//  * A process waiting for an in-flight page must Pin it before
//    co_await-ing Ready(page) so the page cannot be recycled under it.
//  * Allocate returns a pinned page in the io-in-flight state, or nullptr
//    when every page is pinned or in flight; the caller then waits on
//    free_pages() and retries (re-checking Lookup, since another process
//    may have started the same block meanwhile).

#ifndef SPIFFI_SERVER_BUFFER_POOL_H_
#define SPIFFI_SERVER_BUFFER_POOL_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "hw/disk.h"
#include "server/intrusive_chain.h"
#include "sim/environment.h"
#include "sim/flat_table.h"
#include "sim/random.h"
#include "sim/wait_list.h"

namespace spiffi::server {

enum class ReplacementPolicy { kGlobalLru, kLovePrefetch };

struct PageKey {
  int video = -1;
  std::int64_t block = -1;
  bool operator==(const PageKey&) const = default;
};

// Hash functor for std containers and key traits for sim::FlatTable
// (PageKey{}, video -1, marks a free slot).
struct PageKeyHash {
  static constexpr PageKey kEmpty{};
  static std::uint64_t Hash(const PageKey& key) {
    return sim::Hash64(static_cast<std::uint64_t>(key.video),
                       static_cast<std::uint64_t>(key.block));
  }
  std::size_t operator()(const PageKey& key) const {
    return static_cast<std::size_t>(Hash(key));
  }
};

class BufferPool {
 public:
  struct Page {
    explicit Page(sim::Environment* env) : ready(env) {}

    Page(const Page&) = delete;
    Page& operator=(const Page&) = delete;

    PageKey key;
    bool valid = false;         // data present
    bool io_in_flight = false;  // a disk read is filling this page
    bool prefetched = false;    // filled by prefetch, not yet referenced
    bool pinned_prefix = false; // resident on the pinned prefix chain
    int pin_count = 0;
    int last_terminal = -1;     // last terminal to really reference it
    bool ever_referenced = false;
    hw::DiskRequest* inflight_request = nullptr;  // for deadline boosting
    // Most urgent deadline requested by attachers so far. Attachers may
    // arrive between Allocate and the disk Submit (while
    // inflight_request is still null); the issuer folds this in before
    // submitting.
    sim::SimTime urgent_deadline = sim::kSimTimeMax;

    // Intrusive LRU bookkeeping (managed by the pool).
    int chain = -1;  // -1: not on any chain
    Page* lru_prev = nullptr;
    Page* lru_next = nullptr;

    sim::WaitList ready;  // I/O-completion waiters
  };

  struct Stats {
    std::uint64_t references = 0;   // real terminal references
    std::uint64_t hits = 0;         // page valid at lookup
    std::uint64_t attaches = 0;     // page in flight at lookup
    std::uint64_t misses = 0;       // page absent; disk read required
    std::uint64_t shared_refs = 0;  // page previously referenced by
                                    // another terminal (Fig 16)
    std::uint64_t evictions = 0;
    std::uint64_t wasted_prefetches = 0;  // prefetched page evicted
                                          // before ever being referenced
    std::uint64_t allocation_stalls = 0;  // Allocate returned nullptr
    std::uint64_t prefix_hits = 0;        // references served by a
                                          // pinned prefix page
  };

  BufferPool(sim::Environment* env, std::int64_t num_pages,
             ReplacementPolicy policy);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Finds the page holding `key` (valid or in flight), else nullptr.
  Page* Lookup(const PageKey& key);

  // Classifies and counts a real terminal reference that found `page`
  // (valid or in flight) — call once per reference, before waiting.
  void RecordReference(Page* page, int terminal);
  // Counts a real reference that missed entirely.
  void RecordMiss();

  // Marks a real reference for replacement purposes: moves the page to
  // the MRU end of the referenced chain (love prefetch pulls it off the
  // prefetched chain). Requires page->valid.
  void Touch(Page* page, int terminal);

  // Takes a free or evictable page for `key` and returns it pinned, in
  // the io-in-flight state, not yet on any chain. Returns nullptr if no
  // page can be recycled right now. `for_prefetch` tags the page for
  // love-prefetch chain placement at completion.
  Page* Allocate(const PageKey& key, bool for_prefetch);

  // I/O completion: page becomes valid and is placed on the appropriate
  // LRU chain; all Ready(page) waiters are notified.
  void Complete(Page* page);

  void Pin(Page* page) { ++page->pin_count; }
  void Unpin(Page* page);

  // Moves a valid page onto the pinned prefix chain, exempting it from
  // eviction until UnpinPrefix. Clears the prefetched tag: a prefix
  // page later unpinned and evicted is not a wasted prefetch.
  void PinPrefix(Page* page);
  // Returns a pinned prefix page to the referenced chain (normal
  // eviction rules apply again).
  void UnpinPrefix(Page* page);
  // Unpins every pinned prefix page for which `keep` returns false —
  // the reconcile step after popularity shifts shrink a video's quota.
  template <typename Keep>
  void ReconcilePinned(Keep&& keep) {
    Page* page = chains_[kPinnedChain].head();
    while (page != nullptr) {
      Page* next = page->lru_next;
      if (!keep(page->key)) UnpinPrefix(page);
      page = next;
    }
  }

  sim::WaitList& Ready(Page* page) { return page->ready; }
  // Notified whenever a page may have become evictable.
  sim::WaitList& free_pages() { return free_waiters_; }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  // Perfetto track pool events render on (set by the owning node).
  void SetTraceTrack(std::int32_t pid) { trace_pid_ = pid; }

  std::int64_t num_pages() const {
    return static_cast<std::int64_t>(pages_.size());
  }
  std::int64_t pages_in_use() const {
    return num_pages() - static_cast<std::int64_t>(free_.size());
  }
  std::size_t chain_size(int chain) const { return chains_[chain].size(); }
  std::int64_t pinned_pages() const {
    return static_cast<std::int64_t>(chains_[kPinnedChain].size());
  }
  ReplacementPolicy policy() const { return policy_; }

  // Chain indices.
  static constexpr int kReferencedChain = 0;
  static constexpr int kPrefetchedChain = 1;
  static constexpr int kPinnedChain = 2;

 private:
  // Pops the first evictable page from `chain` (head = LRU end);
  // nullptr if none.
  Page* EvictFrom(int chain);
  void RemoveFromChain(Page* page);
  void AppendToChain(Page* page, int chain);

  sim::Environment* env_;
  ReplacementPolicy policy_;
  // deque: stable addresses without per-page heap indirection (Page is
  // pinned in place by its intrusive links and embedded WaitList).
  std::deque<Page> pages_;
  std::vector<Page*> free_;
  // Sized for every page in the constructor, so it never rehashes.
  sim::FlatTable<PageKey, Page*, PageKeyHash> table_;
  // Intrusive chains: head = LRU (eviction) end, tail = MRU.
  IntrusiveChain<Page> chains_[3];
  sim::WaitList free_waiters_;
  Stats stats_;
  std::int32_t trace_pid_ = 0;
};

}  // namespace spiffi::server

#endif  // SPIFFI_SERVER_BUFFER_POOL_H_
