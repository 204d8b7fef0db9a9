// Bounded block cache of one proxy node, with popularity-aware
// replacement.
//
// Unlike the origin buffer pool (server/buffer_pool.h), proxy cache
// entries carry no data, pins, or I/O state — the proxy is a pure
// membership cache over (video, block) keys sized in stripe blocks.
// Three replacement families:
//
//  * kLru — a single global LRU chain; the baseline.
//  * kRankZipf — rank-based Zipf-aware replacement (Nair/Jayarekha,
//    "A Rank Based Replacement Policy for Multimedia Server Cache Using
//    Zipf-Like Law"). Every video gets a popularity rank from measured
//    reference counts, re-ranked every Recompute(); eviction always
//    takes from the worst-ranked (least popular) video currently in
//    cache, LRU within that video. Until the first Recompute() the rank
//    is the library order (video id), which under a Zipf library is the
//    a-priori popularity order.
//  * kAdaptivePrefix — adaptive popularity-aware prefix replacement
//    (Jayarekha/Nair, "An Adaptive Dynamic Replacement Approach for a
//    Multicast based Popularity Aware Prefix Cache"). Each video gets a
//    prefix quota proportional to its measured reference share; blocks
//    inside their video's quota live on a protected chain that is only
//    eviction-scanned after the unprotected chain is empty. Quotas are
//    re-sized every Recompute(); before the first one the cache
//    degenerates to plain LRU.
//
// Reference counts accumulate over the whole run (popularity is a
// measurement, not a windowed statistic — same convention as the origin
// prefix cache), so ResetStats() leaves them alone.
//
// Everything here is deterministic: ties in the popularity sort break
// by video id, and no container iteration order leaks into decisions.

#ifndef SPIFFI_PROXY_PROXY_CACHE_H_
#define SPIFFI_PROXY_PROXY_CACHE_H_

#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "server/buffer_pool.h"
#include "server/intrusive_chain.h"

namespace spiffi::proxy {

enum class ProxyPolicy { kLru, kRankZipf, kAdaptivePrefix };
// Names in enumerator order.
inline constexpr const char* kProxyPolicyNames[] = {"lru", "rank-zipf",
                                                    "adaptive-prefix"};

const char* ProxyPolicyName(ProxyPolicy policy);

class ProxyCache {
 public:
  struct Stats {
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
  };

  // `video_blocks[v]` is video v's block count; it clamps adaptive
  // prefix quotas (a quota beyond the video's end is wasted budget).
  ProxyCache(std::int64_t num_pages, ProxyPolicy policy,
             std::vector<std::int64_t> video_blocks);

  ProxyCache(const ProxyCache&) = delete;
  ProxyCache& operator=(const ProxyCache&) = delete;

  bool Contains(int video, std::int64_t block) const;
  // Counts a terminal reference against `video`'s popularity (cumulative
  // over the run; survives ResetStats).
  void RecordReference(int video);
  // Marks a cache hit for replacement purposes (moves the entry to its
  // chain's MRU end). The entry must be present.
  void Touch(int video, std::int64_t block);
  // Caches the block, evicting per policy when full. No-op if present.
  void Insert(int video, std::int64_t block);
  // Periodic popularity digestion: re-ranks videos (kRankZipf) or
  // re-sizes prefix quotas (kAdaptivePrefix). No-op for kLru.
  void Recompute();

  // Introspection (tests, telemetry).
  int video_rank(int video) const { return rank_[video]; }
  std::int64_t prefix_quota(int video) const { return quota_[video]; }
  std::uint64_t video_refs(int video) const { return refs_[video]; }
  std::int64_t pages_in_use() const {
    return num_pages_ - static_cast<std::int64_t>(free_.size());
  }
  std::int64_t num_pages() const { return num_pages_; }
  ProxyPolicy policy() const { return policy_; }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

 private:
  struct Entry {
    server::PageKey key;
    bool in_quota = false;  // kAdaptivePrefix: on the protected chain
    Entry* lru_prev = nullptr;
    Entry* lru_next = nullptr;
  };

  // Whether (video, block) falls inside the video's current quota.
  bool InQuota(const server::PageKey& key) const {
    return quotas_valid_ && key.block < quota_[key.video];
  }
  // Links `entry` at the MRU end of the chain its policy assigns.
  void AppendFor(Entry* entry);
  // Unlinks `entry` from whichever chain holds it.
  void RemoveFor(Entry* entry);
  // Evicts the policy's victim and returns its recycled entry.
  Entry* EvictOne();

  std::int64_t num_pages_;
  ProxyPolicy policy_;
  std::vector<std::int64_t> video_blocks_;

  // deque: stable addresses for the intrusive links.
  std::deque<Entry> slab_;
  std::vector<Entry*> free_;
  std::unordered_map<server::PageKey, Entry*, server::PageKeyHash> table_;

  // Popularity measurement (all policies; cumulative over the run).
  std::vector<std::uint64_t> refs_;

  // kLru: the single chain. kAdaptivePrefix reuses it as the
  // unprotected chain.
  server::IntrusiveChain<Entry> lru_;

  // kRankZipf: rank per video (0 = most popular), one LRU chain per
  // video, and the set of non-empty videos ordered by (rank, video) so
  // the worst-ranked cached video is O(log V) to find.
  std::vector<int> rank_;
  std::vector<server::IntrusiveChain<Entry>> video_chain_;
  std::set<std::pair<int, int>> nonempty_;

  // kAdaptivePrefix: per-video prefix quotas and the protected chain.
  // quotas_valid_ flips at the first Recompute(); until then every
  // entry is unprotected (plain LRU).
  bool quotas_valid_ = false;
  std::vector<std::int64_t> quota_;
  server::IntrusiveChain<Entry> protected_;

  Stats stats_;
};

}  // namespace spiffi::proxy

#endif  // SPIFFI_PROXY_PROXY_CACHE_H_
