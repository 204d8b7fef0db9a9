#include "proxy/proxy_cache.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "sim/check.h"

namespace spiffi::proxy {

const char* ProxyPolicyName(ProxyPolicy policy) {
  const auto i = static_cast<std::size_t>(policy);
  return i < std::size(kProxyPolicyNames) ? kProxyPolicyNames[i] : "?";
}

ProxyCache::ProxyCache(std::int64_t num_pages, ProxyPolicy policy,
                       std::vector<std::int64_t> video_blocks)
    : num_pages_(num_pages),
      policy_(policy),
      video_blocks_(std::move(video_blocks)) {
  SPIFFI_CHECK(num_pages > 0);
  SPIFFI_CHECK(!video_blocks_.empty());
  const auto num_videos = video_blocks_.size();
  refs_.assign(num_videos, 0);
  quota_.assign(num_videos, 0);
  // Before any measurement the rank is the library order: under a Zipf
  // library, video 0 is the a-priori most popular.
  rank_.resize(num_videos);
  std::iota(rank_.begin(), rank_.end(), 0);
  if (policy_ == ProxyPolicy::kRankZipf) {
    video_chain_.resize(num_videos);
  }
  free_.reserve(static_cast<std::size_t>(num_pages));
  for (std::int64_t i = 0; i < num_pages; ++i) {
    free_.push_back(&slab_.emplace_back());
  }
  table_.reserve(static_cast<std::size_t>(num_pages) * 2);
}

bool ProxyCache::Contains(int video, std::int64_t block) const {
  return table_.find(server::PageKey{video, block}) != table_.end();
}

void ProxyCache::RecordReference(int video) { ++refs_[video]; }

void ProxyCache::AppendFor(Entry* entry) {
  switch (policy_) {
    case ProxyPolicy::kLru:
      lru_.Append(entry);
      break;
    case ProxyPolicy::kRankZipf: {
      auto& chain = video_chain_[entry->key.video];
      if (chain.empty()) {
        nonempty_.insert({rank_[entry->key.video], entry->key.video});
      }
      chain.Append(entry);
      break;
    }
    case ProxyPolicy::kAdaptivePrefix:
      entry->in_quota = InQuota(entry->key);
      (entry->in_quota ? protected_ : lru_).Append(entry);
      break;
  }
}

void ProxyCache::RemoveFor(Entry* entry) {
  switch (policy_) {
    case ProxyPolicy::kLru:
      lru_.Remove(entry);
      break;
    case ProxyPolicy::kRankZipf: {
      auto& chain = video_chain_[entry->key.video];
      chain.Remove(entry);
      if (chain.empty()) {
        nonempty_.erase({rank_[entry->key.video], entry->key.video});
      }
      break;
    }
    case ProxyPolicy::kAdaptivePrefix:
      (entry->in_quota ? protected_ : lru_).Remove(entry);
      break;
  }
}

void ProxyCache::Touch(int video, std::int64_t block) {
  auto it = table_.find(server::PageKey{video, block});
  SPIFFI_DCHECK(it != table_.end());
  Entry* entry = it->second;
  RemoveFor(entry);
  AppendFor(entry);
}

ProxyCache::Entry* ProxyCache::EvictOne() {
  Entry* victim = nullptr;
  switch (policy_) {
    case ProxyPolicy::kLru:
      victim = lru_.head();
      break;
    case ProxyPolicy::kRankZipf: {
      // The worst-ranked (least popular) video currently in cache gives
      // up its least-recently-used block.
      SPIFFI_DCHECK(!nonempty_.empty());
      victim = video_chain_[std::prev(nonempty_.end())->second].head();
      break;
    }
    case ProxyPolicy::kAdaptivePrefix:
      victim = lru_.empty() ? protected_.head() : lru_.head();
      break;
  }
  SPIFFI_CHECK(victim != nullptr);
  RemoveFor(victim);
  table_.erase(victim->key);
  ++stats_.evictions;
  return victim;
}

void ProxyCache::Insert(int video, std::int64_t block) {
  server::PageKey key{video, block};
  if (table_.find(key) != table_.end()) return;
  Entry* entry;
  if (!free_.empty()) {
    entry = free_.back();
    free_.pop_back();
  } else {
    entry = EvictOne();
  }
  entry->key = key;
  table_.emplace(key, entry);
  ++stats_.inserts;
  AppendFor(entry);
}

void ProxyCache::Recompute() {
  switch (policy_) {
    case ProxyPolicy::kLru:
      return;
    case ProxyPolicy::kRankZipf: {
      // Sort videos by measured references, descending; ties break by
      // id (the a-priori order) so the ranking is deterministic.
      std::vector<int> order(refs_.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [this](int a, int b) {
        if (refs_[a] != refs_[b]) return refs_[a] > refs_[b];
        return a < b;
      });
      for (std::size_t pos = 0; pos < order.size(); ++pos) {
        rank_[order[pos]] = static_cast<int>(pos);
      }
      nonempty_.clear();
      for (std::size_t v = 0; v < video_chain_.size(); ++v) {
        if (!video_chain_[v].empty()) {
          nonempty_.insert({rank_[v], static_cast<int>(v)});
        }
      }
      return;
    }
    case ProxyPolicy::kAdaptivePrefix: {
      std::uint64_t total = 0;
      for (std::uint64_t r : refs_) total += r;
      if (total == 0) return;  // nothing measured yet: stay plain LRU
      // Quota proportional to the video's reference share, clamped to
      // its length (integer arithmetic: refs * pages fits u64 by far).
      for (std::size_t v = 0; v < refs_.size(); ++v) {
        auto share = static_cast<std::int64_t>(
            refs_[v] * static_cast<std::uint64_t>(num_pages_) / total);
        quota_[v] = std::min(share, video_blocks_[v]);
      }
      quotas_valid_ = true;
      // Reclassify resident entries against the new quotas. Demotions
      // first; the promotion walk then skips them (still out of quota).
      for (Entry* e = protected_.head(); e != nullptr;) {
        Entry* next = e->lru_next;
        if (!InQuota(e->key)) {
          protected_.Remove(e);
          e->in_quota = false;
          lru_.Append(e);
        }
        e = next;
      }
      for (Entry* e = lru_.head(); e != nullptr;) {
        Entry* next = e->lru_next;
        if (InQuota(e->key)) {
          lru_.Remove(e);
          e->in_quota = true;
          protected_.Append(e);
        }
        e = next;
      }
      return;
    }
  }
}

}  // namespace spiffi::proxy
