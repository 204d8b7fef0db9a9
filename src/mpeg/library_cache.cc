#include "mpeg/library_cache.h"

#include <condition_variable>
#include <map>
#include <mutex>
#include <tuple>

#include "mpeg/zipf.h"

namespace spiffi::mpeg {

namespace {

// A new MpegParams field must join the key below, or two libraries that
// differ only in that field would be shared.
static_assert(sizeof(MpegParams) == 2 * sizeof(double) + 6 * sizeof(int),
              "MpegParams changed: extend Fields() with the new field");

auto Fields(const LibraryKey& key) {
  const MpegParams& p = key.params;
  return std::tie(key.count, key.duration_seconds, p.frames_per_second,
                  p.bits_per_second, p.i_per_gop, p.p_per_gop, p.b_per_gop,
                  p.i_size_weight, p.p_size_weight, p.b_size_weight,
                  key.zipf_z, key.seed, key.block_bytes);
}

struct KeyLess {
  bool operator()(const LibraryKey& a, const LibraryKey& b) const {
    return Fields(a) < Fields(b);
  }
};

struct Entry {
  std::weak_ptr<const VideoLibrary> library;
  bool building = false;  // a request is constructing it right now
};

struct Cache {
  std::mutex mutex;
  std::condition_variable built;  // some entry finished building
  std::map<LibraryKey, Entry, KeyLess> entries;
  std::uint64_t builds = 0;
  std::uint64_t draws = 0;
  std::uint64_t fallback_draws = 0;
  std::uint64_t hits = 0;
};

Cache& TheCache() {
  static Cache cache;
  return cache;
}

}  // namespace

std::shared_ptr<const VideoLibrary> SharedLibrary(const LibraryKey& key) {
  Cache& cache = TheCache();
  std::unique_lock<std::mutex> lock(cache.mutex);
  // Wait out a build of this key in flight. Once it is done, the entry
  // may already have expired and been swept, so look it up afresh.
  auto it = cache.entries.end();
  cache.built.wait(lock, [&] {
    it = cache.entries.find(key);
    return it == cache.entries.end() || !it->second.building;
  });
  if (it == cache.entries.end()) {
    std::erase_if(cache.entries, [](const auto& item) {
      return !item.second.building && item.second.library.expired();
    });
    it = cache.entries.emplace(key, Entry{}).first;
  } else if (auto library = it->second.library.lock()) {
    ++cache.hits;
    return library;
  }
  // Sweeps skip entries that are building, so `it` stays valid.
  it->second.building = true;
  lock.unlock();
  auto library = std::make_shared<const VideoLibrary>(
      key.count, key.duration_seconds, key.params,
      ZipfDistribution(key.count, key.zipf_z), key.seed, key.block_bytes);
  std::uint64_t draws = 0;  // one per frame of every video
  for (int id = 0; id < library->count(); ++id) {
    draws += static_cast<std::uint64_t>(library->video(id).frame_count());
  }
  lock.lock();
  it->second.library = library;
  it->second.building = false;
  ++cache.builds;
  cache.draws += draws;
  cache.fallback_draws +=
      static_cast<std::uint64_t>(library->fallback_draws());
  lock.unlock();
  cache.built.notify_all();
  return library;
}

LibraryCacheStats GetLibraryCacheStats() {
  Cache& cache = TheCache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  return {cache.builds, cache.draws, cache.fallback_draws, cache.hits,
          cache.entries.size()};
}

}  // namespace spiffi::mpeg
