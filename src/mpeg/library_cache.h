// Process-wide cache of immutable video libraries.
//
// A VideoLibrary is a pure function of its constructor inputs (paper
// §6.1: "each time the same video is played, the same sequence of frames
// and frame sizes is repeated"), and nothing mutates it after
// construction. So every simulation whose inputs agree can share one
// instance — in particular every probe of a capacity search, which
// differ only in their terminal count. The read block size is one of
// those inputs, so a sweep over stripe sizes builds one library per
// size.
//
// Entries are weak: the cache never keeps a library alive by itself. A
// library lives while some holder (a Simulation, or a pin that a
// capacity search or a runner batch holds for its whole call — see
// vod::PinLibraries) owns a shared_ptr to it; the next
// request after the last holder lets go builds it afresh. Expired
// entries are swept whenever a new key is inserted, so the map stays
// bounded by the number of live libraries plus the builds in flight.
//
// Thread-safe. Concurrent requests for one key build it once: the first
// request builds outside the cache lock while the others wait for it.
// Builds of different keys run concurrently.

#ifndef SPIFFI_MPEG_LIBRARY_CACHE_H_
#define SPIFFI_MPEG_LIBRARY_CACHE_H_

#include <cstdint>
#include <memory>

#include "mpeg/frame_model.h"
#include "mpeg/video.h"

namespace spiffi::mpeg {

// Every input of the VideoLibrary constructor; the popularity
// distribution is ZipfDistribution(count, zipf_z). The block size is
// part of the key because each video indexes where its blocks start:
// runs that differ only in stripe size get libraries of their own.
struct LibraryKey {
  int count = 0;
  double duration_seconds = 0.0;
  MpegParams params;
  double zipf_z = 0.0;
  std::uint64_t seed = 0;
  std::int64_t block_bytes = kDefaultBlockBytes;
};

// The library for `key`: the live shared instance when one exists,
// otherwise a freshly built one.
std::shared_ptr<const VideoLibrary> SharedLibrary(const LibraryKey& key);

// Monotonic process-wide counters (never reset).
struct LibraryCacheStats {
  std::uint64_t builds = 0;  // VideoLibrary constructions
  std::uint64_t draws = 0;   // frame sizes drawn by those builds
  std::uint64_t fallback_draws = 0;  // of those, drawn on the exact path
  std::uint64_t hits = 0;    // requests served by an existing build
  std::size_t entries = 0;   // keys currently in the map
};
LibraryCacheStats GetLibraryCacheStats();

}  // namespace spiffi::mpeg

#endif  // SPIFFI_MPEG_LIBRARY_CACHE_H_
