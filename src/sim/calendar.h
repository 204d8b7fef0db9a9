// Event calendar: the priority queue at the heart of the simulator.
//
// The calendar holds (time, sequence) entries in two sorted structures:
// a 4-ary min-heap for general events, and an in-order FIFO "tick lane"
// for periodic ticks (display frames), which are almost always scheduled
// no earlier than the last tick scheduled before them. ScheduleTick
// appends to the lane when the new key sorts after the lane's tail and
// falls back to the heap otherwise, so the lane stays sorted and each
// in-order tick costs a ring-buffer append and pop instead of two heap
// sifts. Every read (FireNext, PeekTime, empty) takes the smaller of the
// lane head and the heap root: an exact merge of two sequences sorted on
// the same keys, so events fire in precisely the order one heap holding
// all of them would fire them.
//
// Sequence numbers break ties so that events scheduled for the same
// instant fire in the order they were scheduled (FIFO) whichever
// structure holds them, which makes every simulation run fully
// deterministic.
//
// Handlers are raw pointers to objects implementing EventHandler. The
// calendar does not own handlers; schedulers must guarantee the handler
// outlives the entry (coroutine awaiters do, because the frame is suspended
// until the event fires). Entries can be cancelled lazily via Cancel(),
// which marks the entry's slot; cancelled entries are skipped when they
// reach the head of the merged order.
//
// EventId is a packed (slot, generation) pair into a slot-indexed entry
// table: Schedule takes a slot off a free list, Cancel is a bounds check
// plus a generation compare, and FireNext frees the slot with a
// generation bump so stale ids (already fired, never scheduled, or from
// a recycled slot) are rejected in O(1) with no hashing and no heap
// allocation in steady state.

#ifndef SPIFFI_SIM_CALENDAR_H_
#define SPIFFI_SIM_CALENDAR_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace spiffi::sim {

// Interface fired by the calendar when an event comes due. The token is
// whatever value was passed to Schedule, letting one handler multiplex
// several pending events.
//
// The destructor is intentionally protected and non-virtual: the calendar
// never owns or destroys handlers, and one-shot handlers (pooled network
// deliveries) must stay trivially destructible so their storage can be
// reclaimed in bulk by the arena that owns them.
class EventHandler {
 public:
  virtual void OnEvent(std::uint64_t token) = 0;

 protected:
  ~EventHandler() = default;
};

// Identifies one scheduled entry; used only for cancellation. Packed
// (slot << 32) | generation; generations start at 1, so 0 is never a
// valid id and may be used as a "no event" sentinel.
using EventId = std::uint64_t;

class Calendar {
 public:
  Calendar() = default;
  Calendar(const Calendar&) = delete;
  Calendar& operator=(const Calendar&) = delete;

  // Pre-sizes the heap and the slot table for `expected_entries`
  // simultaneously pending entries, so steady-state operation below that
  // occupancy never reallocates (storage_grows() stays 0). The tick lane
  // is not pre-sized: its ring doubles on demand up to the lane's own
  // peak occupancy and then stops allocating (lane_grows()).
  void Reserve(std::size_t expected_entries);

  // Adds an entry; returns an id usable with Cancel().
  EventId Schedule(SimTime time, EventHandler* handler,
                   std::uint64_t token = 0);

  // Schedule for periodic ticks: appends to the tick lane when `time` is
  // no earlier than the time of the lane's last entry, else puts the
  // entry in the heap exactly like Schedule. Either way it fires at the
  // same point in the (time, seq) order as Schedule would fire it.
  EventId ScheduleTick(SimTime time, EventHandler* handler,
                       std::uint64_t token = 0);

  // Marks the entry as cancelled. Ids of events that already fired (or
  // were never scheduled) are rejected by the generation check, so stale
  // cancels cannot accumulate state. O(1); the entry is dropped lazily.
  void Cancel(EventId id);

  // Fires the earliest non-cancelled entry and returns its time, or
  // returns kSimTimeMax if the calendar is empty.
  // The handler may schedule further events from within OnEvent.
  SimTime FireNext();

  // Time of the earliest pending entry, or kSimTimeMax when empty.
  SimTime PeekTime();

  bool empty();

  // Drops every pending entry without firing it. Outstanding ids are
  // invalidated (their slots' generations are bumped), so cancelling one
  // afterwards is a rejected stale cancel, never a collision.
  void Clear();

  // Number of live (non-cancelled) entries.
  std::size_t size() const { return pending() - cancelled_; }

  // Total events fired since construction.
  std::uint64_t fired_count() const { return fired_; }

  // Entries marked cancelled but not yet lazily dropped from the heap
  // or the lane. Bounded by their occupancy; stale cancels never land
  // here.
  std::size_t cancelled_backlog() const { return cancelled_; }

  // Kernel self-profiling: high-water mark of heap plus lane entries,
  // and the number of times the heap storage had to grow to admit one.
  std::size_t peak_size() const { return peak_size_; }
  std::uint64_t storage_grows() const { return storage_grows_; }
  // Times the lane's ring doubled. The ring starts empty and grows to
  // the lane's peak occupancy, so this is O(log peak) per calendar.
  std::uint64_t lane_grows() const { return lane_grows_; }

  // Deterministic cost counters: events fired from the lane rather than
  // the heap, and heap levels the hole moved in SiftUp and SiftDown.
  std::uint64_t lane_fires() const { return lane_fires_; }
  std::uint64_t sift_levels() const { return sift_levels_; }

 private:
  // One heap or lane entry is a single 128-bit key — (time | seq |
  // slot) packed high-to-low — so the sift loops compare and move
  // entries with plain unsigned arithmetic: no two-field comparator
  // branches, 16 bytes per entry, four children per cache line.
  // Ordering is exactly (time, seq): the time occupies the top 64 bits
  // via an order-preserving encoding, seq is unique so it always decides
  // ties, and the slot bits below it can never influence a comparison.
  // Limits (checked): < 2^40 events per calendar lifetime, < 2^24
  // simultaneously pending entries.
  using HeapEntry = unsigned __int128;

  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;

  // Order-preserving map from double to uint64: flip all bits of
  // negatives, just the sign bit of non-negatives — the standard IEEE-754
  // total-order trick. `t + 0.0` first normalizes -0.0 to +0.0 so equal
  // times always produce equal keys. KeyTime inverts it exactly.
  static std::uint64_t TimeKey(SimTime t) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(t + 0.0);
    return bits ^ ((bits >> 63) != 0 ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << 63));
  }
  static SimTime KeyTime(std::uint64_t key) {
    std::uint64_t bits =
        (key >> 63) != 0 ? key ^ (std::uint64_t{1} << 63) : ~key;
    return std::bit_cast<SimTime>(bits);
  }

  enum class SlotState : std::uint8_t { kFree, kPending, kCancelled };

  // The handler and token live here, not in the heap: the slot never
  // moves, so sifts shuffle only the 16-byte keys.
  struct Slot {
    EventHandler* handler = nullptr;  // valid while kPending
    std::uint64_t token = 0;
    std::uint32_t generation = 1;  // never 0: EventId 0 stays invalid
    std::uint32_t next_free = 0;   // free-list link (valid when kFree)
    SlotState state = SlotState::kFree;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  static EventId Pack(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }

  std::size_t pending() const { return heap_.size() + lane_size_; }

  // Takes a slot for (handler, token) and returns the entry's key.
  HeapEntry NewEntry(SimTime time, EventHandler* handler,
                     std::uint64_t token);
  // Records the occupancy high-water mark and returns the entry's id.
  EventId Admitted(HeapEntry entry);
  void HeapPush(HeapEntry entry);

  // True when the lane head is the earliest pending entry.
  bool LaneFirst() const {
    return lane_size_ != 0 &&
           (heap_.empty() || lane_[lane_head_] < heap_.front());
  }
  HeapEntry LaneTail() const {
    return lane_[(lane_head_ + lane_size_ - 1) & (lane_.size() - 1)];
  }
  void LanePush(HeapEntry entry);
  void LanePop() {
    lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
    --lane_size_;
  }

  std::uint32_t TakeSlot();
  void FreeSlot(std::uint32_t slot);
  void DropCancelledHead();
  // 4-ary heap primitives: half the depth of a binary heap and the four
  // children of a node share a cache line, which cuts sift misses on
  // big calendars. `entry` is the value being placed; the hole at
  // `index` is moved until the heap property holds, then filled.
  void SiftUp(std::size_t index, HeapEntry entry);
  void SiftDown(std::size_t index, HeapEntry entry);
  void PopRoot();

  std::vector<HeapEntry> heap_;
  // The tick lane: a ring of keys in strictly increasing order, oldest
  // at lane_head_. lane_.size() is the capacity, 0 or a power of two.
  std::vector<HeapEntry> lane_;
  std::size_t lane_head_ = 0;
  std::size_t lane_size_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t cancelled_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t storage_grows_ = 0;
  std::uint64_t lane_grows_ = 0;
  std::uint64_t lane_fires_ = 0;
  std::uint64_t sift_levels_ = 0;
};

}  // namespace spiffi::sim

#endif  // SPIFFI_SIM_CALENDAR_H_
