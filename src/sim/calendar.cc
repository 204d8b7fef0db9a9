#include "sim/calendar.h"

#include <algorithm>

#include "sim/check.h"

namespace spiffi::sim {

void Calendar::Reserve(std::size_t expected_entries) {
  heap_.reserve(expected_entries);
  slots_.reserve(expected_entries);
}

std::uint32_t Calendar::TakeSlot() {
  if (free_head_ != kNoSlot) {
    std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].state = SlotState::kPending;
    return slot;
  }
  auto slot = static_cast<std::uint32_t>(slots_.size());
  SPIFFI_CHECK(slot <= kSlotMask);  // < 2^24 simultaneously pending
  slots_.push_back(Slot{});
  slots_.back().state = SlotState::kPending;
  return slot;
}

void Calendar::FreeSlot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // Bump the generation so every id handed out for this slot so far is
  // now stale; skip 0 on wrap so EventId 0 stays forever invalid.
  if (++s.generation == 0) s.generation = 1;
  s.state = SlotState::kFree;
  s.next_free = free_head_;
  free_head_ = slot;
}

void Calendar::SiftUp(std::size_t index, HeapEntry entry) {
  std::uint64_t levels = 0;
  while (index > 0) {
    std::size_t parent = (index - 1) >> 2;
    if (entry >= heap_[parent]) break;
    heap_[index] = heap_[parent];
    index = parent;
    ++levels;
  }
  heap_[index] = entry;
  sift_levels_ += levels;
}

void Calendar::SiftDown(std::size_t index, HeapEntry entry) {
  const std::size_t size = heap_.size();
  std::uint64_t levels = 0;
  for (;;) {
    std::size_t child = 4 * index + 1;
    if (child + 3 < size) {
      // Full node: branchless min-of-4 (ternaries compile to cmov; a
      // scan with data-dependent branches mispredicts ~3 times per
      // level on random keys, which dominates sift cost).
      HeapEntry c0 = heap_[child], c1 = heap_[child + 1];
      HeapEntry c2 = heap_[child + 2], c3 = heap_[child + 3];
      std::size_t b01 = c1 < c0 ? child + 1 : child;
      HeapEntry e01 = c1 < c0 ? c1 : c0;
      std::size_t b23 = c3 < c2 ? child + 3 : child + 2;
      HeapEntry e23 = c3 < c2 ? c3 : c2;
      std::size_t best = e23 < e01 ? b23 : b01;
      HeapEntry eb = e23 < e01 ? e23 : e01;
      if (eb >= entry) break;
      heap_[index] = eb;
      index = best;
    } else {
      // Ragged last node (1-3 children).
      if (child >= size) break;
      const std::size_t last = std::min(child + 4, size);
      std::size_t best = child;
      for (std::size_t c = child + 1; c < last; ++c) {
        if (heap_[c] < heap_[best]) best = c;
      }
      if (heap_[best] >= entry) break;
      heap_[index] = heap_[best];
      index = best;
    }
    ++levels;
  }
  heap_[index] = entry;
  sift_levels_ += levels;
}

void Calendar::PopRoot() {
  HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0, last);
}

void Calendar::HeapPush(HeapEntry entry) {
  if (heap_.size() == heap_.capacity()) ++storage_grows_;
  heap_.push_back(HeapEntry{});  // placeholder; SiftUp fills the hole
  SiftUp(heap_.size() - 1, entry);
}

void Calendar::LanePush(HeapEntry entry) {
  if (lane_size_ == lane_.size()) {
    // Full: double the ring, unwrapping it so the head lands at 0.
    constexpr std::size_t kMinLaneCapacity = 16;
    std::vector<HeapEntry> grown(
        std::max(kMinLaneCapacity, 2 * lane_.size()));
    for (std::size_t i = 0; i < lane_size_; ++i) {
      grown[i] = lane_[(lane_head_ + i) & (lane_.size() - 1)];
    }
    lane_.swap(grown);
    lane_head_ = 0;
    ++lane_grows_;
  }
  lane_[(lane_head_ + lane_size_) & (lane_.size() - 1)] = entry;
  ++lane_size_;
}

Calendar::HeapEntry Calendar::NewEntry(SimTime time, EventHandler* handler,
                                       std::uint64_t token) {
  SPIFFI_DCHECK(handler != nullptr);
  SPIFFI_DCHECK(next_seq_ < (1ull << (64 - kSlotBits)));
  std::uint32_t slot = TakeSlot();
  Slot& s = slots_[slot];
  s.handler = handler;
  s.token = token;
  return (static_cast<HeapEntry>(TimeKey(time)) << 64) |
         ((next_seq_++ << kSlotBits) | slot);
}

EventId Calendar::Admitted(HeapEntry entry) {
  if (pending() > peak_size_) peak_size_ = pending();
  auto slot = static_cast<std::uint32_t>(entry & kSlotMask);
  return Pack(slot, slots_[slot].generation);
}

EventId Calendar::Schedule(SimTime time, EventHandler* handler,
                           std::uint64_t token) {
  HeapEntry entry = NewEntry(time, handler, token);
  HeapPush(entry);
  return Admitted(entry);
}

EventId Calendar::ScheduleTick(SimTime time, EventHandler* handler,
                               std::uint64_t token) {
  HeapEntry entry = NewEntry(time, handler, token);
  // seq grows with every entry, so the key beats the tail exactly when
  // the time is no earlier than the tail's: the lane stays sorted.
  if (lane_size_ == 0 || entry > LaneTail()) {
    LanePush(entry);
  } else {
    HeapPush(entry);
  }
  return Admitted(entry);
}

void Calendar::Cancel(EventId id) {
  auto slot = static_cast<std::uint32_t>(id >> 32);
  auto generation = static_cast<std::uint32_t>(id);
  // Stale ids (already fired, never scheduled, or a recycled slot) fail
  // the generation compare; double-cancels fail the state check.
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.state != SlotState::kPending || s.generation != generation) return;
  s.state = SlotState::kCancelled;
  ++cancelled_;
}

void Calendar::DropCancelledHead() {
  if (cancelled_ == 0) return;  // nothing cancelled anywhere
  while (pending() != 0) {
    const bool lane = LaneFirst();
    HeapEntry head = lane ? lane_[lane_head_] : heap_.front();
    auto slot = static_cast<std::uint32_t>(head & kSlotMask);
    if (slots_[slot].state != SlotState::kCancelled) break;
    FreeSlot(slot);
    --cancelled_;
    if (lane) {
      LanePop();
    } else {
      PopRoot();
    }
  }
}

SimTime Calendar::FireNext() {
  DropCancelledHead();
  HeapEntry head;
  if (LaneFirst()) {
    head = lane_[lane_head_];
    LanePop();
    ++lane_fires_;
  } else if (!heap_.empty()) {
    head = heap_.front();
    PopRoot();
  } else {
    return kSimTimeMax;
  }
  auto slot = static_cast<std::uint32_t>(head & kSlotMask);
  Slot& s = slots_[slot];
  EventHandler* handler = s.handler;
  std::uint64_t token = s.token;
  FreeSlot(slot);
  ++fired_;
  handler->OnEvent(token);
  return KeyTime(static_cast<std::uint64_t>(head >> 64));
}

SimTime Calendar::PeekTime() {
  DropCancelledHead();
  if (pending() == 0) return kSimTimeMax;
  HeapEntry head = LaneFirst() ? lane_[lane_head_] : heap_.front();
  return KeyTime(static_cast<std::uint64_t>(head >> 64));
}

bool Calendar::empty() {
  DropCancelledHead();
  return pending() == 0;
}

void Calendar::Clear() {
  for (const HeapEntry& entry : heap_) {
    FreeSlot(static_cast<std::uint32_t>(entry & kSlotMask));
  }
  heap_.clear();
  for (; lane_size_ != 0; LanePop()) {
    FreeSlot(static_cast<std::uint32_t>(lane_[lane_head_] & kSlotMask));
  }
  cancelled_ = 0;
}

}  // namespace spiffi::sim
