// Open-addressing hash table for the per-request lookups (buffer-pool
// page table, prefetch pending set).
//
// Power-of-two capacity with the hash masked rather than taken modulo a
// prime, linear probing, and backward-shift deletion: an erase pulls the
// later members of its probe chain back, so there are no tombstones and
// a chain never outlives the entries that formed it. Each slot holds the
// key and value inline; a slot whose key equals KeyTraits::kEmpty is
// free, so no live entry may use that key. Load stays at most 3/4:
// Reserve(n) sizes the array so that n entries fit without growing, and
// an insert past that doubles it. Nothing iterates the table, so its
// layout (which depends on insert order and capacity) cannot reach
// simulation results.
//
// KeyTraits provides `static constexpr Key kEmpty` and
// `static std::uint64_t Hash(const Key&)` with well-mixed low bits
// (sim::Mix64 / sim::Hash64).

#ifndef SPIFFI_SIM_FLAT_TABLE_H_
#define SPIFFI_SIM_FLAT_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/check.h"

namespace spiffi::sim {

template <typename Key, typename Value, typename KeyTraits>
class FlatTable {
 public:
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  // Grows the array (never shrinks it) so that `entries` fit at load
  // <= 3/4 without a further rehash.
  void Reserve(std::size_t entries) {
    const std::size_t needed =
        std::max<std::size_t>(std::bit_ceil((entries * 4 + 2) / 3), 8);
    if (needed > slots_.size()) Rehash(needed);
  }

  // The value stored under `key`, or nullptr.
  Value* Find(const Key& key) {
    const std::size_t i = SlotOf(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }

  // Inserts `key` -> `value`; returns false (storing nothing) when the
  // key is already present.
  bool Insert(const Key& key, const Value& value = Value()) {
    SPIFFI_DCHECK(!(key == KeyTraits::kEmpty));
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(std::max<std::size_t>(slots_.size() * 2, 8));
    }
    std::size_t i = Home(key);
    for (; !(slots_[i].key == KeyTraits::kEmpty); i = (i + 1) & mask_) {
      if (slots_[i].key == key) return false;
    }
    slots_[i].key = key;
    slots_[i].value = value;
    ++size_;
    return true;
  }

  // Removes `key`; returns false when it was absent.
  bool Erase(const Key& key) {
    std::size_t hole = SlotOf(key);
    if (hole == kAbsent) return false;
    // Backward shift: an entry further along the chain moves into the
    // hole unless its home lies cyclically in (hole, j], where the
    // move would put it before its home and out of reach of lookups.
    for (std::size_t j = (hole + 1) & mask_;
         !(slots_[j].key == KeyTraits::kEmpty); j = (j + 1) & mask_) {
      const std::size_t home = Home(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot();
    --size_;
    return true;
  }

 private:
  struct Slot {
    Key key = KeyTraits::kEmpty;
    [[no_unique_address]] Value value{};
  };
  static_assert(!std::is_empty_v<Value> || sizeof(Slot) == sizeof(Key),
                "a set's slot is its key alone");

  static constexpr std::size_t kAbsent = ~std::size_t{0};

  std::size_t Home(const Key& key) const {
    return static_cast<std::size_t>(KeyTraits::Hash(key)) & mask_;
  }

  // Index of the slot holding `key`, or kAbsent.
  std::size_t SlotOf(const Key& key) const {
    if (size_ == 0) return kAbsent;
    for (std::size_t i = Home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == KeyTraits::kEmpty) return kAbsent;
      if (slots_[i].key == key) return i;
    }
  }

  void Rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    for (const Slot& slot : old) {
      if (slot.key == KeyTraits::kEmpty) continue;
      std::size_t i = Home(slot.key);
      while (!(slots_[i].key == KeyTraits::kEmpty)) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

// Value type of a FlatSet: takes no room in the slot.
struct FlatUnit {};

template <typename Key, typename KeyTraits>
using FlatSet = FlatTable<Key, FlatUnit, KeyTraits>;

}  // namespace spiffi::sim

#endif  // SPIFFI_SIM_FLAT_TABLE_H_
