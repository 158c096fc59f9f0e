// An open-addressed key -> count table for the suspect path's bounded
// per-key state: core/scan's buffer counters and core/eia's pending learn
// counters.
//
// Linear probing from a Fibonacci-hashed home slot. Erase shifts the rest
// of the probe run back (backward-shift deletion), so there are no
// tombstones and a lookup stops at the first empty slot. A count of 0
// marks an empty slot, so every stored count is at least 1. The slot array
// starts at kMinCapacity slots and doubles whenever an insert would pass
// 3/4 load; it never shrinks. A caller that holds at most n keys therefore
// never sees more than capacity_for(n) slots, and once the array has grown
// to hold the caller's working set no operation touches the heap (the
// fixed-capacity map of Vigor's verified NF library, sized lazily).

#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace infilter::util {

template <std::unsigned_integral Key>
class CountTable {
 public:
  /// Slots of a new table; a power of two.
  static constexpr std::size_t kMinCapacity = 8;

  /// The most slots a table that never holds more than `keys` keys grows
  /// to: the smallest power of two (>= kMinCapacity) that keeps `keys`
  /// within the load limit. At most max(kMinCapacity, 2 * bit_ceil(keys)).
  static constexpr std::size_t capacity_for(std::size_t keys) {
    std::size_t slots = kMinCapacity;
    while (over_load(keys, slots)) slots *= 2;
    return slots;
  }

  CountTable() : slots_(kMinCapacity) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots allocated: a power of two that keeps size() at most 3/4 of it.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// The key's count; 0 when the key is absent.
  [[nodiscard]] std::uint32_t count(Key key) const { return slots_[find(key)].count; }

  /// Adds one to the key's count, inserting it at 1. Returns the new count.
  std::uint32_t increment(Key key) {
    std::size_t at = find(key);
    if (slots_[at].count == 0) at = insert(at, key);
    return ++slots_[at].count;
  }

  /// Subtracts one from the key's count, which must be at least 1, and
  /// erases the key when it reaches 0. Returns the new count.
  std::uint32_t decrement(Key key) {
    const std::size_t at = find(key);
    const std::uint32_t left = --slots_[at].count;
    if (left == 0) erase_at(at);
    return left;
  }

  /// Sets the key's count; a count of 0 erases the key.
  void assign(Key key, std::uint32_t count) {
    std::size_t at = find(key);
    if (count == 0) {
      if (slots_[at].count != 0) erase_at(at);
      return;
    }
    if (slots_[at].count == 0) at = insert(at, key);
    slots_[at].count = count;
  }

  /// Erases the key, if present.
  void erase(Key key) {
    const std::size_t at = find(key);
    if (slots_[at].count != 0) erase_at(at);
  }

  /// Halves every count and erases the keys that reach 0, in place.
  void halve() {
    // Start just past an empty slot, so no probe run wraps around the
    // start: an erase then only shifts not-yet-visited entries back into
    // the slot being examined, which is examined again, so every entry is
    // halved exactly once.
    const std::size_t mask = capacity() - 1;
    std::size_t start = 0;
    while (slots_[start].count != 0) ++start;
    std::size_t i = (start + 1) & mask;
    for (std::size_t visited = 1; visited < capacity();) {
      if (slots_[i].count != 0 && (slots_[i].count /= 2) == 0) {
        erase_at(i);
        continue;
      }
      i = (i + 1) & mask;
      ++visited;
    }
  }

  /// Erases the entry with the smallest (count, key), if any.
  void erase_min() {
    std::size_t victim = capacity();
    for (std::size_t i = 0; i < capacity(); ++i) {
      const Slot& slot = slots_[i];
      if (slot.count == 0) continue;
      if (victim == capacity() || slot.count < slots_[victim].count ||
          (slot.count == slots_[victim].count && slot.key < slots_[victim].key)) {
        victim = i;
      }
    }
    if (victim != capacity()) erase_at(victim);
  }

  /// Calls f(key, count) for every entry, in slot order.
  template <class F>
  void for_each(F&& f) const {
    for (const Slot& slot : slots_) {
      if (slot.count != 0) f(slot.key, slot.count);
    }
  }

 private:
  struct Slot {
    Key key = 0;
    std::uint32_t count = 0;  ///< 0 = empty
  };

  /// The load limit, 3/4: an insert that would pass it doubles the array.
  static constexpr bool over_load(std::size_t size, std::size_t slots) {
    return size * 4 > slots * 3;
  }

  /// Fibonacci hashing (2^64 / golden ratio): the home slot is the top
  /// log2(capacity) bits of key * kGolden, which every key bit reaches.
  static constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

  [[nodiscard]] std::size_t home_of(Key key) const {
    return static_cast<std::size_t>((std::uint64_t{key} * kGolden) >> shift_);
  }

  /// The key's slot, or the empty slot that ends its probe run.
  [[nodiscard]] std::size_t find(Key key) const {
    // Terminates: the load limit keeps at least a quarter of the slots empty.
    const std::size_t mask = capacity() - 1;
    for (std::size_t i = home_of(key);; i = (i + 1) & mask) {
      if (slots_[i].count == 0 || slots_[i].key == key) return i;
    }
  }

  /// Claims the empty slot `at` (= find(key)) for `key` at count 0, to be
  /// set by the caller. Doubles the array first when the insert would pass
  /// the load limit. Returns the slot.
  std::size_t insert(std::size_t at, Key key) {
    if (over_load(size_ + 1, capacity())) {
      grow();
      at = find(key);
    }
    slots_[at].key = key;
    ++size_;
    return at;
  }

  void grow() {
    std::vector<Slot> old(capacity() * 2);
    old.swap(slots_);
    --shift_;
    for (const Slot& slot : old) {
      if (slot.count != 0) slots_[find(slot.key)] = slot;
    }
  }

  void erase_at(std::size_t hole) {
    const std::size_t mask = capacity() - 1;
    for (std::size_t i = (hole + 1) & mask; slots_[i].count != 0; i = (i + 1) & mask) {
      // The entry at i may fill the hole unless its home lies in (hole, i]:
      // then it is already as close to home as the run allows.
      if (((i - home_of(slots_[i].key)) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  /// 64 - log2(capacity()).
  unsigned shift_ = 64 - std::countr_zero(kMinCapacity);
};

}  // namespace infilter::util
