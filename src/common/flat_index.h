// FlatIndex: the flat open-addressing hash index shared by the executor's
// join and aggregation tables and the sync pipeline's merge fold.

#ifndef HTAP_COMMON_FLAT_INDEX_H_
#define HTAP_COMMON_FLAT_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace htap {

/// Flat open-addressing index from a 64-bit hash to a uint32_t payload —
/// the one hash table behind the join's partition tables, the
/// aggregation's group tables and the sync merge's key fold. Power-of-two slot array, linear probing,
/// load factor at most 1/2. The home slot is the top bits of a Fibonacci
/// multiply, so hashes sharing their low bits (every row of one radix
/// partition does) still spread over the whole array. Several slots may
/// hold the same hash; callers tell their payloads apart through the
/// `match` callback.
class FlatIndex {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  /// The first payload stored under `hash`, or kNone.
  uint32_t Find(uint64_t hash) const {
    if (slots_.empty()) return kNone;
    for (size_t s = Home(hash);; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.payload == kNone) return kNone;
      if (slot.hash == hash) return slot.payload;
    }
  }

  /// The first payload stored under `hash` that satisfies `match`; on a
  /// miss stores make() under `hash` and returns it. make() must not return
  /// kNone.
  template <typename Match, typename Make>
  uint32_t FindOrInsert(uint64_t hash, const Match& match, const Make& make) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    size_t s = Home(hash);
    for (;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.payload == kNone) break;
      if (slot.hash == hash && match(slot.payload)) return slot.payload;
    }
    const uint32_t payload = make();
    slots_[s] = Slot{hash, payload};
    ++size_;
    return payload;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t payload = kNone;
  };

  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// Doubles the slot array (16 slots at first) and re-homes every entry.
  void Grow() {
    const size_t cap = slots_.empty() ? 16 : 2 * slots_.size();
    std::vector<Slot> old(cap);
    old.swap(slots_);
    mask_ = cap - 1;
    shift_ = 64 - std::countr_zero(cap);
    for (const Slot& slot : old) {
      if (slot.payload == kNone) continue;
      size_t s = Home(slot.hash);
      while (slots_[s].payload != kNone) s = (s + 1) & mask_;
      slots_[s] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace htap

#endif  // HTAP_COMMON_FLAT_INDEX_H_
