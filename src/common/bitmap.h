// Dynamic bitset used for delete bitmaps and null bitmaps in the columnar
// store. Grows on demand; popcount and logical ops are provided for the
// scan paths.

#ifndef HTAP_COMMON_BITMAP_H_
#define HTAP_COMMON_BITMAP_H_

#include <bit>
#include <cstdint>
#include <vector>

namespace htap {

/// A growable bitmap. Bits default to 0. Not thread-safe; callers latch.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t nbits) { Resize(nbits); }

  void Resize(size_t nbits) {
    nbits_ = nbits;
    words_.resize((nbits + 63) / 64, 0);
  }

  size_t size() const { return nbits_; }

  /// Shrinks to the first `nbits` bits, clearing every bit past them so a
  /// later Set/Resize cannot resurrect a stale one.
  void Truncate(size_t nbits) {
    if (nbits >= nbits_) return;
    nbits_ = nbits;
    words_.resize((nbits + 63) / 64);
    if ((nbits & 63) != 0) words_.back() &= (1ULL << (nbits & 63)) - 1;
  }

  void Set(size_t i) {
    EnsureCapacity(i);
    words_[i >> 6] |= (1ULL << (i & 63));
  }

  void Clear(size_t i) {
    if (i >= nbits_) return;
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  bool Test(size_t i) const {
    if (i >= nbits_) return false;
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Number of set bits.
  size_t Count() const {
    size_t c = 0;
    for (uint64_t w : words_) c += static_cast<size_t>(std::popcount(w));
    return c;
  }

  bool AnySet() const {
    for (uint64_t w : words_)
      if (w != 0) return true;
    return false;
  }

  void ClearAll() {
    for (auto& w : words_) w = 0;
  }

  /// this |= other (sizes need not match; grows to fit).
  void UnionWith(const Bitmap& other) {
    if (other.nbits_ > nbits_) Resize(other.nbits_);
    for (size_t i = 0; i < other.words_.size(); ++i) words_[i] |= other.words_[i];
  }

  /// Raw words, for serialization.
  const std::vector<uint64_t>& words() const { return words_; }

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const { return words_.capacity() * sizeof(uint64_t); }

 private:
  void EnsureCapacity(size_t i) {
    if (i >= nbits_) {
      nbits_ = i + 1;
      const size_t need = (nbits_ + 63) / 64;
      if (need > words_.size()) words_.resize(need, 0);
    }
  }

  size_t nbits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace htap

#endif  // HTAP_COMMON_BITMAP_H_
