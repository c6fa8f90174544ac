// DynamicBitset — a fixed-capacity, runtime-sized bitset.
//
// Used for reachability closures and antichain compatibility masks, where
// the hot loops are word-wise AND/OR and popcount. std::vector<bool> is not
// word-addressable and std::bitset is compile-time sized, hence this class.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/require.hpp"

namespace mpsched {

/// Number of set bits in one word — the codebase's one popcount. Where the
/// target has a popcount instruction this is std::popcount; on baseline
/// x86-64 (no -mpopcnt) GCC would lower std::popcount to a libgcc call, so
/// there it is a branch-free SWAR count instead.
inline int popcount(std::uint64_t w) noexcept {
#if defined(__POPCNT__) || defined(__aarch64__)
  return std::popcount(w);
#else
  w -= (w >> 1) & 0x5555555555555555ULL;
  w = (w & 0x3333333333333333ULL) + ((w >> 2) & 0x3333333333333333ULL);
  w = (w + (w >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<int>((w * 0x0101010101010101ULL) >> 56);
#endif
}

class DynamicBitset {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  DynamicBitset() = default;

  /// Creates a bitset holding `n` bits, all zero.
  explicit DynamicBitset(std::size_t n) : n_bits_(n), words_((n + kWordBits - 1) / kWordBits, 0) {}

  std::size_t size() const noexcept { return n_bits_; }
  std::size_t word_count() const noexcept { return words_.size(); }
  bool empty() const noexcept { return n_bits_ == 0; }

  void set(std::size_t i) {
    MPSCHED_ASSERT(i < n_bits_);
    words_[i / kWordBits] |= Word{1} << (i % kWordBits);
  }

  void reset(std::size_t i) {
    MPSCHED_ASSERT(i < n_bits_);
    words_[i / kWordBits] &= ~(Word{1} << (i % kWordBits));
  }

  bool test(std::size_t i) const {
    MPSCHED_ASSERT(i < n_bits_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1U;
  }

  void clear() noexcept {
    for (Word& w : words_) w = 0;
  }

  /// Sets all `size()` bits to one (tail bits in the last word stay zero).
  void set_all() {
    for (Word& w : words_) w = ~Word{0};
    trim_tail();
  }

  /// Number of set bits.
  std::size_t count() const noexcept {
    std::size_t c = 0;
    for (Word w : words_) c += static_cast<std::size_t>(popcount(w));
    return c;
  }

  bool any() const noexcept {
    for (Word w : words_)
      if (w != 0) return true;
    return false;
  }

  bool none() const noexcept { return !any(); }

  /// True if `*this` and `other` share at least one set bit.
  bool intersects(const DynamicBitset& other) const {
    MPSCHED_ASSERT(n_bits_ == other.n_bits_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & other.words_[i]) return true;
    return false;
  }

  /// True if every set bit of `*this` is also set in `other`.
  bool is_subset_of(const DynamicBitset& other) const {
    MPSCHED_ASSERT(n_bits_ == other.n_bits_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & ~other.words_[i]) return false;
    return true;
  }

  DynamicBitset& operator|=(const DynamicBitset& other) {
    MPSCHED_ASSERT(n_bits_ == other.n_bits_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }

  DynamicBitset& operator&=(const DynamicBitset& other) {
    MPSCHED_ASSERT(n_bits_ == other.n_bits_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }

  DynamicBitset& operator^=(const DynamicBitset& other) {
    MPSCHED_ASSERT(n_bits_ == other.n_bits_);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
    return *this;
  }

  friend DynamicBitset operator|(DynamicBitset a, const DynamicBitset& b) { return a |= b; }
  friend DynamicBitset operator&(DynamicBitset a, const DynamicBitset& b) { return a &= b; }
  friend DynamicBitset operator^(DynamicBitset a, const DynamicBitset& b) { return a ^= b; }

  bool operator==(const DynamicBitset& other) const = default;

  /// Index of the lowest set bit at or after `from`, or `size()` if none.
  std::size_t find_next(std::size_t from) const;

  /// Index of the lowest set bit, or `size()` if none.
  std::size_t find_first() const { return find_next(0); }

  /// Invokes `fn(i)` for every set bit index `i`, in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      Word w = words_[wi];
      while (w != 0) {
        const int b = std::countr_zero(w);
        fn(wi * kWordBits + static_cast<std::size_t>(b));
        w &= w - 1;
      }
    }
  }

  /// Word-parallel iteration over a raw word array: invokes `fn(i)` for
  /// every set bit `i >= from` of the `word_count`-word array `words`, in
  /// increasing order. Tail bits past the caller's logical size must be
  /// zero (every DynamicBitset, and any AND of them, satisfies this). This
  /// is the enumeration hot path's candidate probe — one fused
  /// mask+countr_zero walk instead of a find_next() call per bit — kept
  /// here so tests can pin its equivalence to for_each().
  template <typename Fn>
  static void for_each_set_from(const Word* words, std::size_t word_count,
                                std::size_t from, Fn&& fn) {
    std::size_t wi = from / kWordBits;
    if (wi >= word_count) return;
    Word w = words[wi] & (~Word{0} << (from % kWordBits));
    while (true) {
      while (w != 0) {
        const int b = std::countr_zero(w);
        fn(wi * kWordBits + static_cast<std::size_t>(b));
        w &= w - 1;
      }
      if (++wi >= word_count) return;
      w = words[wi];
    }
  }

  /// Member form of the fused walk: every set bit `i >= from` of *this.
  template <typename Fn>
  void for_each_from(std::size_t from, Fn&& fn) const {
    for_each_set_from(words_.data(), words_.size(), from, std::forward<Fn>(fn));
  }

  /// All set bit indices in increasing order.
  std::vector<std::size_t> to_indices() const;

  /// Raw word access for fused loops (e.g. AND-then-popcount kernels).
  const Word* words() const noexcept { return words_.data(); }
  Word* words() noexcept { return words_.data(); }

 private:
  void trim_tail() {
    const std::size_t tail = n_bits_ % kWordBits;
    if (tail != 0 && !words_.empty()) words_.back() &= (Word{1} << tail) - 1;
  }

  std::size_t n_bits_ = 0;
  std::vector<Word> words_;
};

}  // namespace mpsched
