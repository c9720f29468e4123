// Fixed-width bit packing, used by BLCO's per-block delta compression.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace cstf {

/// Number of bits needed to represent values in [0, n) (at least 1).
int bits_for(std::uint64_t n);

/// Append-only writer of fixed-width codes into a word array.
class BitWriter {
 public:
  explicit BitWriter(int width) : width_(width) {
    CSTF_CHECK(width >= 1 && width <= 64);
  }

  void push(std::uint64_t value);

  const std::vector<std::uint64_t>& words() const { return words_; }
  std::vector<std::uint64_t> take() { return std::move(words_); }
  std::size_t count() const { return count_; }
  int width() const { return width_; }

 private:
  int width_;
  std::size_t count_ = 0;
  std::size_t bit_pos_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Random-access reader of fixed-width codes from a word array. Inline: the
/// BLCO kernels read one code per nonzero.
class BitReader {
 public:
  BitReader(const std::uint64_t* words, int width) : words_(words), width_(width) {}

  std::uint64_t get(std::size_t index) const {
    const std::size_t bit = index * static_cast<std::size_t>(width_);
    const std::size_t word = bit >> 6;
    const int offset = static_cast<int>(bit & 63);
    std::uint64_t value = words_[word] >> offset;
    const int spill = offset + width_ - 64;
    if (spill > 0) {
      value |= words_[word + 1] << (width_ - spill);
    }
    if (width_ < 64) {
      value &= (std::uint64_t{1} << width_) - 1;
    }
    return value;
  }

 private:
  const std::uint64_t* words_;
  int width_;
};

// Bit extract / deposit under a mask, with the semantics of the BMI2 PEXT
// and PDEP instructions: pext packs the bits of `x` at the set positions of
// `mask` into the low bits of the result, in ascending position order; pdep
// is its inverse. pext<false>/pdep<false> walk the mask one set bit at a
// time. pext<true>/pdep<true> issue the instruction itself and may only run
// where cpu_has_bmi2() (common/isa.hpp); off x86-64 they fall back to the
// walk. They are inline assembly rather than the _pext_u64/_pdep_u64
// intrinsics because GCC inlines an intrinsic only into a function compiled
// for BMI2, and the BLCO kernels that call these per nonzero are templates
// instantiated for a portable target too.

template <bool kBmi2>
inline std::uint64_t pext(std::uint64_t x, std::uint64_t mask) {
#if defined(__x86_64__) && defined(__GNUC__)
  if constexpr (kBmi2) {
    std::uint64_t out;
    asm("pextq %2, %1, %0" : "=r"(out) : "r"(x), "rm"(mask));
    return out;
  }
#endif
  std::uint64_t out = 0;
  for (std::uint64_t bit = 1; mask != 0; mask &= mask - 1, bit <<= 1) {
    if (x & mask & (~mask + 1)) out |= bit;
  }
  return out;
}

template <bool kBmi2>
inline std::uint64_t pdep(std::uint64_t x, std::uint64_t mask) {
#if defined(__x86_64__) && defined(__GNUC__)
  if constexpr (kBmi2) {
    std::uint64_t out;
    asm("pdepq %2, %1, %0" : "=r"(out) : "r"(x), "rm"(mask));
    return out;
  }
#endif
  std::uint64_t out = 0;
  for (std::uint64_t bit = 1; mask != 0; mask &= mask - 1, bit <<= 1) {
    if (x & bit) out |= mask & (~mask + 1);
  }
  return out;
}

}  // namespace cstf
