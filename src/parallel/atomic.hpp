// Row-locked accumulation, the host execution of the atomic scatter.
//
// Sparse MTTKRP scatters one finished rank-length row per nonzero into a row
// of a shared column-major output, and concurrently processed nonzeros may
// target the same row. On the modeled device every element is a CAS; on the
// host, one spin lock per output row is taken once per nonzero and the row
// is added with plain loads and stores while it is held.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/types.hpp"

namespace cstf {

/// One spin lock per output row (one byte each), allocated per call. Rows
/// reach an output row in whichever order the workers get its lock, so the
/// sums are order-nondeterministic, as with per-element atomics; every
/// kernel joins its pool (a full barrier) before reading the output.
class RowLocks {
 public:
  explicit RowLocks(index_t rows)
      : locks_(std::make_unique<std::atomic<std::uint8_t>[]>(
            static_cast<std::size_t>(rows))) {}

  /// out[row + r * ld] += x[r] for r in [0, len), under `row`'s lock.
  void add_row(real_t* out, index_t ld, index_t row, const real_t* x,
               index_t len) const {
    std::atomic<std::uint8_t>& lock = locks_[static_cast<std::size_t>(row)];
    while (lock.exchange(1, std::memory_order_acquire) != 0) {
      while (lock.load(std::memory_order_relaxed) != 0) pause();
    }
    real_t* dst = out + row;
    for (index_t r = 0; r < len; ++r) dst[r * ld] += x[r];
    lock.store(0, std::memory_order_release);
  }

 private:
  static void pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  std::unique_ptr<std::atomic<std::uint8_t>[]> locks_;
};

}  // namespace cstf
