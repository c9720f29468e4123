// The floating-point control state of the calling thread, and a scope that
// flushes subnormal numbers to zero.
//
// An x86 core computes with a subnormal double (magnitude below 2^-1022)
// through a microcode assist that costs on the order of a hundred normal
// operations. Training produces such numbers: the ADMM dual of a row that no
// nonzero touches shrinks by a constant factor every outer iteration, and
// after a few hundred iterations many of its entries are subnormal. On the
// NELL1 analog (seed 3, R = 32, 4-vCPU AVX-512 VM) the iteration time then
// rose ~18x for ~17 iterations and stayed ~3x higher. The modeled device
// does not pay this cost, so training flushes them (DESIGN.md §5,
// decision 10).
#pragma once

#include <cstdint>

#if defined(__x86_64__) || defined(__SSE2__)
#include <xmmintrin.h>
#define CSTF_HAS_MXCSR 1
#endif

namespace cstf {

/// The sticky exception flags of the MXCSR (bits 0-5): status, not control.
inline constexpr std::uint32_t kFpStatusFlags = 0x3F;

/// The calling thread's floating-point control word: the x86 MXCSR with its
/// sticky exception flags cleared. On other hosts it is always 0 and
/// set_fp_mode() does nothing.
inline std::uint32_t fp_mode() {
#ifdef CSTF_HAS_MXCSR
  return _mm_getcsr() & ~kFpStatusFlags;
#else
  return 0;
#endif
}

/// Sets the calling thread's control word to `mode` (from fp_mode()). The
/// thread's sticky exception flags are kept.
inline void set_fp_mode(std::uint32_t mode) {
#ifdef CSTF_HAS_MXCSR
  _mm_setcsr((_mm_getcsr() & kFpStatusFlags) | (mode & ~kFpStatusFlags));
#else
  (void)mode;
#endif
}

/// For its lifetime the calling thread flushes subnormal results to zero and
/// reads subnormal operands as zero (x86 FTZ and DAZ); the destructor
/// restores the previous mode. ThreadPool::run() runs every worker in the
/// caller's mode, so a parallel region inside the scope flushes on every
/// thread, and one outside it flushes on none.
class ScopedFlushSubnormals {
 public:
  ScopedFlushSubnormals() : saved_(fp_mode()) {
    set_fp_mode(saved_ | kFlushSubnormals);
  }
  ~ScopedFlushSubnormals() { set_fp_mode(saved_); }

  ScopedFlushSubnormals(const ScopedFlushSubnormals&) = delete;
  ScopedFlushSubnormals& operator=(const ScopedFlushSubnormals&) = delete;

  /// The FTZ (bit 15) and DAZ (bit 6) bits of the control word.
  static constexpr std::uint32_t kFlushSubnormals = 0x8040;

 private:
  std::uint32_t saved_;
};

}  // namespace cstf
