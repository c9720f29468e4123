// GCC vector types and helpers shared by the multi-variant host kernels (the
// gemm micro-kernel, the Gram kernel, the BLCO MTTKRP kernels, the ADMM
// elementwise kernels). A kernel is written once against a vector type V and
// compiled for each instruction set of common/isa.hpp: v2d for the portable
// variant, v4d for AVX2, v8d for AVX-512F.
#pragma once

#include <cstring>
#include <type_traits>

#include "common/types.hpp"

namespace cstf::simd {

using v2d = double __attribute__((vector_size(16)));
#if defined(__x86_64__) && defined(__GNUC__)
using v4d = double __attribute__((vector_size(32)));
using v8d = double __attribute__((vector_size(64)));
#endif

template <class V>
constexpr index_t kLanes = static_cast<index_t>(sizeof(V) / sizeof(real_t));

// Unaligned vector load/store. Vectors pass by reference: a vector passed by
// value would change the ABI between the variants (-Wpsabi).
template <class V>
[[gnu::always_inline]] inline void load(V& v, const real_t* p) {
  std::memcpy(&v, p, sizeof v);
}

template <class V>
[[gnu::always_inline]] inline void store(real_t* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// `x` as a value of type T: `x` itself for real_t, else `x` in every lane
/// of the vector T (bit for bit, -0 included).
template <class T>
[[gnu::always_inline]] inline T splat(real_t x) {
  if constexpr (std::is_same_v<T, real_t>) {
    return x;
  } else {
    T v;
    for (index_t l = 0; l < kLanes<T>; ++l) v[l] = x;
    return v;
  }
}

}  // namespace cstf::simd
