// Parallel reductions over index ranges.
#pragma once

#include <vector>

#include "parallel/parallel_for.hpp"

namespace cstf {

/// Reduces `mapper(i)` over [begin, end) with `combine`, starting from
/// `identity`. Each worker accumulates privately; partials are combined on
/// the caller in worker order, so the result is deterministic for a fixed
/// thread count.
template <typename T, typename Mapper, typename Combine>
T parallel_reduce(index_t begin, index_t end, T identity, const Mapper& mapper,
                  const Combine& combine,
                  index_t grain = kParallelGrainDefault) {
  const index_t n = end - begin;
  if (n <= 0) return identity;
  ThreadPool& pool = global_pool();
  const auto workers = static_cast<index_t>(pool.num_threads());
  if (n <= grain || workers == 1 || ThreadPool::in_parallel_region()) {
    T acc = identity;
    for (index_t i = begin; i < end; ++i) acc = combine(acc, mapper(i));
    return acc;
  }
  std::vector<T> partials(static_cast<std::size_t>(workers), identity);
  const index_t chunk = (n + workers - 1) / workers;
  pool.run([&](std::size_t w) {
    const index_t lo = begin + static_cast<index_t>(w) * chunk;
    const index_t hi = std::min<index_t>(lo + chunk, end);
    T acc = identity;
    for (index_t i = lo; i < hi; ++i) acc = combine(acc, mapper(i));
    partials[w] = acc;
  });
  T acc = identity;
  for (const T& p : partials) acc = combine(acc, p);
  return acc;
}

/// Parallel sum of `mapper(i)` over [begin, end).
template <typename Mapper>
auto parallel_sum(index_t begin, index_t end, const Mapper& mapper,
                  index_t grain = kParallelGrainDefault) {
  using T = decltype(mapper(begin));
  return parallel_reduce<T>(
      begin, end, T{}, mapper, [](T a, T b) { return a + b; }, grain);
}

/// Pairwise tree reduction of `num_tiles` equal-length buffers into
/// `tiles[0]`: level by level, tiles[i] += tiles[i + stride]. The combine
/// tree depends only on `num_tiles`, and each element is summed
/// independently, so for a fixed tile count the result is bit-identical
/// regardless of worker count or scheduling — the property the
/// deterministic scatter paths rely on. Parallelism is over element ranges,
/// each running every level of the tree: one pool dispatch per call.
inline void deterministic_tree_reduce(real_t* const* tiles,
                                      std::size_t num_tiles, index_t len) {
  if (num_tiles < 2) return;
  parallel_for_blocked(0, len, [&](index_t lo, index_t hi) {
    for (std::size_t stride = 1; stride < num_tiles; stride *= 2) {
      for (std::size_t i = 0; i + stride < num_tiles; i += 2 * stride) {
        real_t* dst = tiles[i];
        const real_t* src = tiles[i + stride];
        for (index_t j = lo; j < hi; ++j) {
          dst[static_cast<std::size_t>(j)] +=
              src[static_cast<std::size_t>(j)];
        }
      }
    }
  });
}

}  // namespace cstf
