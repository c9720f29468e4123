// CUDA-like kernel-launch interface executing on the host.
//
// Kernels are written against the familiar grid/block/thread decomposition:
//
//   simgpu::launch(dev, "my_kernel", {grid, block, shmem_reals}, stats,
//                  [&](const simgpu::KernelCtx& ctx) {
//                    index_t gid = ctx.global_thread_id();
//                    ...
//                  });
//
// Semantics vs real CUDA:
//  * Blocks execute in parallel across host worker threads; there is no
//    cross-block ordering, exactly like CUDA — kernels must not assume one.
//  * Threads *within* a block execute sequentially in threadIdx order on one
//    host worker. This makes block-level reductions into shared memory safe
//    without __syncthreads, but kernels must not rely on warp-parallel
//    side effects. All kernels in this repository are per-item independent
//    or block-reduce, so the restriction never binds.
//  * `ctx.shared` is a per-block scratch buffer of `shmem_reals` real_t,
//    zeroed at block start.
//
// Elementwise kernels use launch_elementwise instead, which hands the body
// contiguous chunks of the index space rather than one simulated thread at
// a time; both record the same modeled launch.
#pragma once

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "parallel/parallel_for.hpp"
#include "simgpu/device.hpp"

namespace cstf::simgpu {

/// Launch geometry (1-D grid and block; the kernels in this library all
/// linearize their index spaces), plus the stream the launch is issued to —
/// the fourth launch-config parameter, as in CUDA's <<<grid, block, shmem,
/// stream>>>. The stream affects only the modeled timeline, never execution.
struct LaunchConfig {
  index_t grid_dim = 1;
  index_t block_dim = 1;
  index_t shmem_reals = 0;
  Stream stream{};
};

/// Per-thread execution context handed to the kernel body.
struct KernelCtx {
  index_t block_idx = 0;
  index_t thread_idx = 0;
  index_t block_dim = 1;
  index_t grid_dim = 1;
  /// Per-block shared scratch (zeroed); size = LaunchConfig::shmem_reals.
  real_t* shared = nullptr;

  index_t global_thread_id() const { return block_idx * block_dim + thread_idx; }
  index_t total_threads() const { return grid_dim * block_dim; }
};

/// Executes `body` for every (block, thread) pair and records `stats` (with
/// launches/parallel_items auto-filled if left 0) on `device`.
template <typename Body>
void launch(Device& device, const std::string& kernel_name, LaunchConfig cfg,
            KernelStats stats, const Body& body) {
  CSTF_CHECK(cfg.grid_dim >= 1 && cfg.block_dim >= 1);
  if (stats.launches == 0) stats.launches = 1;
  if (stats.parallel_items == 0.0) {
    stats.parallel_items = static_cast<double>(cfg.grid_dim * cfg.block_dim);
  }

  Timer wall;
  const auto shmem = static_cast<std::size_t>(cfg.shmem_reals);
  parallel_for(0, cfg.grid_dim, [&](index_t block) {
    // Per-worker scratch reused across every block this worker runs; only the
    // zero-fill is per-block. (A fresh vector per block costs a heap
    // round-trip per block per launch on shmem kernels.)
    thread_local std::vector<real_t> shared;
    if (shared.size() < shmem) shared.resize(shmem);
    std::fill_n(shared.begin(), shmem, real_t{0});
    KernelCtx ctx;
    ctx.block_idx = block;
    ctx.block_dim = cfg.block_dim;
    ctx.grid_dim = cfg.grid_dim;
    ctx.shared = shmem > 0 ? shared.data() : nullptr;
    for (index_t t = 0; t < cfg.block_dim; ++t) {
      ctx.thread_idx = t;
      body(ctx);
    }
  }, /*grain=*/1);
  device.record(kernel_name, stats, wall.seconds(), cfg.stream);
}

/// Elements per tile of launch_elementwise: every chunk its body receives
/// starts on a multiple of this and ends on one (or at n), so a body keeping
/// one partial result per tile gets the same tiles at any worker count.
inline constexpr index_t kElementwiseTile = 2048;

/// Elementwise launch, the host form of a grid-stride kernel over n items:
/// runs `body(lo, hi)` over contiguous chunks covering [0, n) on the host
/// workers, so the body can vectorize over its chunk, then records `stats`
/// (launches auto-filled if left 0) under `kernel_name` on `stream` exactly
/// as launch() does. The modeled cost comes from `stats` alone; the caller
/// fills parallel_items.
template <typename Body>
void launch_elementwise(Device& device, const std::string& kernel_name,
                        index_t n, KernelStats stats, Stream stream,
                        const Body& body) {
  if (stats.launches == 0) stats.launches = 1;
  Timer wall;
  const index_t tiles = (n + kElementwiseTile - 1) / kElementwiseTile;
  parallel_for_blocked(0, tiles, [&](index_t lo, index_t hi) {
    body(lo * kElementwiseTile, std::min(hi * kElementwiseTile, n));
  }, /*grain=*/1);
  device.record(kernel_name, stats, wall.seconds(), stream);
}

/// Grid-stride helper: number of blocks covering `n` items with `block_dim`
/// threads per block, capped at `max_blocks` (kernels then loop).
inline index_t blocks_for(index_t n, index_t block_dim,
                          index_t max_blocks = 65535) {
  const index_t blocks = (n + block_dim - 1) / block_dim;
  return blocks < 1 ? 1 : (blocks > max_blocks ? max_blocks : blocks);
}

}  // namespace cstf::simgpu
