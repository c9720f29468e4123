// Adaptive scatter engine for sparse MTTKRP output accumulation.
//
// Every sparse MTTKRP kernel in this library ends the same way: a rank-length
// Khatri-Rao row, computed per nonzero, is accumulated into one row of the
// output matrix, and concurrently processed nonzeros may target the same row.
// This header centralizes the three ways to resolve that conflict:
//
//  * kAtomic      — accumulation directly into the output (the GPU-style
//                   scatter of the paper's BLCO kernel: a CAS per element on
//                   the modeled device, one row lock per nonzero on the host,
//                   parallel/atomic.hpp). Cheap to set up, but serializes
//                   under contention — pathological on short modes, where
//                   many nonzeros land on few rows.
//  * kPrivatized  — each of T fixed nonzero ranges accumulates into its own
//                   private output tile; tiles are then combined by a
//                   fixed-shape pairwise tree reduction. Atomic-free and
//                   bit-deterministic, but needs T * dims[mode] * R reals of
//                   scratch — only affordable on short modes.
//  * kSorted      — nonzeros are bucketed by output row once per (tensor,
//                   mode) via the radix sort the format builders already use;
//                   each row's contributions are then contiguous and a single
//                   worker accumulates them with plain adds. Atomic-free and
//                   bit-deterministic with no per-call scratch; pays one
//                   plan build (reusable across iterations) and an indirect
//                   nonzero access during accumulation.
//
// kAuto picks per (mode length, rank, nnz/row, worker count): privatized when
// the tiles fit the scratch budget, otherwise sorted when determinism is
// required or the expected updates-per-row (the contention proxy) are high,
// otherwise atomic. See DESIGN.md §8 for the derivation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "la/matrix.hpp"
#include "parallel/atomic.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scratch_pool.hpp"
#include "simgpu/counters.hpp"

namespace cstf {

enum class ScatterStrategy {
  kAuto,        // choose per mode/rank/nnz/workers (resolve_scatter_strategy)
  kAtomic,      // scatter straight into the shared output
  kPrivatized,  // per-range private tiles + deterministic tree reduce
  kSorted,      // radix-bucketed segments, one owner per output row
};

/// Display name ("auto", "atomic", "privatized", "sorted").
const char* scatter_strategy_name(ScatterStrategy strategy);

/// Parses a strategy name; returns false (leaving `out` untouched) on an
/// unknown name.
bool parse_scatter_strategy(const std::string& name, ScatterStrategy* out);

/// Per-run scatter configuration, threaded from FrameworkOptions / the CLI
/// down to the kernels.
struct ScatterOptions {
  ScatterStrategy strategy = ScatterStrategy::kAuto;

  /// Force atomic-free execution: kAuto never resolves to kAtomic, and an
  /// explicit kAtomic request is re-resolved as if it were kAuto. With this
  /// set, repeated runs produce bit-identical outputs (see DESIGN.md §8).
  bool deterministic = false;

  /// Upper bound on the private-tile scratch (bytes) the privatized strategy
  /// may allocate per call; above it, resolution falls through to
  /// sorted/atomic. Tiles are pooled (ScratchPool), so this bounds steady-
  /// state memory, not per-call allocation traffic.
  double privatization_budget_bytes = 64.0 * 1024.0 * 1024.0;

  /// Per-mode strategy overrides from the autotuner: entry m (when present
  /// and not kAuto) pins mode m's strategy ahead of `strategy`. Modes beyond
  /// the vector (or kAuto entries) fall through to the normal resolution.
  /// Only resolve_scatter_strategy_for_mode consults this — call sites that
  /// do not know their mode (streaming slices) ignore it.
  std::vector<ScatterStrategy> per_mode;
};

/// Reusable sorted-scatter plan for one (tensor, mode): the nonzero ids
/// permuted so equal output rows are contiguous, plus the segment table.
/// Built once, reused every iteration (the tensor never changes during a
/// factorization).
struct ScatterPlan {
  /// Nonzero ids sorted by output row; ties keep ascending id order (the
  /// radix sort is stable), which fixes the accumulation order and makes the
  /// sorted path bit-deterministic.
  std::vector<index_t> order;

  /// seg_ptr[s] .. seg_ptr[s+1] delimit segment s inside `order`.
  std::vector<index_t> seg_ptr;

  /// Output row owned by segment s. Rows with no nonzeros have no segment.
  std::vector<index_t> seg_row;

  /// BLCO plans only: block[k] is the BLCO block holding nonzero order[k],
  /// so the kernel reaches it without a search. Empty for other formats.
  std::vector<index_t> block;

  index_t num_segments() const {
    return static_cast<index_t>(seg_row.size());
  }

  std::size_t storage_bytes() const {
    return (order.size() + seg_ptr.size() + seg_row.size() + block.size()) *
           sizeof(index_t);
  }
};

/// Lazily built per-mode plan store for backends that serve every mode of a
/// fixed tensor. Not thread-safe (backends are driven by one caller, like
/// the rest of the library).
class ScatterPlanCache {
 public:
  template <typename BuildFn>
  const ScatterPlan& get(int mode, const BuildFn& build) {
    CSTF_CHECK(mode >= 0 && mode < kMaxModes);
    auto& slot = slots_[static_cast<std::size_t>(mode)];
    if (!slot) {
      ++misses_;
      bump_metrics(false);
      slot = std::make_unique<ScatterPlan>(build());
    } else {
      ++hits_;
      bump_metrics(true);
    }
    return *slot;
  }

  /// Plan reuse counters (cumulative across clear()): a miss builds a plan,
  /// a hit reuses one. Surfaced by cstf_info and the tuning telemetry so
  /// plan-build overhead is observable.
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

  /// Drops every cached plan. Callers whose nonzero set changes between
  /// solves (the streaming path: each time slice is a different tensor)
  /// MUST clear before reusing the cache — a plan built for one slice
  /// permutes the wrong nonzeros of the next.
  void clear() {
    for (auto& slot : slots_) slot.reset();
  }

 private:
  /// Mirrors the hit/miss into the process-wide
  /// mttkrp.scatter_cache.*{engine="backend"} counters (defined in
  /// scatter.cpp).
  static void bump_metrics(bool hit);

  std::unique_ptr<ScatterPlan> slots_[kMaxModes];
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

/// Number of private tiles the privatized strategy uses for `nnz` nonzeros:
/// the dynamic-chunk count of the parallel layer (~4x workers, bounded by
/// grain). Each tile is bound to a fixed contiguous nonzero range — the tile
/// index is the range index, never the worker index — so tile contents do
/// not depend on which worker claims which range.
index_t privatized_tile_count(index_t nnz);

/// Resolves kAuto (and kAtomic under `deterministic`) to a concrete strategy
/// for one mode. Explicit non-auto requests pass through unchanged. Ignores
/// `opts.per_mode` (callers that do not know their mode index, e.g. the
/// streaming path where each slice is a different tensor).
ScatterStrategy resolve_scatter_strategy(const ScatterOptions& opts,
                                         index_t mode_len, index_t rank,
                                         index_t nnz);

/// Mode-aware resolution: a concrete `opts.per_mode[mode]` entry (the
/// autotuner's pick) wins — unless it is kAtomic under `deterministic`,
/// which falls through to the auto resolution like any other atomic request.
/// Without an override this is exactly resolve_scatter_strategy.
ScatterStrategy resolve_scatter_strategy_for_mode(const ScatterOptions& opts,
                                                  int mode, index_t mode_len,
                                                  index_t rank, index_t nnz);

/// Adds the strategy-specific cost terms to a kernel-stats record that
/// already accounts for the shared work (stream + factor gathers + scatter
/// write traffic):
///  * kAtomic: the atomic-op count and slot count feeding the contention
///    term of the cost model;
///  * kPrivatized: tile zeroing plus the tree-reduce traffic and flops;
///  * kSorted: the streamed read of the plan's permutation.
void apply_scatter_stats(simgpu::KernelStats& stats, ScatterStrategy strategy,
                         index_t mode_len, index_t rank, double nnz);

namespace detail {
/// Builds the segment table from row keys; `order` must be the identity
/// permutation of the same length. Sorts (stable LSD radix) then scans for
/// boundaries.
ScatterPlan finish_scatter_plan(std::vector<lco_t> keys,
                                std::vector<index_t> order);
}  // namespace detail

/// Builds the sorted-scatter plan for one mode. `row_of(i)` must return the
/// output row of nonzero i, for i in [0, nnz).
template <typename RowOf>
ScatterPlan build_scatter_plan(index_t nnz, const RowOf& row_of) {
  std::vector<lco_t> keys(static_cast<std::size_t>(nnz));
  std::vector<index_t> order(static_cast<std::size_t>(nnz));
  parallel_for(0, nnz, [&](index_t i) {
    keys[static_cast<std::size_t>(i)] = static_cast<lco_t>(row_of(i));
    order[static_cast<std::size_t>(i)] = i;
  });
  return detail::finish_scatter_plan(std::move(keys), std::move(order));
}

/// The engine: accumulates one rank-length contribution per nonzero into
/// `out` (dims[mode] x R, column-major) using the given concrete strategy.
/// `contribute(i, row)` must fill `row` (length out.cols()) with nonzero i's
/// Khatri-Rao row and return its output row index; it must be safe to call
/// concurrently for distinct i. `plan` is required for kSorted and ignored
/// otherwise. Zeroes `out` itself.
template <typename Contribute>
void scatter_accumulate(ScatterStrategy strategy, Matrix& out, index_t nnz,
                        const Contribute& contribute,
                        const ScatterPlan* plan = nullptr) {
  CSTF_CHECK_MSG(strategy != ScatterStrategy::kAuto,
                 "scatter_accumulate requires a concrete strategy; resolve "
                 "kAuto with resolve_scatter_strategy first");
  const index_t mode_len = out.rows();
  const index_t rank = out.cols();
  out.set_all(0.0);
  if (nnz <= 0) return;

  switch (strategy) {
    case ScatterStrategy::kAtomic: {
      const RowLocks locks(mode_len);
      parallel_for_blocked(0, nnz, [&](index_t lo, index_t hi) {
        thread_local std::vector<real_t> row;
        if (row.size() < static_cast<std::size_t>(rank)) {
          row.resize(static_cast<std::size_t>(rank));
        }
        for (index_t i = lo; i < hi; ++i) {
          const index_t out_row = contribute(i, row.data());
          locks.add_row(out.data(), mode_len, out_row, row.data(), rank);
        }
      });
      return;
    }

    case ScatterStrategy::kPrivatized: {
      const index_t tiles = privatized_tile_count(nnz);
      const auto len = static_cast<std::size_t>(mode_len * rank);
      // Row-major tiles, so a nonzero's row is R contiguous reals. The pool
      // lends them unzeroed; each range zeroes its own.
      ScratchPool::Lease lease =
          ScratchPool::global().acquire(static_cast<std::size_t>(tiles), len);
      std::vector<real_t*> tile(static_cast<std::size_t>(tiles));
      for (index_t t = 0; t < tiles; ++t) {
        tile[static_cast<std::size_t>(t)] =
            lease.tile(static_cast<std::size_t>(t));
      }
      const index_t chunk = (nnz + tiles - 1) / tiles;
      // One loop item per tile: tile t accumulates exactly the nonzeros of
      // its fixed range, serially in id order, whichever worker runs it.
      parallel_for(
          0, tiles,
          [&](index_t t) {
            real_t* dst = tile[static_cast<std::size_t>(t)];
            std::fill_n(dst, len, real_t{0});
            thread_local std::vector<real_t> row;
            if (row.size() < static_cast<std::size_t>(rank)) {
              row.resize(static_cast<std::size_t>(rank));
            }
            const index_t lo = t * chunk;
            const index_t hi = std::min<index_t>(lo + chunk, nnz);
            for (index_t i = lo; i < hi; ++i) {
              real_t* dst_row = dst + contribute(i, row.data()) * rank;
              for (index_t r = 0; r < rank; ++r) {
                dst_row[r] += row[static_cast<std::size_t>(r)];
              }
            }
          },
          /*grain=*/1);
      deterministic_tree_reduce(tile.data(), static_cast<std::size_t>(tiles),
                                static_cast<index_t>(len));
      // The reduce is elementwise, so the layout changes no bits; copying
      // the sum into the column-major output is exact.
      const real_t* sum = tile[0];
      parallel_for(0, mode_len, [&](index_t i) {
        for (index_t r = 0; r < rank; ++r) out(i, r) = sum[i * rank + r];
      });
      return;
    }

    case ScatterStrategy::kSorted: {
      CSTF_CHECK(plan != nullptr);
      CSTF_CHECK(static_cast<index_t>(plan->order.size()) == nnz);
      const index_t segments = plan->num_segments();
      // Whole segments per loop item: each output row has exactly one owner,
      // so the writes are plain stores and the per-row accumulation order is
      // the plan's (fixed) order.
      parallel_for(
          0, segments,
          [&](index_t s) {
            thread_local std::vector<real_t> scratch;
            if (scratch.size() < 2 * static_cast<std::size_t>(rank)) {
              scratch.resize(2 * static_cast<std::size_t>(rank));
            }
            real_t* row = scratch.data();
            real_t* acc = scratch.data() + rank;
            std::fill_n(acc, static_cast<std::size_t>(rank), real_t{0});
            const index_t lo = plan->seg_ptr[static_cast<std::size_t>(s)];
            const index_t hi = plan->seg_ptr[static_cast<std::size_t>(s) + 1];
            for (index_t k = lo; k < hi; ++k) {
              const index_t i = plan->order[static_cast<std::size_t>(k)];
              contribute(i, row);
              for (index_t r = 0; r < rank; ++r) {
                acc[static_cast<std::size_t>(r)] +=
                    row[static_cast<std::size_t>(r)];
              }
            }
            const index_t out_row = plan->seg_row[static_cast<std::size_t>(s)];
            for (index_t r = 0; r < rank; ++r) {
              out(out_row, r) = acc[static_cast<std::size_t>(r)];
            }
          },
          /*grain=*/16);
      return;
    }

    case ScatterStrategy::kAuto:
      break;  // rejected by the entry check
  }
}

}  // namespace cstf
