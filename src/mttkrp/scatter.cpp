#include "mttkrp/scatter.hpp"

#include <algorithm>

#include "common/radix_sort.hpp"
#include "metrics/registry.hpp"
#include "parallel/thread_pool.hpp"

namespace cstf {

namespace {

/// Average atomic updates per output row above which kAuto prefers the
/// sorted plan over atomics when privatization does not fit: at >= 8
/// expected colliders per row the CAS retry traffic outweighs the plan's
/// indirect access (measured on the bundled fixtures; see DESIGN.md §8).
constexpr double kSortedContentionThreshold = 8.0;

}  // namespace

void ScatterPlanCache::bump_metrics(bool hit) {
  // Every plan cache belongs to an MTTKRP backend (or the streaming path,
  // which drives the same kernels); the label keeps the series name stable.
  auto& reg = metrics::MetricsRegistry::global();
  const metrics::Labels labels = {{"engine", "backend"}};
  (hit ? reg.counter("mttkrp.scatter_cache.hits", labels)
       : reg.counter("mttkrp.scatter_cache.misses", labels))
      ->inc();
}

const char* scatter_strategy_name(ScatterStrategy strategy) {
  switch (strategy) {
    case ScatterStrategy::kAuto: return "auto";
    case ScatterStrategy::kAtomic: return "atomic";
    case ScatterStrategy::kPrivatized: return "privatized";
    case ScatterStrategy::kSorted: return "sorted";
  }
  return "?";
}

bool parse_scatter_strategy(const std::string& name, ScatterStrategy* out) {
  if (name == "auto") *out = ScatterStrategy::kAuto;
  else if (name == "atomic") *out = ScatterStrategy::kAtomic;
  else if (name == "privatized") *out = ScatterStrategy::kPrivatized;
  else if (name == "sorted") *out = ScatterStrategy::kSorted;
  else return false;
  return true;
}

index_t privatized_tile_count(index_t nnz) {
  const auto workers = static_cast<index_t>(global_thread_count());
  return detail::parallel_chunk_count(nnz, workers, kParallelGrainDefault);
}

ScatterStrategy resolve_scatter_strategy(const ScatterOptions& opts,
                                         index_t mode_len, index_t rank,
                                         index_t nnz) {
  ScatterStrategy s = opts.strategy;
  if (opts.deterministic && s == ScatterStrategy::kAtomic) {
    s = ScatterStrategy::kAuto;
  }
  if (s != ScatterStrategy::kAuto) return s;

  const double tile_bytes = static_cast<double>(mode_len) *
                            static_cast<double>(rank) * simgpu::kWord;
  const auto tiles = static_cast<double>(privatized_tile_count(nnz));
  if (tiles * tile_bytes <= opts.privatization_budget_bytes) {
    return ScatterStrategy::kPrivatized;
  }
  if (opts.deterministic) return ScatterStrategy::kSorted;
  const double updates_per_row =
      static_cast<double>(nnz) / std::max<double>(1.0, static_cast<double>(mode_len));
  return updates_per_row >= kSortedContentionThreshold
             ? ScatterStrategy::kSorted
             : ScatterStrategy::kAtomic;
}

ScatterStrategy resolve_scatter_strategy_for_mode(const ScatterOptions& opts,
                                                  int mode, index_t mode_len,
                                                  index_t rank, index_t nnz) {
  if (mode >= 0 && static_cast<std::size_t>(mode) < opts.per_mode.size()) {
    const ScatterStrategy s = opts.per_mode[static_cast<std::size_t>(mode)];
    if (s != ScatterStrategy::kAuto &&
        !(opts.deterministic && s == ScatterStrategy::kAtomic)) {
      return s;
    }
  }
  return resolve_scatter_strategy(opts, mode_len, rank, nnz);
}

void apply_scatter_stats(simgpu::KernelStats& stats, ScatterStrategy strategy,
                         index_t mode_len, index_t rank, double nnz) {
  const double out_words =
      static_cast<double>(mode_len) * static_cast<double>(rank);
  switch (strategy) {
    case ScatterStrategy::kAtomic:
      stats.atomic_ops = nnz * static_cast<double>(rank);
      stats.atomic_slots = out_words;
      break;
    case ScatterStrategy::kPrivatized: {
      const auto tiles = static_cast<double>(
          privatized_tile_count(static_cast<index_t>(nnz)));
      // Zero-fill of every tile, then the tree reduce: each of the tiles-1
      // combines streams two tiles in and one out.
      stats.bytes_streamed += (tiles + 3.0 * (tiles - 1.0)) * out_words * simgpu::kWord;
      stats.flops += (tiles - 1.0) * out_words;
      break;
    }
    case ScatterStrategy::kSorted:
      // The plan's permutation is streamed once; the nonzero accesses it
      // drives are already charged (as random traffic) by the base record.
      stats.bytes_streamed += nnz * static_cast<double>(sizeof(index_t));
      break;
    case ScatterStrategy::kAuto:
      CSTF_CHECK_MSG(false, "apply_scatter_stats requires a concrete strategy");
  }
}

namespace detail {

ScatterPlan finish_scatter_plan(std::vector<lco_t> keys,
                                std::vector<index_t> order) {
  CSTF_CHECK(keys.size() == order.size());
  radix_sort_pairs(keys, order);
  ScatterPlan plan;
  plan.order = std::move(order);
  const std::size_t n = keys.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || keys[i] != keys[i - 1]) {
      plan.seg_ptr.push_back(static_cast<index_t>(i));
      plan.seg_row.push_back(static_cast<index_t>(keys[i]));
    }
  }
  plan.seg_ptr.push_back(static_cast<index_t>(n));
  return plan;
}

}  // namespace detail

}  // namespace cstf
