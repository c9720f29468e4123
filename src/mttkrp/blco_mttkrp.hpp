// BLCO MTTKRP — the simulated-GPU kernel (Nguyen et al. ICS'22 style).
//
// One thread block per BLCO block; threads stride over the block's nonzeros,
// unpack the delta-compressed coordinates, form the Khatri-Rao row on the
// fly, and scatter into the output. The launch is metered: the streamed
// bytes are the *compressed* tensor, and the factor-row gathers are charged
// as random traffic against a working set of the live factor matrices — the
// two quantities whose interplay produces the MTTKRP-vs-ADMM speedup
// trade-off of Figures 7–8.
//
// The output scatter goes through the adaptive scatter engine
// (mttkrp/scatter.hpp). Three device kernels exist:
//   mttkrp_blco         — atomic scatter (the original kernel), with the
//                         atomic-op counts feeding the contention model;
//   mttkrp_blco_priv    — grid of private output tiles, one per fixed BLCO
//                         block range, + a mttkrp_blco_reduce launch that
//                         tree-combines them (atomic-free, deterministic);
//   mttkrp_blco_sorted  — segment sweep over a row-bucketed plan, one owner
//                         per output row (atomic-free, deterministic).
//
// On the host all three run one inline Khatri-Rao row routine, compiled for
// each instruction-set level of common/isa.hpp; DESIGN.md §8 describes the
// host execution (BMI2 decode, staged row-major factors, row-major tiles).
#pragma once

#include <vector>

#include "common/isa.hpp"
#include "formats/blco.hpp"
#include "la/matrix.hpp"
#include "mttkrp/scatter.hpp"
#include "simgpu/device.hpp"

namespace cstf {

/// MTTKRP for `mode` on the simulated device using atomic scatter (the
/// pre-engine behavior). `out` must be dims()[mode] x R.
void mttkrp_blco(simgpu::Device& dev, const BlcoTensor& blco,
                 const std::vector<Matrix>& factors, int mode, Matrix& out);

/// MTTKRP through the adaptive scatter engine; returns the concrete strategy
/// used. A null `plan` with the sorted strategy builds a one-shot plan.
ScatterStrategy mttkrp_blco(simgpu::Device& dev, const BlcoTensor& blco,
                            const std::vector<Matrix>& factors, int mode,
                            Matrix& out, const ScatterOptions& opts,
                            const ScatterPlan* plan = nullptr);

/// Builds the sorted-scatter plan for `mode` (bucket the delta-decoded
/// nonzeros by output row); reusable across iterations.
ScatterPlan blco_scatter_plan(const BlcoTensor& blco, int mode);

/// The KernelStats `mttkrp_blco` records for one call (exposed so benches
/// can rescale the traffic to full-size datasets before modeling time).
/// Describes the strategy-independent work; `apply_scatter_stats` adds the
/// per-strategy terms.
simgpu::KernelStats blco_mttkrp_stats(const BlcoTensor& blco,
                                      const std::vector<Matrix>& factors,
                                      int mode);

/// Out-of-memory streamed MTTKRP (the BLCO substrate paper's headline mode):
/// when the tensor exceeds `device_budget_bytes` of device memory (after the
/// resident factors), its blocks are processed in batches staged over the
/// host link, double-buffered so staging overlaps compute. The scatter
/// strategy is resolved once from `opts` for the whole tensor
/// (resolve_scatter_strategy_for_mode). Each batch then runs that
/// strategy's kernel over its own nonzeros — its own private tiles, or its
/// own one-shot plan, both released with the batch — and adds its partial
/// result into `out` in batch order, so the atomic-free strategies give
/// bit-identical output on every run. The result equals `mttkrp_blco` up
/// to the rounding of a different summation grouping. When the tensor fits,
/// this is `mttkrp_blco(dev, blco, factors, mode, out, opts)`.
///
/// Two ways to model the staging:
///  * default `copy_stream` — each batch's compute span carries its own
///    host_link_bytes, and the cost model overlaps the two within the span
///    (the pre-stream behavior, unchanged);
///  * an explicit `copy_stream` — staging becomes its own spans on that
///    stream, with events expressing the two-buffer pipeline (compute of
///    batch i waits its staging; staging of batch i reuses the buffer of
///    batch i-2, so it waits that compute), and Device::modeled_time_s()
///    reports the pipeline's critical path.
///
/// Returns the number of batches used (1 == fully resident, no staging).
index_t mttkrp_blco_streamed(simgpu::Device& dev, const BlcoTensor& blco,
                             const std::vector<Matrix>& factors, int mode,
                             Matrix& out, double device_budget_bytes,
                             simgpu::Stream copy_stream = {},
                             const ScatterOptions& opts = {});

namespace detail {

/// mttkrp_blco(dev, blco, factors, mode, out, opts, plan) on the given
/// instruction-set variant of the host kernels; throws if the CPU lacks it.
/// A CPU without BMI2 runs the portable variant in place of the vector
/// ones. The public entry points run widest_isa(). Every variant gives
/// bitwise-identical output for the atomic-free strategies; this entry point
/// lets tests compare them.
ScatterStrategy mttkrp_blco(Isa isa, simgpu::Device& dev,
                            const BlcoTensor& blco,
                            const std::vector<Matrix>& factors, int mode,
                            Matrix& out, const ScatterOptions& opts,
                            const ScatterPlan* plan = nullptr);

}  // namespace detail

}  // namespace cstf
