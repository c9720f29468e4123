#include "mttkrp/blco_mttkrp.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "parallel/atomic.hpp"
#include "simgpu/launch.hpp"

namespace cstf {

simgpu::KernelStats blco_mttkrp_stats(const BlcoTensor& blco,
                                      const std::vector<Matrix>& factors,
                                      int mode) {
  const int modes = blco.num_modes();
  const auto rank = static_cast<double>(factors[0].cols());
  const auto nnz = static_cast<double>(blco.nnz());
  simgpu::KernelStats stats;
  // Per nonzero: (modes-1) row scalings + value scale + accumulate add.
  stats.flops = nnz * rank * static_cast<double>(modes + 1);
  // Compressed tensor is streamed once.
  stats.bytes_streamed = blco.storage_bytes();
  // Factor-row gathers and output scatter are random accesses whose reuse is
  // bounded by the live factor working set.
  double factor_bytes = 0.0;
  for (int m = 0; m < modes; ++m) {
    if (m == mode) continue;
    factor_bytes +=
        static_cast<double>(factors[static_cast<std::size_t>(m)].size()) *
        simgpu::kWord;
  }
  const double out_bytes =
      static_cast<double>(blco.dims()[static_cast<std::size_t>(mode)]) * rank *
      simgpu::kWord;
  stats.bytes_random = nnz * rank * simgpu::kWord *
                           static_cast<double>(modes - 1)  // gathers
                       + nnz * rank * simgpu::kWord * 2.0;  // scatter RMW
  stats.working_set_bytes = factor_bytes + out_bytes;
  stats.parallel_items = nnz;
  // Warp-level gathers and atomics keep the SMs below FMA peak.
  stats.compute_efficiency = 0.5;
  return stats;
}

namespace {

// Scales the extensive parts of a per-call record to a fraction of the
// nonzeros (used to pro-rate the full-tensor stats over a streamed batch).
// `atomic_slots` stays: every batch scatters into the same output rows.
simgpu::KernelStats prorate(const simgpu::KernelStats& stats, double share) {
  simgpu::KernelStats scaled = stats;
  scaled.flops *= share;
  scaled.bytes_streamed *= share;
  scaled.bytes_reused *= share;
  scaled.bytes_random *= share;
  scaled.atomic_ops *= share;
  scaled.parallel_items *= share;
  return scaled;
}

// ---------------------------------------------------------------------------
// Host execution. Every kernel body below runs one inline routine, krp_row:
// read the nonzero's delta, decode its coordinates with the call's hoisted
// mode masks (PEXT), and build its Khatri-Rao row v * f_a(c_a,:) * f_b(c_b,:)
// * ... over the gathered modes in ascending order, one multiply each. The
// row is built a vector of lanes at a time and handed to a sink (the atomic
// kernel's row buffer, a private tile, a segment accumulator); one partly
// filled vector covers the last R mod lanes elements.
//
// Bitwise contract, for every instruction-set variant: each row element is
// `v`, then `*= f_m(c_m, r)` for m ascending, then one add into its
// accumulator, in the kernel's nonzero order — the operations of a scalar
// per-nonzero loop. Lanes are independent elements, so the vector width
// changes nothing; FP contraction is off for this library (CMakeLists.txt),
// so the multiply and add never fuse into FMA.
//
// Host-only layout (the staged copies and the extra tile are not metered,
// pooled or a fault site):
//  * a gathered factor is read from a row-major copy staged once per call
//    when the call's nonzeros outnumber its elements (nnz >= R * I_m), so a
//    row is R contiguous reals; smaller calls read the column-major factor
//    in place rather than pay the copy (and its memory) per call;
//  * the privatized kernel's tiles are row-major, and the result reaches
//    column-major `out` through one extra tile (see launch_blco_priv).
// ---------------------------------------------------------------------------

using namespace simd;

// *p += x over x's lanes; the real_t overload serves the scalar tail.
template <class V>
[[gnu::always_inline]] inline void add_to(real_t* p, const V& x) {
  V acc;
  load(acc, p);
  acc += x;
  store(p, acc);
}

[[gnu::always_inline]] inline void add_to(real_t* p, real_t x) { *p += x; }

// One call's hoisted routine arguments. Gathered factor g's row c starts at
// factor[g] + c * row_step[g], and its element r lies r * col_step[g]
// further on: (R, 1) for a staged row-major copy, (1, I_m) in place.
struct KrpArgs {
  const BlcoTensor* blco = nullptr;
  const real_t* values = nullptr;
  index_t rank = 0;
  lco_t out_mask = 0;
  int gathers = 0;
  lco_t mask[kMaxModes] = {};
  const real_t* factor[kMaxModes] = {};
  index_t row_step[kMaxModes] = {};
  index_t col_step[kMaxModes] = {};
};

// The shared routine: nonzero i of `blk`. Calls sink(out_row, r, x) for
// each piece x (a V, or a real_t in the tail) covering row elements
// [r, r + lanes). kGathers > 0 fixes the gathered-mode count at compile
// time, so the mode loops unroll and the factor row pointers stay in
// registers; kGathers == 0 reads it from `a`.
template <class V, bool kBmi2, int kGathers, class Sink>
[[gnu::always_inline]] inline void krp_row(const KrpArgs& a,
                                           const BlcoBlock& blk, index_t i,
                                           const Sink& sink) {
  const int gathers = kGathers > 0 ? kGathers : a.gathers;
  const lco_t lco =
      blk.base + BitReader(blk.packed_deltas.data(), blk.delta_bits)
                     .get(static_cast<std::size_t>(i));
  const real_t v = a.values[blk.value_offset + i];
  const real_t* f[kMaxModes];
  for (int g = 0; g < gathers; ++g) {
    f[g] = a.factor[g] +
           static_cast<index_t>(pext<kBmi2>(lco, a.mask[g])) * a.row_step[g];
  }
  const auto out_row = static_cast<index_t>(pext<kBmi2>(lco, a.out_mask));
  index_t r = 0;
  for (; r + kLanes<V> <= a.rank; r += kLanes<V>) {
    V x;
    for (index_t l = 0; l < kLanes<V>; ++l) x[l] = v;
    for (int g = 0; g < gathers; ++g) {
      V y;
      if (a.col_step[g] == 1) {
        load(y, f[g] + r);
      } else {
        for (index_t l = 0; l < kLanes<V>; ++l) {
          y[l] = f[g][(r + l) * a.col_step[g]];
        }
      }
      x *= y;
    }
    sink(out_row, r, x);
  }
  if (r < a.rank) {
    // The tail: R mod lanes elements, in one partly filled vector.
    const index_t n = a.rank - r;
    V x;
    for (index_t l = 0; l < kLanes<V>; ++l) x[l] = v;
    for (int g = 0; g < gathers; ++g) {
      V y = {};
      for (index_t l = 0; l < n; ++l) y[l] = f[g][(r + l) * a.col_step[g]];
      x *= y;
    }
    for (index_t l = 0; l < n; ++l) sink(out_row, r + l, x[l]);
  }
}

// One kernel-body call's work, one struct per kernel.
//
// Atomic: every nonzero of BLCO block `block`, in order. Each finished row
// is built in `row` (R reals) and added into column-major `out` under its
// output row's lock.
struct AtomicTask {
  index_t block = 0;
  real_t* row = nullptr;
  Matrix* out = nullptr;
  const RowLocks* locks = nullptr;
};

// Privatized: every nonzero of BLCO blocks [first, last), in order, into the
// row-major tile `tile`.
struct TileTask {
  index_t first = 0, last = 0;
  real_t* tile = nullptr;
};

// Sorted: plan segments first, first + step, ... < last, each summed in
// `acc` (R reals) in plan order, then added into its row of `out`.
struct SortedTask {
  index_t first = 0, last = 0, step = 1;
  real_t* acc = nullptr;
  Matrix* out = nullptr;
  const ScatterPlan* plan = nullptr;
};

template <class V, bool kBmi2, int kGathers>
[[gnu::always_inline]] inline void atomic_kernel(const KrpArgs& a,
                                                 const AtomicTask& t) {
  const BlcoBlock& blk = a.blco->block(t.block);
  Matrix& out = *t.out;
  for (index_t i = 0; i < blk.count; ++i) {
    index_t out_row = 0;
    krp_row<V, kBmi2, kGathers>(
        a, blk, i, [&](index_t row, index_t r, const auto& x) {
          out_row = row;
          store(t.row + r, x);
        });
    t.locks->add_row(out.data(), out.rows(), out_row, t.row, a.rank);
  }
}

template <class V, bool kBmi2, int kGathers>
[[gnu::always_inline]] inline void tile_kernel(const KrpArgs& a,
                                               const TileTask& t) {
  const index_t rank = a.rank;
  for (index_t b = t.first; b < t.last; ++b) {
    const BlcoBlock& blk = a.blco->block(b);
    for (index_t i = 0; i < blk.count; ++i) {
      krp_row<V, kBmi2, kGathers>(
          a, blk, i, [&](index_t row, index_t r, const auto& x) {
            add_to(t.tile + row * rank + r, x);
          });
    }
  }
}

template <class V, bool kBmi2, int kGathers>
[[gnu::always_inline]] inline void sorted_kernel(const KrpArgs& a,
                                                 const SortedTask& t) {
  const index_t rank = a.rank;
  const ScatterPlan& plan = *t.plan;
  for (index_t s = t.first; s < t.last; s += t.step) {
    std::fill_n(t.acc, static_cast<std::size_t>(rank), real_t{0});
    const index_t lo = plan.seg_ptr[static_cast<std::size_t>(s)];
    const index_t hi = plan.seg_ptr[static_cast<std::size_t>(s) + 1];
    for (index_t k = lo; k < hi; ++k) {
      const index_t i = plan.order[static_cast<std::size_t>(k)];
      const BlcoBlock& blk =
          a.blco->block(plan.block[static_cast<std::size_t>(k)]);
      krp_row<V, kBmi2, kGathers>(a, blk, i - blk.value_offset,
                                  [&](index_t, index_t r, const auto& x) {
                                    add_to(t.acc + r, x);
                                  });
    }
    // `out` is zero or an earlier batch's sum here; acc starts from +0, so
    // it is never -0 and adding it into a zero is exact.
    const index_t row = plan.seg_row[static_cast<std::size_t>(s)];
    for (index_t r = 0; r < rank; ++r) (*t.out)(row, r) += t.acc[r];
  }
}

// The kernels run with the gathered-mode count fixed at compile time for the
// 3- and 4-way tensors of the paper's datasets (2 and 3 gathered modes); on
// the 4-way Uber analog it cuts the privatized kernel's time by a third to a
// half (DESIGN.md §8). Other orders read the count at run time.
template <class V, bool kBmi2>
[[gnu::always_inline]] inline void atomic_entry(const KrpArgs& a,
                                                const AtomicTask& t) {
  switch (a.gathers) {
    case 2: return atomic_kernel<V, kBmi2, 2>(a, t);
    case 3: return atomic_kernel<V, kBmi2, 3>(a, t);
    default: return atomic_kernel<V, kBmi2, 0>(a, t);
  }
}

template <class V, bool kBmi2>
[[gnu::always_inline]] inline void tile_entry(const KrpArgs& a,
                                              const TileTask& t) {
  switch (a.gathers) {
    case 2: return tile_kernel<V, kBmi2, 2>(a, t);
    case 3: return tile_kernel<V, kBmi2, 3>(a, t);
    default: return tile_kernel<V, kBmi2, 0>(a, t);
  }
}

template <class V, bool kBmi2>
[[gnu::always_inline]] inline void sorted_entry(const KrpArgs& a,
                                                const SortedTask& t) {
  switch (a.gathers) {
    case 2: return sorted_kernel<V, kBmi2, 2>(a, t);
    case 3: return sorted_kernel<V, kBmi2, 3>(a, t);
    default: return sorted_kernel<V, kBmi2, 0>(a, t);
  }
}

// One instruction-set variant of the three kernels. Each entry is a
// non-inline function compiled for its level (gnu::target applies to a
// whole function, so every kernel needs its own wrapper per level).
struct KernelSet {
  void (*atomic)(const KrpArgs&, const AtomicTask&);
  void (*tile)(const KrpArgs&, const TileTask&);
  void (*sorted)(const KrpArgs&, const SortedTask&);
};

void atomic_portable(const KrpArgs& a, const AtomicTask& t) {
  atomic_entry<v2d, false>(a, t);
}
void tile_portable(const KrpArgs& a, const TileTask& t) {
  tile_entry<v2d, false>(a, t);
}
void sorted_portable(const KrpArgs& a, const SortedTask& t) {
  sorted_entry<v2d, false>(a, t);
}

#if defined(__x86_64__) && defined(__GNUC__)
[[gnu::target("avx2,bmi2")]] void atomic_avx2(const KrpArgs& a,
                                              const AtomicTask& t) {
  atomic_entry<v4d, true>(a, t);
}
[[gnu::target("avx2,bmi2")]] void tile_avx2(const KrpArgs& a,
                                            const TileTask& t) {
  tile_entry<v4d, true>(a, t);
}
[[gnu::target("avx2,bmi2")]] void sorted_avx2(const KrpArgs& a,
                                              const SortedTask& t) {
  sorted_entry<v4d, true>(a, t);
}

[[gnu::target("avx512f,bmi2")]] void atomic_avx512f(const KrpArgs& a,
                                                    const AtomicTask& t) {
  atomic_entry<v8d, true>(a, t);
}
[[gnu::target("avx512f,bmi2")]] void tile_avx512f(const KrpArgs& a,
                                                  const TileTask& t) {
  tile_entry<v8d, true>(a, t);
}
[[gnu::target("avx512f,bmi2")]] void sorted_avx512f(const KrpArgs& a,
                                                    const SortedTask& t) {
  sorted_entry<v8d, true>(a, t);
}
#endif

// The vector variants also decode with PEXT, so they run only where the CPU
// has BMI2 as well; elsewhere the portable variant runs (same output bits).
KernelSet kernel_set(Isa isa) {
  CSTF_CHECK_MSG(isa_supported(isa),
                 "BLCO MTTKRP variant not supported on this CPU");
#if defined(__x86_64__) && defined(__GNUC__)
  if (cpu_has_bmi2()) {
    if (isa == Isa::kAvx512f) {
      return {atomic_avx512f, tile_avx512f, sorted_avx512f};
    }
    if (isa == Isa::kAvx2) return {atomic_avx2, tile_avx2, sorted_avx2};
  }
#endif
  return {atomic_portable, tile_portable, sorted_portable};
}

// One MTTKRP call on the host: the hoisted routine arguments, the staged
// factor copies they point into, and the variant that runs the tasks.
class KrpCall {
 public:
  KrpCall(Isa isa, const BlcoTensor& blco, const std::vector<Matrix>& factors,
          int mode)
      : kernels_(kernel_set(isa)) {
    const auto& enc = blco.encoding();
    const index_t rank = factors[0].cols();
    args_.blco = &blco;
    args_.values = blco.values().data();
    args_.rank = rank;
    args_.out_mask = enc.mode_mask(mode);
    std::size_t staged_size = 0;
    for (int m = 0; m < blco.num_modes(); ++m) {
      if (m != mode && stages(blco, factors[static_cast<std::size_t>(m)])) {
        staged_size += static_cast<std::size_t>(
            factors[static_cast<std::size_t>(m)].size());
      }
    }
    staged_.resize(staged_size);
    real_t* next = staged_.data();
    for (int m = 0; m < blco.num_modes(); ++m) {
      if (m == mode) continue;
      const Matrix& f = factors[static_cast<std::size_t>(m)];
      const int g = args_.gathers++;
      args_.mask[g] = enc.mode_mask(m);
      if (stages(blco, f)) {
        real_t* copy = next;
        next += f.size();
        parallel_for(0, f.rows(), [&](index_t c) {
          for (index_t r = 0; r < rank; ++r) copy[c * rank + r] = f(c, r);
        });
        args_.factor[g] = copy;
        args_.row_step[g] = rank;
        args_.col_step[g] = 1;
      } else {
        args_.factor[g] = f.data();
        args_.row_step[g] = 1;
        args_.col_step[g] = f.rows();
      }
    }
  }

  // args_ points into staged_.
  KrpCall(const KrpCall&) = delete;
  KrpCall& operator=(const KrpCall&) = delete;

  void run(const AtomicTask& t) const { kernels_.atomic(args_, t); }
  void run(const TileTask& t) const { kernels_.tile(args_, t); }
  void run(const SortedTask& t) const { kernels_.sorted(args_, t); }

 private:
  // The staging rule: copy when the call gathers at least as many factor
  // rows (one per nonzero) as the copy moves elements (R * I_m).
  static bool stages(const BlcoTensor& blco, const Matrix& f) {
    return blco.nnz() >= f.size();
  }

  KrpArgs args_;
  std::vector<real_t> staged_;
  KernelSet kernels_;
};

// Atomic-scatter kernel over a contiguous block range [block_lo, block_lo +
// grid): shared by the resident and streamed entry points. `stats` must
// describe exactly this range's work. The threads of a launch block run one
// after another on one host worker, so thread 0 walks the whole BLCO block
// in nonzero order and the others find nothing left; the modeled launch
// keeps its 128 threads per block.
void launch_blco_range(simgpu::Device& dev, const char* name,
                       const KrpCall& call, Matrix& out, index_t block_lo,
                       index_t grid, simgpu::KernelStats stats) {
  constexpr index_t kThreads = 128;
  const index_t rank = out.cols();
  const RowLocks locks(out.rows());
  simgpu::LaunchConfig cfg{.grid_dim = grid, .block_dim = kThreads};
  simgpu::launch(dev, name, cfg, stats, [&](const simgpu::KernelCtx& ctx) {
    if (ctx.thread_idx != 0) return;
    thread_local std::vector<real_t> row;
    if (row.size() < static_cast<std::size_t>(rank)) {
      row.resize(static_cast<std::size_t>(rank));
    }
    AtomicTask task;
    task.block = block_lo + ctx.block_idx;
    task.row = row.data();
    task.out = &out;
    task.locks = &locks;
    call.run(task);
  });
}

// Privatized kernel over blocks [block_lo, block_hi): a grid of `tiles`
// launch blocks, tile t accumulating its fixed contiguous BLCO-block range
// into a private row-major tile, followed by a reduce launch combining the
// tiles with the fixed pairwise tree and adding the sum into column-major
// `out` — atomic-free and bit-deterministic regardless of which worker runs
// which tile. On the modeled device tile 0 is `out` itself; on the host the
// row-major tile 0 is one extra buffer outside the pool, and the final add
// into `out` (zero, or an earlier batch's sum) is exact because a tile that
// starts from +0 is never -0.
void launch_blco_priv(simgpu::Device& dev, const char* name,
                      const KrpCall& call, const BlcoTensor& blco,
                      index_t block_lo, index_t block_hi, Matrix& out,
                      simgpu::KernelStats stats) {
  const index_t rank = out.cols();
  const index_t mode_len = out.rows();
  const index_t num_blocks = block_hi - block_lo;
  index_t nnz = 0;
  for (index_t b = block_lo; b < block_hi; ++b) nnz += blco.block(b).count;
  const index_t tiles = std::min(privatized_tile_count(nnz), num_blocks);
  const auto len = static_cast<std::size_t>(mode_len * rank);
  const double tile_bytes = static_cast<double>(len) * simgpu::kWord;

  ScratchPool::Lease lease = ScratchPool::global().acquire(
      static_cast<std::size_t>(tiles - 1), len);
  std::vector<real_t> tile0(len);
  std::vector<real_t*> tile(static_cast<std::size_t>(tiles));
  tile[0] = tile0.data();
  for (index_t t = 1; t < tiles; ++t) {
    tile[static_cast<std::size_t>(t)] =
        lease.tile(static_cast<std::size_t>(t - 1));
  }
  const index_t per_tile = (num_blocks + tiles - 1) / tiles;

  // Accumulate launch: base stats plus the tile zero-fill traffic.
  stats.bytes_streamed += static_cast<double>(tiles) * tile_bytes;
  simgpu::LaunchConfig cfg{.grid_dim = tiles, .block_dim = 1};
  simgpu::launch(dev, name, cfg, stats, [&](const simgpu::KernelCtx& ctx) {
    const index_t t = ctx.block_idx;
    TileTask task;
    task.tile = tile[static_cast<std::size_t>(t)];
    if (t > 0) std::fill_n(task.tile, len, real_t{0});
    task.first = block_lo + t * per_tile;
    task.last = std::min<index_t>(task.first + per_tile, block_hi);
    call.run(task);
  });

  // Reduce launch: single-block (the element-level parallelism happens
  // inside deterministic_tree_reduce), metered as the tree's traffic.
  simgpu::KernelStats red;
  red.bytes_streamed = 3.0 * static_cast<double>(tiles - 1) * tile_bytes;
  red.flops = static_cast<double>(tiles - 1) * static_cast<double>(len);
  red.parallel_items = static_cast<double>(len);
  simgpu::launch(dev, "mttkrp_blco_reduce",
                 simgpu::LaunchConfig{.grid_dim = 1, .block_dim = 1}, red,
                 [&](const simgpu::KernelCtx&) {
                   deterministic_tree_reduce(tile.data(),
                                             static_cast<std::size_t>(tiles),
                                             static_cast<index_t>(len));
                   parallel_for(0, mode_len, [&](index_t i) {
                     for (index_t r = 0; r < rank; ++r) {
                       out(i, r) += tile0[static_cast<std::size_t>(
                           i * rank + r)];
                     }
                   });
                 });
}

// Sorted kernel: threads stride over the plan's segments; each segment owns
// one output row, so the final writes are plain adds and the per-row
// accumulation order is the plan's (fixed) order.
void launch_blco_sorted(simgpu::Device& dev, const char* name,
                        const KrpCall& call, Matrix& out,
                        const ScatterPlan& plan, simgpu::KernelStats stats) {
  const index_t rank = out.cols();
  const index_t segments = plan.num_segments();
  constexpr index_t kThreads = 128;
  simgpu::LaunchConfig cfg{
      .grid_dim = simgpu::blocks_for(segments, kThreads),
      .block_dim = kThreads};
  simgpu::launch(dev, name, cfg, stats, [&](const simgpu::KernelCtx& ctx) {
    thread_local std::vector<real_t> acc;
    if (acc.size() < static_cast<std::size_t>(rank)) {
      acc.resize(static_cast<std::size_t>(rank));
    }
    SortedTask task;
    task.first = ctx.global_thread_id();
    task.last = segments;
    task.step = ctx.total_threads();
    task.acc = acc.data();
    task.out = &out;
    task.plan = &plan;
    call.run(task);
  });
}

// cudaMemset-equivalent launch clearing the output.
void zero_output(simgpu::Device& dev, Matrix& out) {
  simgpu::KernelStats zero_stats;
  zero_stats.bytes_streamed = static_cast<double>(out.size()) * simgpu::kWord;
  zero_stats.parallel_items = static_cast<double>(out.size());
  simgpu::launch(dev, "mttkrp_zero_out",
                 simgpu::LaunchConfig{.grid_dim = 1, .block_dim = 1},
                 zero_stats,
                 [&](const simgpu::KernelCtx&) { out.set_all(0.0); });
}

void check_mttkrp_args(const BlcoTensor& blco,
                       const std::vector<Matrix>& factors, int mode,
                       const Matrix& out) {
  const int modes = blco.num_modes();
  CSTF_CHECK(mode >= 0 && mode < modes);
  CSTF_CHECK(static_cast<int>(factors.size()) == modes);
  CSTF_CHECK(out.rows() == blco.dims()[static_cast<std::size_t>(mode)] &&
             out.cols() == factors[0].cols());
}

// The sorted-scatter plan over the nonzeros of blocks [block_lo, block_hi);
// `order` holds their tensor-wide ids and `block` their BLCO blocks.
ScatterPlan scatter_plan_for_blocks(const BlcoTensor& blco, int mode,
                                    index_t block_lo, index_t block_hi) {
  const index_t first = blco.block(block_lo).value_offset;
  const BlcoBlock& last = blco.block(block_hi - 1);
  const index_t nnz = last.value_offset + last.count - first;
  std::vector<lco_t> keys(static_cast<std::size_t>(nnz));
  std::vector<index_t> order(static_cast<std::size_t>(nnz));
  const auto& enc = blco.encoding();
  parallel_for(block_lo, block_hi, [&](index_t b) {
    const BlcoBlock& blk = blco.block(b);
    for (index_t i = 0; i < blk.count; ++i) {
      const auto at = static_cast<std::size_t>(blk.value_offset + i - first);
      keys[at] = static_cast<lco_t>(enc.decode(blco.element_lco(blk, i), mode));
      order[at] = blk.value_offset + i;
    }
  });
  ScatterPlan plan =
      detail::finish_scatter_plan(std::move(keys), std::move(order));
  // Blocks are ordered by value_offset: a nonzero id's block is the last one
  // starting at or before it. Searched once per plan, not per call.
  std::vector<index_t> offsets(static_cast<std::size_t>(block_hi - block_lo));
  for (index_t b = block_lo; b < block_hi; ++b) {
    offsets[static_cast<std::size_t>(b - block_lo)] =
        blco.block(b).value_offset;
  }
  plan.block.resize(plan.order.size());
  parallel_for(0, static_cast<index_t>(plan.order.size()), [&](index_t k) {
    const auto at = static_cast<std::size_t>(k);
    const auto it =
        std::upper_bound(offsets.begin(), offsets.end(), plan.order[at]);
    plan.block[at] = block_lo + static_cast<index_t>(it - offsets.begin()) - 1;
  });
  return plan;
}

}  // namespace

void mttkrp_blco(simgpu::Device& dev, const BlcoTensor& blco,
                 const std::vector<Matrix>& factors, int mode, Matrix& out) {
  check_mttkrp_args(blco, factors, mode, out);
  zero_output(dev, out);
  simgpu::KernelStats stats = blco_mttkrp_stats(blco, factors, mode);
  apply_scatter_stats(stats, ScatterStrategy::kAtomic, out.rows(), out.cols(),
                      static_cast<double>(blco.nnz()));
  const KrpCall call(widest_isa(), blco, factors, mode);
  launch_blco_range(dev, "mttkrp_blco", call, out, 0, blco.num_blocks(), stats);
}

ScatterStrategy mttkrp_blco(simgpu::Device& dev, const BlcoTensor& blco,
                            const std::vector<Matrix>& factors, int mode,
                            Matrix& out, const ScatterOptions& opts,
                            const ScatterPlan* plan) {
  return detail::mttkrp_blco(widest_isa(), dev, blco, factors, mode, out, opts,
                             plan);
}

namespace detail {

ScatterStrategy mttkrp_blco(Isa isa, simgpu::Device& dev,
                            const BlcoTensor& blco,
                            const std::vector<Matrix>& factors, int mode,
                            Matrix& out, const ScatterOptions& opts,
                            const ScatterPlan* plan) {
  check_mttkrp_args(blco, factors, mode, out);
  const index_t rank = factors[0].cols();
  const index_t mode_len = out.rows();
  const ScatterStrategy strategy =
      resolve_scatter_strategy_for_mode(opts, mode, mode_len, rank, blco.nnz());

  ScatterPlan local_plan;
  if (strategy == ScatterStrategy::kSorted && plan == nullptr) {
    local_plan = blco_scatter_plan(blco, mode);
    plan = &local_plan;
  }

  zero_output(dev, out);
  simgpu::KernelStats stats = blco_mttkrp_stats(blco, factors, mode);
  const KrpCall call(isa, blco, factors, mode);
  switch (strategy) {
    case ScatterStrategy::kAtomic:
      apply_scatter_stats(stats, strategy, mode_len, rank,
                          static_cast<double>(blco.nnz()));
      launch_blco_range(dev, "mttkrp_blco", call, out, 0, blco.num_blocks(),
                        stats);
      break;
    case ScatterStrategy::kPrivatized:
      // launch_blco_priv splits the privatized extras over its two launches.
      launch_blco_priv(dev, "mttkrp_blco_priv", call, blco, 0,
                       blco.num_blocks(), out, stats);
      break;
    case ScatterStrategy::kSorted:
      apply_scatter_stats(stats, strategy, mode_len, rank,
                          static_cast<double>(blco.nnz()));
      launch_blco_sorted(dev, "mttkrp_blco_sorted", call, out, *plan, stats);
      break;
    case ScatterStrategy::kAuto:
      break;  // resolve_scatter_strategy never returns kAuto
  }
  return strategy;
}

}  // namespace detail

ScatterPlan blco_scatter_plan(const BlcoTensor& blco, int mode) {
  CSTF_CHECK(mode >= 0 && mode < blco.num_modes());
  if (blco.num_blocks() == 0) {
    return detail::finish_scatter_plan({}, {});
  }
  return scatter_plan_for_blocks(blco, mode, 0, blco.num_blocks());
}

index_t mttkrp_blco_streamed(simgpu::Device& dev, const BlcoTensor& blco,
                             const std::vector<Matrix>& factors, int mode,
                             Matrix& out, double device_budget_bytes,
                             simgpu::Stream copy_stream,
                             const ScatterOptions& opts) {
  CSTF_CHECK(device_budget_bytes > 0.0);
  check_mttkrp_args(blco, factors, mode, out);
  const double tensor_bytes = blco.storage_bytes();
  if (tensor_bytes <= device_budget_bytes) {
    mttkrp_blco(dev, blco, factors, mode, out, opts);
    return 1;
  }

  const ScatterStrategy strategy = resolve_scatter_strategy_for_mode(
      opts, mode, out.rows(), out.cols(), blco.nnz());
  zero_output(dev, out);
  auto batches =
      static_cast<index_t>(std::ceil(tensor_bytes / device_budget_bytes));
  batches = std::min(batches, blco.num_blocks());
  const index_t per_batch = (blco.num_blocks() + batches - 1) / batches;

  const bool staged_async = !copy_stream.is_default();
  simgpu::KernelStats full_stats = blco_mttkrp_stats(blco, factors, mode);
  if (strategy != ScatterStrategy::kPrivatized) {
    // The privatized launches add their per-batch tile terms themselves.
    apply_scatter_stats(full_stats, strategy, out.rows(), out.cols(),
                        static_cast<double>(blco.nnz()));
  }
  const KrpCall call(widest_isa(), blco, factors, mode);
  std::vector<simgpu::Event> compute_done;  // per batch, for buffer reuse
  index_t used = 0;
  for (index_t lo = 0; lo < blco.num_blocks(); lo += per_batch) {
    const index_t grid = std::min<index_t>(per_batch, blco.num_blocks() - lo);
    // Pro-rate the full-tensor traffic over this batch's nonzero share; the
    // batch's compressed bytes are what crosses the host link.
    double batch_nnz = 0.0, batch_bytes = 0.0;
    for (index_t b = lo; b < lo + grid; ++b) {
      const BlcoBlock& blk = blco.block(b);
      batch_nnz += static_cast<double>(blk.count);
      batch_bytes += static_cast<double>(blk.packed_deltas.size()) *
                         sizeof(std::uint64_t) +
                     static_cast<double>(blk.count) * sizeof(real_t);
    }
    simgpu::KernelStats stats =
        prorate(full_stats, batch_nnz / static_cast<double>(blco.nnz()));
    if (staged_async) {
      // Explicit pipeline: the staging transfer is its own span on the copy
      // stream. Two staging buffers — batch i's transfer reuses the buffer
      // compute of batch i-2 read from, so it waits on that compute.
      if (used >= 2) {
        dev.wait_event(copy_stream,
                       compute_done[static_cast<std::size_t>(used - 2)]);
      }
      simgpu::KernelStats stage;
      stage.host_link_bytes = batch_bytes;
      stage.launches = 1;
      dev.record("mttkrp_stage_batch", stage, 0.0, copy_stream);
      dev.wait_event(simgpu::Stream{}, dev.record_event(copy_stream));
    } else {
      // Legacy single-span modeling: staging rides on the compute record and
      // the cost model overlaps the two inside the span (double buffering).
      stats.host_link_bytes = batch_bytes;
    }
    constexpr const char* kName = "mttkrp_blco_streamed";
    switch (strategy) {
      case ScatterStrategy::kPrivatized:
        launch_blco_priv(dev, kName, call, blco, lo, lo + grid, out, stats);
        break;
      case ScatterStrategy::kSorted:
        launch_blco_sorted(dev, kName, call, out,
                           scatter_plan_for_blocks(blco, mode, lo, lo + grid),
                           stats);
        break;
      default:
        launch_blco_range(dev, kName, call, out, lo, grid, stats);
        break;
    }
    if (staged_async) compute_done.push_back(dev.record_event());
    ++used;
  }
  return used;
}

}  // namespace cstf
