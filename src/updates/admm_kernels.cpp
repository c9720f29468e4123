#include "updates/admm_kernels.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "parallel/parallel_for.hpp"
#include "simgpu/dblas.hpp"

namespace cstf {

// The block code below is written once against a vector type V and compiled
// for each instruction set (common/isa.hpp). Lanes are separate elements and
// this file builds with -ffp-contract=off, so every variant performs the
// scalar operation sequence: without it the AVX-512 variant would contract
// m + rho*(h + u) into FMA.

namespace {

using namespace simd;

constexpr index_t kBlock = kAdmmBlockRows;
constexpr index_t kResidualLanes = kAdmmResidualLanes;

simgpu::KernelStats elementwise_stats(index_t n, double reads, double writes,
                                      double flops_per_elem) {
  simgpu::KernelStats stats;
  const auto dn = static_cast<double>(n);
  stats.flops = dn * flops_per_elem;
  stats.bytes_streamed = dn * (reads + writes) * simgpu::kWord;
  stats.parallel_items = dn;
  stats.launches = 1;
  return stats;
}

// One residual's kResidualLanes partial sums, held as vectors of V.
template <class V>
struct LaneSums {
  static constexpr index_t kVectors = kResidualLanes / kLanes<V>;
  V v[kVectors] = {};

  void add_lane(index_t lane, real_t x) {
    v[lane / kLanes<V>][lane % kLanes<V>] += x;
  }
  real_t sum() const {
    real_t s = 0.0;
    for (index_t q = 0; q < kVectors; ++q) {
      for (index_t l = 0; l < kLanes<V>; ++l) s += v[q][l];
    }
    return s;
  }
};

template <class V>
struct BlockLanes {
  LaneSums<V> delta, primal, h, u;
};

// T = M + rho*(H + U) over one column segment of a block: n contiguous
// elements.
template <class V>
[[gnu::always_inline]] inline void auxiliary_segment(index_t n,
                                                     const real_t* m,
                                                     const real_t* h,
                                                     const real_t* u,
                                                     real_t rho, real_t* t) {
  const auto aux = [rho](auto mv, auto hv, auto uv) {
    return mv + rho * (hv + uv);
  };
  index_t i = 0;
  for (; i + kLanes<V> <= n; i += kLanes<V>) {
    V mv, hv, uv;
    load(mv, m + i);
    load(hv, h + i);
    load(uv, u + i);
    store(t + i, aux(mv, hv, uv));
  }
  for (; i < n; ++i) t[i] = aux(m[i], h[i], u[i]);
}

// H = prox(T - U) (kProx) and then U += H - T (kDual) over one column
// segment of a block, `t` being H~. Element i of the segment adds its
// residual terms into lane i mod kResidualLanes.
template <class V, bool kProx, bool kDual, class Map>
[[gnu::always_inline]] inline void epilogue_segment(const Map& map, index_t n,
                                                    const real_t* t,
                                                    real_t* u, real_t* h,
                                                    BlockLanes<V>& acc) {
  // `add(sums, term)` adds a term of the element's lane.
  const auto step = [&map](auto tv, auto& hv, auto& uv, const auto& add) {
    if constexpr (kProx) {
      const auto old_h = hv;
      hv = map(tv - uv);
      const auto d = hv - old_h;
      add(&BlockLanes<V>::delta, d * d);
    }
    if constexpr (kDual) {
      const auto diff = hv - tv;
      uv = uv + diff;
      add(&BlockLanes<V>::primal, diff * diff);
      add(&BlockLanes<V>::h, hv * hv);
      add(&BlockLanes<V>::u, uv * uv);
    }
  };
  index_t i0 = 0;
  for (; i0 + kResidualLanes <= n; i0 += kResidualLanes) {
#pragma GCC unroll 4
    for (index_t q = 0; q < LaneSums<V>::kVectors; ++q) {
      const index_t i = i0 + q * kLanes<V>;
      V tv, hv, uv;
      load(tv, t + i);
      load(hv, h + i);
      load(uv, u + i);
      step(tv, hv, uv, [&](LaneSums<V> BlockLanes<V>::*sums, const V& x) {
        (acc.*sums).v[q] += x;
      });
      if constexpr (kProx) store(h + i, hv);
      if constexpr (kDual) store(u + i, uv);
    }
  }
  for (index_t i = i0; i < n; ++i) {
    step(t[i], h[i], u[i], [&](LaneSums<V> BlockLanes<V>::*sums, real_t x) {
      (acc.*sums).add_lane(i - i0, x);
    });
  }
}

enum class Pass { kAuxiliary, kProximity, kDualUpdate, kFused };

// The operands of a pass over row blocks of I x R column-major matrices.
struct BlockArgs {
  index_t rows = 0;  // I, also the leading dimension
  index_t rank = 0;
  real_t rho = 0.0;
  const real_t* m = nullptr;
  const real_t* t = nullptr;  // H~, read by kProximity and kDualUpdate
  real_t* h = nullptr;
  real_t* u = nullptr;
  real_t* t_out = nullptr;  // kAuxiliary's T
  const la::GemmPanels* inverse = nullptr;  // kFused
};

// The calling thread's T and H~ buffers of the fused pass, kBlock x rank
// each with leading dimension kBlock. H~ starts 1 KiB past the end of T, so
// the two never sit a multiple of 4 KiB apart: otherwise the gemm's stores
// into H~ and its loads from T meet at the same 4 KiB offsets and stall on
// false store-to-load dependences (4K aliasing).
struct FusedBuffers {
  real_t* t;
  real_t* htilde;
};

FusedBuffers fused_buffers(index_t rank) {
  constexpr index_t kSkew = 128;     // reals: 1 KiB
  constexpr index_t kLineReals = 8;  // reals per 64-byte line
  thread_local std::vector<real_t> buffer;
  const auto need =
      static_cast<std::size_t>(2 * kBlock * rank + kSkew + kLineReals);
  if (buffer.size() < need) buffer.resize(need);
  const auto addr = reinterpret_cast<std::uintptr_t>(buffer.data());
  real_t* t = buffer.data() + ((64 - addr % 64) % 64) / sizeof(real_t);
  return {t, t + kBlock * rank + kSkew};
}

template <class V, Pass P, class Map>
[[gnu::always_inline]] inline void run_block(const BlockArgs& a,
                                             const Map& map, index_t block,
                                             AdmmResiduals& out) {
  const index_t r0 = block * kBlock;
  const index_t rows = std::min(kBlock, a.rows - r0);
  auto at = [&](auto* p, index_t j) { return p + j * a.rows + r0; };
  if constexpr (P == Pass::kAuxiliary) {
    for (index_t j = 0; j < a.rank; ++j) {
      auxiliary_segment<V>(rows, at(a.m, j), at(a.h, j), at(a.u, j), a.rho,
                           at(a.t_out, j));
    }
  } else {
    BlockLanes<V> acc;
    if constexpr (P == Pass::kFused) {
      const FusedBuffers buf = fused_buffers(a.rank);
      for (index_t j = 0; j < a.rank; ++j) {
        auxiliary_segment<V>(rows, at(a.m, j), at(a.h, j), at(a.u, j),
                             a.rho, buf.t + j * kBlock);
      }
      a.inverse->multiply_rows(buf.t, 0.0, buf.htilde, kBlock, 0, rows);
      for (index_t j = 0; j < a.rank; ++j) {
        epilogue_segment<V, true, true>(map, rows, buf.htilde + j * kBlock,
                                        at(a.u, j), at(a.h, j), acc);
      }
    } else {
      constexpr bool kProx = P == Pass::kProximity;
      for (index_t j = 0; j < a.rank; ++j) {
        epilogue_segment<V, kProx, !kProx>(map, rows, at(a.t, j), at(a.u, j),
                                           at(a.h, j), acc);
      }
    }
    out.delta_h_sq = acc.delta.sum();
    out.primal_sq = acc.primal.sum();
    out.h_sq = acc.h.sum();
    out.u_sq = acc.u.sum();
  }
}

// One variant per instruction set; gnu::target applies to a whole function,
// so each level needs its own wrapper.
template <Pass P, class Map>
void block_portable(const BlockArgs& a, const Map& map, index_t block,
                    AdmmResiduals& out) {
  run_block<v2d, P>(a, map, block, out);
}

#if defined(__x86_64__) && defined(__GNUC__)
template <Pass P, class Map>
[[gnu::target("avx2")]] void block_avx2(const BlockArgs& a, const Map& map,
                                        index_t block, AdmmResiduals& out) {
  run_block<v4d, P>(a, map, block, out);
}

template <Pass P, class Map>
[[gnu::target("avx512f")]] void block_avx512f(const BlockArgs& a,
                                              const Map& map, index_t block,
                                              AdmmResiduals& out) {
  run_block<v8d, P>(a, map, block, out);
}
#endif

// Runs pass P over every row block on the host pool; the block sums add up
// in block order.
template <Pass P, class Map>
AdmmResiduals run_blocks(Isa isa, const BlockArgs& a, const Map& map) {
  CSTF_CHECK_MSG(isa_supported(isa),
                 "ADMM kernel variant not supported on this CPU");
  void (*fn)(const BlockArgs&, const Map&, index_t, AdmmResiduals&) =
      block_portable<P, Map>;
#if defined(__x86_64__) && defined(__GNUC__)
  if (isa == Isa::kAvx512f) fn = block_avx512f<P, Map>;
  if (isa == Isa::kAvx2) fn = block_avx2<P, Map>;
#endif
  const index_t blocks = (a.rows + kBlock - 1) / kBlock;
  std::vector<AdmmResiduals> partial(static_cast<std::size_t>(blocks));
  parallel_for(0, blocks, [&](index_t b) {
    fn(a, map, b, partial[static_cast<std::size_t>(b)]);
  }, /*grain=*/1);
  AdmmResiduals sum;
  for (const AdmmResiduals& p : partial) {
    sum.delta_h_sq += p.delta_h_sq;
    sum.primal_sq += p.primal_sq;
    sum.h_sq += p.h_sq;
    sum.u_sq += p.u_sq;
  }
  return sum;
}

}  // namespace

simgpu::KernelStats admm_auxiliary_stats(index_t n) {
  return elementwise_stats(n, 3, 1, 3);
}

simgpu::KernelStats admm_proximity_stats(index_t n) {
  return elementwise_stats(n, 3, 1, 4);
}

simgpu::KernelStats admm_dual_update_stats(index_t n) {
  return elementwise_stats(n, 3, 1, 8);
}

void kernel_compute_auxiliary(simgpu::Device& dev, const Matrix& m,
                              const Matrix& h, const Matrix& u, real_t rho,
                              Matrix& t, simgpu::Stream stream) {
  CSTF_CHECK(m.same_shape(h) && m.same_shape(u) && m.same_shape(t));
  CSTF_CHECK_MSG(rho > 0.0, "kernel_compute_auxiliary requires rho > 0, got "
                                << rho);
  BlockArgs a;
  a.rows = m.rows();
  a.rank = m.cols();
  a.rho = rho;
  a.m = m.data();
  a.h = const_cast<real_t*>(h.data());  // read only by this pass
  a.u = const_cast<real_t*>(u.data());
  a.t_out = t.data();
  Timer wall;
  run_blocks<Pass::kAuxiliary>(widest_isa(), a, [](auto x) { return x; });
  dev.record("admm_compute_auxiliary", admm_auxiliary_stats(m.size()),
             wall.seconds(), stream);
}

void kernel_apply_proximity(simgpu::Device& dev, const Proximity& prox,
                            real_t rho, const Matrix& t, const Matrix& u,
                            Matrix& h, real_t* delta_h_sq,
                            simgpu::Stream stream) {
  CSTF_CHECK(prox.elementwise());
  CSTF_CHECK(t.same_shape(u) && t.same_shape(h));
  // The degenerate-rho clamp lives in AdmmUpdate::update; a silent fallback
  // here would let the fused and unfused paths disagree on the prox scaling.
  CSTF_CHECK_MSG(rho > 0.0, "kernel_apply_proximity requires rho > 0, got "
                                << rho);
  BlockArgs a;
  a.rows = t.rows();
  a.rank = t.cols();
  a.t = t.data();
  a.h = h.data();
  a.u = const_cast<real_t*>(u.data());  // read only by this pass
  Timer wall;
  prox.with_map(1.0 / rho, [&](auto map) {
    *delta_h_sq =
        run_blocks<Pass::kProximity>(widest_isa(), a, map).delta_h_sq;
  });
  dev.record("admm_apply_proximity", admm_proximity_stats(t.size()),
             wall.seconds(), stream);
}

void kernel_dual_update(simgpu::Device& dev, const Matrix& h, const Matrix& t,
                        Matrix& u, real_t* primal_sq, real_t* h_sq,
                        real_t* u_sq, simgpu::Stream stream) {
  CSTF_CHECK(h.same_shape(t) && h.same_shape(u));
  BlockArgs a;
  a.rows = h.rows();
  a.rank = h.cols();
  a.t = t.data();
  a.h = const_cast<real_t*>(h.data());  // read only by this pass
  a.u = u.data();
  Timer wall;
  const AdmmResiduals r =
      run_blocks<Pass::kDualUpdate>(widest_isa(), a, [](auto x) { return x; });
  dev.record("admm_dual_update", admm_dual_update_stats(h.size()),
             wall.seconds(), stream);
  *primal_sq = r.primal_sq;
  *h_sq = r.h_sq;
  *u_sq = r.u_sq;
}

AdmmResiduals kernel_fused_inner_iteration(
    simgpu::Device& dev, const Proximity& prox, real_t rho, const Matrix& m,
    const la::GemmPanels& inverse, Matrix& h, Matrix& u,
    simgpu::Stream stream, Isa isa) {
  CSTF_CHECK(prox.elementwise());
  CSTF_CHECK(m.same_shape(h) && m.same_shape(u));
  CSTF_CHECK(inverse.k() == m.cols() && inverse.n() == m.cols());
  CSTF_CHECK_MSG(rho > 0.0,
                 "kernel_fused_inner_iteration requires rho > 0, got " << rho);
  BlockArgs a;
  a.rows = m.rows();
  a.rank = m.cols();
  a.rho = rho;
  a.m = m.data();
  a.h = h.data();
  a.u = u.data();
  a.inverse = &inverse;
  Timer wall;
  AdmmResiduals r;
  prox.with_map(1.0 / rho, [&](auto map) {
    r = run_blocks<Pass::kFused>(isa, a, map);
  });
  const index_t n = m.size();
  dev.record("admm_compute_auxiliary", admm_auxiliary_stats(n),
             wall.seconds(), stream);
  dev.record("dgemm", simgpu::dgemm_stats(m.rows(), m.cols(), m.cols(), 0.0),
             0.0, stream);
  dev.record("admm_apply_proximity", admm_proximity_stats(n), 0.0, stream);
  dev.record("admm_dual_update", admm_dual_update_stats(n), 0.0, stream);
  return r;
}

}  // namespace cstf
