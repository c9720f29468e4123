#include "updates/admm_kernels.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "simgpu/launch.hpp"

namespace cstf {

namespace {

constexpr index_t kTile = simgpu::kElementwiseTile;

simgpu::KernelStats elementwise_stats(index_t n, double reads, double writes,
                                      double flops_per_elem) {
  simgpu::KernelStats stats;
  const auto dn = static_cast<double>(n);
  stats.flops = dn * flops_per_elem;
  stats.bytes_streamed = dn * (reads + writes) * simgpu::kWord;
  stats.parallel_items = dn;
  return stats;
}

// The residual reductions: each tile's sum runs serially in index order and
// the tile sums combine in tile order, so the result is the same at every
// worker count (launch_elementwise chunks never split a tile).
real_t sum_in_order(const std::vector<real_t>& partial) {
  real_t sum = 0.0;
  for (real_t p : partial) sum += p;
  return sum;
}

}  // namespace

void kernel_compute_auxiliary(simgpu::Device& dev, const Matrix& m,
                              const Matrix& h, const Matrix& u, real_t rho,
                              Matrix& t, simgpu::Stream stream) {
  CSTF_CHECK(m.same_shape(h) && m.same_shape(u) && m.same_shape(t));
  CSTF_CHECK_MSG(rho > 0.0, "kernel_compute_auxiliary requires rho > 0, got "
                                << rho);
  const index_t n = m.size();
  const real_t* pm = m.data();
  const real_t* ph = h.data();
  const real_t* pu = u.data();
  real_t* pt = t.data();
  simgpu::launch_elementwise(
      dev, "admm_compute_auxiliary", n, elementwise_stats(n, 3, 1, 3), stream,
      [&](index_t lo, index_t hi) {
        for (index_t i = lo; i < hi; ++i) pt[i] = pm[i] + rho * (ph[i] + pu[i]);
      });
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
  const index_t n = t.size();
  const real_t* pt = t.data();
  const real_t* pu = u.data();
  real_t* ph = h.data();
  std::vector<real_t> partial(static_cast<std::size_t>((n + kTile - 1) / kTile));
  prox.with_scalar_map(1.0 / rho, [&](auto map) {
    simgpu::launch_elementwise(
        dev, "admm_apply_proximity", n, elementwise_stats(n, 3, 1, 4), stream,
        [&](index_t lo, index_t hi) {
          for (index_t t0 = lo; t0 < hi; t0 += kTile) {
            const index_t t1 = std::min(t0 + kTile, hi);
            real_t sq = 0.0;
            for (index_t i = t0; i < t1; ++i) {
              const real_t old_h = ph[i];
              const real_t new_h = map(pt[i] - pu[i]);
              ph[i] = new_h;
              const real_t d = new_h - old_h;
              sq += d * d;
            }
            partial[static_cast<std::size_t>(t0 / kTile)] = sq;
          }
        });
  });
  *delta_h_sq = sum_in_order(partial);
}

void kernel_dual_update(simgpu::Device& dev, const Matrix& h, const Matrix& t,
                        Matrix& u, real_t* primal_sq, real_t* h_sq,
                        real_t* u_sq, simgpu::Stream stream) {
  CSTF_CHECK(h.same_shape(t) && h.same_shape(u));
  const index_t n = h.size();
  const real_t* ph = h.data();
  const real_t* pt = t.data();
  real_t* pu = u.data();
  const auto tiles = static_cast<std::size_t>((n + kTile - 1) / kTile);
  std::vector<real_t> partial_primal(tiles), partial_h(tiles), partial_u(tiles);
  simgpu::launch_elementwise(
      dev, "admm_dual_update", n, elementwise_stats(n, 3, 1, 8), stream,
      [&](index_t lo, index_t hi) {
        for (index_t t0 = lo; t0 < hi; t0 += kTile) {
          const index_t t1 = std::min(t0 + kTile, hi);
          real_t lp = 0.0, lh = 0.0, lu = 0.0;
          for (index_t i = t0; i < t1; ++i) {
            const real_t diff = ph[i] - pt[i];
            const real_t nu = pu[i] + diff;
            pu[i] = nu;
            lp += diff * diff;
            lh += ph[i] * ph[i];
            lu += nu * nu;
          }
          const auto tile = static_cast<std::size_t>(t0 / kTile);
          partial_primal[tile] = lp;
          partial_h[tile] = lh;
          partial_u[tile] = lu;
        }
      });
  *primal_sq = sum_in_order(partial_primal);
  *h_sq = sum_in_order(partial_h);
  *u_sq = sum_in_order(partial_u);
}

}  // namespace cstf
