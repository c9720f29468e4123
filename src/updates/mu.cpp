#include "updates/mu.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "simgpu/dblas.hpp"
#include "simgpu/launch.hpp"

namespace cstf {

void MuUpdate::update(simgpu::Device& dev, const Matrix& s, const Matrix& m,
                      Matrix& h, ModeState& state) const {
  CSTF_CHECK(s.rows() == h.cols() && s.cols() == h.cols());
  CSTF_CHECK(m.same_shape(h));
  if (!state.scratch.same_shape(h)) state.scratch.resize(h.rows(), h.cols());
  Matrix& denom = state.scratch;

  const index_t n = h.size();
  const real_t eps = options_.epsilon;
  for (int iter = 0; iter < options_.inner_iterations; ++iter) {
    // denom = H * S.
    simgpu::dgemm(dev, la::Op::kNone, la::Op::kNone, 1.0, h, s, 0.0, denom);

    // Fused elementwise H = H .* M ./ max(denom, eps): 3 reads + 1 write.
    simgpu::KernelStats stats;
    stats.flops = 2.0 * static_cast<double>(n);
    stats.bytes_streamed = 4.0 * static_cast<double>(n) * simgpu::kWord;
    stats.parallel_items = static_cast<double>(n);
    real_t* ph = h.data();
    const real_t* pm = m.data();
    const real_t* pd = denom.data();
    simgpu::launch_elementwise(
        dev, "mu_elementwise", n, stats, {}, [&](index_t lo, index_t hi) {
          for (index_t i = lo; i < hi; ++i) {
            ph[i] = ph[i] * pm[i] / std::max(pd[i], eps);
          }
        });
  }
}

}  // namespace cstf
