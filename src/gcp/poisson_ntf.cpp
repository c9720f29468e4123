#include "gcp/poisson_ntf.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/random.hpp"
#include "parallel/atomic.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "simgpu/launch.hpp"

namespace cstf {

namespace {

// Refreshes the model values at the tensor's nonzeros.
void evaluate_model(const SparseTensor& x, const std::vector<Matrix>& factors,
                    std::vector<real_t>& out) {
  const int modes = x.num_modes();
  const index_t rank = factors[0].cols();
  out.resize(static_cast<std::size_t>(x.nnz()));
  parallel_for_blocked(0, x.nnz(), [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      real_t acc = 0.0;
      for (index_t r = 0; r < rank; ++r) {
        real_t prod = 1.0;
        for (int m = 0; m < modes; ++m) {
          prod *= factors[static_cast<std::size_t>(m)](
              x.indices(m)[static_cast<std::size_t>(i)], r);
        }
        acc += prod;
      }
      out[static_cast<std::size_t>(i)] = acc;
    }
  });
}

}  // namespace

PoissonNtf::PoissonNtf(const SparseTensor& tensor, PoissonNtfOptions options)
    : tensor_(tensor), options_(options), device_(options.device) {
  CSTF_CHECK(options_.rank >= 1 && options_.max_iterations >= 1);
  CSTF_CHECK_MSG(options_.epsilon > 0.0 && std::isfinite(options_.epsilon),
                 "Poisson NTF: epsilon must be a positive finite loss floor "
                 "(got " << options_.epsilon << ")");
  for (real_t v : tensor_.values()) {
    CSTF_CHECK_MSG(v >= 0.0, "Poisson NTF requires non-negative counts");
  }
  Rng rng(options_.seed);
  for (int m = 0; m < tensor_.num_modes(); ++m) {
    Matrix f(tensor_.dim(m), options_.rank);
    f.fill_uniform(rng, 0.1, 1.0);  // strictly positive start
    factors_.push_back(std::move(f));
  }
}

void PoissonNtf::set_factors(std::vector<Matrix> factors) {
  CSTF_CHECK_MSG(
      static_cast<int>(factors.size()) == tensor_.num_modes(),
      "set_factors: " << factors.size() << " factors for a "
                      << tensor_.num_modes() << "-mode tensor");
  for (int m = 0; m < tensor_.num_modes(); ++m) {
    const Matrix& f = factors[static_cast<std::size_t>(m)];
    CSTF_CHECK_MSG(f.rows() == tensor_.dim(m) && f.cols() == options_.rank,
                   "set_factors: mode " << m << " factor is " << f.rows()
                                        << "x" << f.cols() << ", expected "
                                        << tensor_.dim(m) << "x"
                                        << options_.rank);
    for (index_t r = 0; r < f.cols(); ++r) {
      const real_t* col = f.col(r);
      for (index_t i = 0; i < f.rows(); ++i) {
        CSTF_CHECK_MSG(col[i] >= 0.0 && std::isfinite(col[i]),
                       "set_factors: negative or non-finite entry in mode "
                           << m);
      }
    }
  }
  factors_ = std::move(factors);
}

real_t PoissonNtf::objective() const {
  const index_t rank = options_.rank;
  // Model mass over all cells: sum_r prod_m colsum_m(r).
  real_t mass = 0.0;
  for (index_t r = 0; r < rank; ++r) {
    real_t prod = 1.0;
    for (const Matrix& f : factors_) {
      real_t colsum = 0.0;
      const real_t* col = f.col(r);
      for (index_t i = 0; i < f.rows(); ++i) colsum += col[i];
      prod *= colsum;
    }
    mass += prod;
  }
  // - sum_nnz x * log(x_hat).
  std::vector<real_t> model;
  evaluate_model(tensor_, factors_, model);
  const real_t eps = options_.epsilon;
  const real_t log_term = parallel_sum(0, tensor_.nnz(), [&](index_t i) {
    return tensor_.values()[static_cast<std::size_t>(i)] *
           std::log(std::max(model[static_cast<std::size_t>(i)], eps));
  });
  return mass - log_term;
}

void PoissonNtf::sweep_mode(int mode) {
  const int modes = tensor_.num_modes();
  const index_t rank = options_.rank;
  Matrix& h = factors_[static_cast<std::size_t>(mode)];
  const real_t eps = options_.epsilon;

  evaluate_model(tensor_, factors_, model_at_nnz_);

  // Phi = MTTKRP of the ratio tensor (x / x_hat): atomic scatter into the
  // output rows (one row lock per nonzero), like the COO MTTKRP kernel.
  Matrix phi(h.rows(), rank);
  {
    simgpu::KernelStats stats;
    const auto nnz = static_cast<double>(tensor_.nnz());
    stats.flops = nnz * static_cast<double>(rank * (modes + 2));
    stats.bytes_random =
        nnz * static_cast<double>(rank * modes) * simgpu::kWord;
    stats.bytes_streamed = nnz * (static_cast<double>(modes) * sizeof(index_t) +
                                  2.0 * sizeof(real_t));
    stats.parallel_items = nnz;
    device_.record("poisson_ratio_mttkrp", stats);
  }
  const auto& out_idx = tensor_.indices(mode);
  const RowLocks locks(phi.rows());
  parallel_for_blocked(0, tensor_.nnz(), [&](index_t lo, index_t hi) {
    std::vector<real_t> row(static_cast<std::size_t>(rank));
    for (index_t i = lo; i < hi; ++i) {
      const real_t ratio =
          tensor_.values()[static_cast<std::size_t>(i)] /
          std::max(model_at_nnz_[static_cast<std::size_t>(i)], eps);
      for (index_t r = 0; r < rank; ++r) row[static_cast<std::size_t>(r)] = ratio;
      for (int m = 0; m < modes; ++m) {
        if (m == mode) continue;
        const Matrix& f = factors_[static_cast<std::size_t>(m)];
        const index_t idx = tensor_.indices(m)[static_cast<std::size_t>(i)];
        for (index_t r = 0; r < rank; ++r) {
          row[static_cast<std::size_t>(r)] *= f(idx, r);
        }
      }
      locks.add_row(phi.data(), phi.rows(),
                    out_idx[static_cast<std::size_t>(i)], row.data(), rank);
    }
  });

  // d(r) = prod_{k != mode} colsum_k(r).
  std::vector<real_t> denom(static_cast<std::size_t>(rank), 1.0);
  for (int m = 0; m < modes; ++m) {
    if (m == mode) continue;
    const Matrix& f = factors_[static_cast<std::size_t>(m)];
    for (index_t r = 0; r < rank; ++r) {
      real_t colsum = 0.0;
      const real_t* col = f.col(r);
      for (index_t i = 0; i < f.rows(); ++i) colsum += col[i];
      denom[static_cast<std::size_t>(r)] *= colsum;
    }
  }

  // Multiplicative update.
  {
    simgpu::KernelStats stats;
    stats.flops = 2.0 * static_cast<double>(h.size());
    stats.bytes_streamed = 3.0 * static_cast<double>(h.size()) * simgpu::kWord;
    stats.parallel_items = static_cast<double>(h.size());
    device_.record("poisson_mu_update", stats);
  }
  parallel_for(0, rank, [&](index_t r) {
    const real_t d = std::max(denom[static_cast<std::size_t>(r)], eps);
    real_t* hr = h.col(r);
    const real_t* pr = phi.col(r);
    for (index_t i = 0; i < h.rows(); ++i) {
      hr[i] = std::max(hr[i] * pr[i] / d, real_t{0});
    }
  }, /*grain=*/1);
}

PoissonNtfResult PoissonNtf::run() {
  PoissonNtfResult result;
  real_t prev = objective();
  for (int it = 0; it < options_.max_iterations; ++it) {
    for (int m = 0; m < tensor_.num_modes(); ++m) sweep_mode(m);
    const real_t now = objective();
    result.objective_history.push_back(now);
    result.final_objective = now;
    result.iterations = it + 1;
    if (options_.tolerance > 0.0 && prev != 0.0 &&
        std::abs(prev - now) / std::abs(prev) < options_.tolerance) {
      result.converged = true;
      break;
    }
    prev = now;
  }
  return result;
}

KTensor PoissonNtf::ktensor() const {
  KTensor kt;
  kt.factors = factors_;
  kt.lambda.assign(static_cast<std::size_t>(options_.rank), 1.0);
  return kt;
}

}  // namespace cstf
