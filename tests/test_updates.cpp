// Unit and property tests for the constrained update algorithms: proximity
// operators, ADMM in all four OF/PI configurations, blocked ADMM, MU, HALS,
// unconstrained ALS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/random.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "common/error.hpp"
#include "updates/admm.hpp"
#include "updates/admm_kernels.hpp"
#include "updates/als.hpp"
#include "updates/block_admm.hpp"
#include "updates/bpp.hpp"
#include "updates/hals.hpp"
#include "updates/mu.hpp"
#include "simgpu/dblas.hpp"
#include "simgpu/trace.hpp"

namespace cstf {
namespace {

// Builds a synthetic constrained least-squares instance: S = G^T G + I
// (SPD), M = H_true * S with non-negative H_true, so the unconstrained and
// non-negative optima coincide at H_true.
struct Instance {
  Matrix s, m, h_true;
};

Instance make_instance(index_t i_len, index_t rank, std::uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  Matrix g(2 * rank, rank);
  g.fill_normal(rng);
  inst.s.resize(rank, rank);
  la::gram(g, inst.s);
  la::add_diagonal(inst.s, 1.0);
  inst.h_true.resize(i_len, rank);
  inst.h_true.fill_uniform(rng, 0.0, 1.0);
  inst.m.resize(i_len, rank);
  la::gemm(la::Op::kNone, la::Op::kNone, 1.0, inst.h_true, inst.s, 0.0, inst.m);
  return inst;
}

// MU is a true NMF method: it requires elementwise non-negative S and M
// (which cSTF guarantees — non-negative data and factors). This variant
// plants a fully non-negative instance.
Instance make_nonneg_instance(index_t i_len, index_t rank, std::uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  Matrix g(2 * rank, rank);
  g.fill_uniform(rng, 0.0, 1.0);
  inst.s.resize(rank, rank);
  la::gram(g, inst.s);
  la::add_diagonal(inst.s, 1.0);
  inst.h_true.resize(i_len, rank);
  inst.h_true.fill_uniform(rng, 0.0, 1.0);
  inst.m.resize(i_len, rank);
  la::gemm(la::Op::kNone, la::Op::kNone, 1.0, inst.h_true, inst.s, 0.0, inst.m);
  return inst;
}

// Quadratic objective f(H) = 0.5*tr(H S H^T) - tr(H M^T); the quantity every
// update method is descending (up to its constraint).
real_t objective(const Matrix& s, const Matrix& m, const Matrix& h) {
  Matrix hs(h.rows(), h.cols());
  la::gemm(la::Op::kNone, la::Op::kNone, 1.0, h, s, 0.0, hs);
  real_t quad = 0.0, lin = 0.0;
  for (index_t i = 0; i < h.size(); ++i) {
    quad += h.data()[i] * hs.data()[i];
    lin += h.data()[i] * m.data()[i];
  }
  return 0.5 * quad - lin;
}

TEST(Prox, NonNegativeClampsNegatives) {
  const Proximity p = Proximity::non_negative();
  EXPECT_DOUBLE_EQ(p.apply_scalar(-2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(3.0, 1.0), 3.0);
  EXPECT_TRUE(p.elementwise());
}

TEST(Prox, L1SoftThresholds) {
  const Proximity p = Proximity::l1(2.0);
  // threshold = lambda * rho_scale = 2 * 0.5 = 1.
  EXPECT_DOUBLE_EQ(p.apply_scalar(3.0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(-3.0, 0.5), -2.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(0.5, 0.5), 0.0);
}

TEST(Prox, L1NonNegativeCombines) {
  const Proximity p = Proximity::l1_non_negative(1.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(-3.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(0.5, 1.0), 0.0);
}

TEST(Prox, BoxClamps) {
  const Proximity p = Proximity::box(-1.0, 2.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(-5.0, 1.0), -1.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(1.5, 1.0), 1.5);
  EXPECT_DOUBLE_EQ(p.apply_scalar(9.0, 1.0), 2.0);
}

TEST(Prox, L2BallProjectsColumns) {
  const Proximity p = Proximity::l2_ball(1.0);
  EXPECT_FALSE(p.elementwise());
  Matrix h = Matrix::from_rows({{3.0, 0.1}, {4.0, 0.2}});
  p.apply(h, 1.0);
  EXPECT_NEAR(la::nrm2(2, h.col(0)), 1.0, 1e-12);
  // Column already inside the ball is untouched.
  EXPECT_DOUBLE_EQ(h(0, 1), 0.1);
  EXPECT_TRUE(p.is_feasible(h, 1e-9));
}

TEST(Prox, FeasibilityOracle) {
  const Proximity nn = Proximity::non_negative();
  Matrix ok = Matrix::from_rows({{0.0, 1.0}});
  Matrix bad = Matrix::from_rows({{-0.5, 1.0}});
  EXPECT_TRUE(nn.is_feasible(ok));
  EXPECT_FALSE(nn.is_feasible(bad));
}

TEST(Prox, SimplexProjectionSumsToOneAndIsNonNegative) {
  const Proximity p = Proximity::simplex();
  EXPECT_FALSE(p.elementwise());
  Rng rng(41);
  Matrix h(50, 4);
  h.fill_normal(rng, 0.0, 3.0);
  p.apply(h, 1.0);
  EXPECT_TRUE(p.is_feasible(h, 1e-9));
  for (index_t j = 0; j < 4; ++j) {
    real_t sum = 0.0;
    for (index_t i = 0; i < 50; ++i) {
      EXPECT_GE(h(i, j), 0.0);
      sum += h(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Prox, SimplexIsIdentityOnSimplexPoints) {
  const Proximity p = Proximity::simplex();
  Matrix h = Matrix::from_rows({{0.2}, {0.3}, {0.5}});
  Matrix before = h;
  p.apply(h, 1.0);
  EXPECT_LT(max_abs_diff(h, before), 1e-12);
}

TEST(Prox, SimplexProjectionIsClosestPoint) {
  // For v = (2, 0), the projection onto the simplex is (1, 0).
  const Proximity p = Proximity::simplex();
  Matrix h = Matrix::from_rows({{2.0}, {0.0}});
  p.apply(h, 1.0);
  EXPECT_NEAR(h(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(h(1, 0), 0.0, 1e-12);
}

TEST(Prox, SmoothSolvesTheTridiagonalSystemExactly) {
  // Verify (I + lambda D^T D) x == v after the prox.
  const real_t lambda = 0.7;
  const Proximity p = Proximity::smooth(lambda);
  EXPECT_FALSE(p.elementwise());
  Rng rng(42);
  const index_t n = 40;
  Matrix v(n, 2);
  v.fill_normal(rng);
  Matrix x = v;
  p.apply(x, 1.0);
  for (index_t j = 0; j < 2; ++j) {
    for (index_t i = 0; i < n; ++i) {
      real_t lhs = x(i, j);
      // D^T D row: 2x_i - x_{i-1} - x_{i+1} with free boundaries.
      real_t dtd = 0.0;
      if (i > 0) dtd += x(i, j) - x(i - 1, j);
      if (i < n - 1) dtd += x(i, j) - x(i + 1, j);
      lhs += lambda * dtd;
      EXPECT_NEAR(lhs, v(i, j), 1e-10) << "row " << i;
    }
  }
}

TEST(Prox, SmoothReducesTotalVariation) {
  const Proximity p = Proximity::smooth(5.0);
  Rng rng(43);
  Matrix h(100, 1);
  h.fill_normal(rng);
  auto variation = [&](const Matrix& m) {
    real_t tv = 0.0;
    for (index_t i = 1; i < m.rows(); ++i) {
      const real_t d = m(i, 0) - m(i - 1, 0);
      tv += d * d;
    }
    return tv;
  };
  const real_t before = variation(h);
  p.apply(h, 1.0);
  EXPECT_LT(variation(h), 0.2 * before);
}

TEST(Prox, SmoothPreservesColumnMean) {
  // (I + lambda D^T D) has row sums 1 outside... the all-ones vector is in
  // D's null space, so the smoothing operator preserves the mean exactly.
  const Proximity p = Proximity::smooth(2.0);
  Rng rng(44);
  Matrix h(64, 1);
  h.fill_uniform(rng, -1.0, 1.0);
  real_t mean_before = 0.0;
  for (index_t i = 0; i < 64; ++i) mean_before += h(i, 0);
  p.apply(h, 1.0);
  real_t mean_after = 0.0;
  for (index_t i = 0; i < 64; ++i) mean_after += h(i, 0);
  EXPECT_NEAR(mean_after, mean_before, 1e-9);
}

TEST(Admm, SimplexConstrainedUpdateStaysOnSimplex) {
  const Instance inst = make_nonneg_instance(60, 4, 45);
  AdmmOptions opt;
  opt.prox = Proximity::simplex();
  opt.inner_iterations = 20;
  AdmmUpdate admm(opt);
  simgpu::Device dev(simgpu::a100());
  Matrix h(60, 4);
  Rng rng(46);
  h.fill_uniform(rng, 0.0, 1.0);
  ModeState state;
  admm.update(dev, inst.s, inst.m, h, state);
  EXPECT_TRUE(opt.prox.is_feasible(h, 1e-6));
}

TEST(Admm, SmoothRegularizedUpdateIsSmootherThanUnregularized) {
  const Instance inst = make_instance(200, 4, 47);
  auto run = [&](Proximity prox) {
    AdmmOptions opt;
    opt.prox = prox;
    opt.inner_iterations = 30;
    AdmmUpdate admm(opt);
    simgpu::Device dev(simgpu::a100());
    Matrix h(200, 4);
    Rng rng(48);
    h.fill_uniform(rng, 0.0, 1.0);
    ModeState state;
    admm.update(dev, inst.s, inst.m, h, state);
    real_t tv = 0.0;
    for (index_t j = 0; j < 4; ++j) {
      for (index_t i = 1; i < 200; ++i) {
        const real_t d = h(i, j) - h(i - 1, j);
        tv += d * d;
      }
    }
    return tv;
  };
  EXPECT_LT(run(Proximity::smooth(20.0)), run(Proximity::identity()));
}

struct AdmmConfig {
  bool fusion;
  bool preinversion;
};

class AdmmConfigSweep : public ::testing::TestWithParam<AdmmConfig> {};

TEST_P(AdmmConfigSweep, RecoversUnconstrainedOptimumWhenFeasible) {
  // M = H_true * S with H_true >= 0: the non-negative LS optimum is H_true.
  const Instance inst = make_instance(200, 8, 1);
  AdmmOptions opt;
  opt.prox = Proximity::non_negative();
  opt.inner_iterations = 60;
  opt.operation_fusion = GetParam().fusion;
  opt.preinversion = GetParam().preinversion;
  AdmmUpdate admm(opt);
  simgpu::Device dev(simgpu::a100());
  Matrix h(200, 8);
  Rng rng(2);
  h.fill_uniform(rng, 0.0, 1.0);
  ModeState state;
  admm.update(dev, inst.s, inst.m, h, state);
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-4);
  EXPECT_TRUE(opt.prox.is_feasible(h));
}

TEST_P(AdmmConfigSweep, OutputFeasibleForL1NonNegative) {
  const Instance inst = make_instance(100, 6, 3);
  AdmmOptions opt;
  opt.prox = Proximity::l1_non_negative(0.5);
  opt.inner_iterations = 10;
  opt.operation_fusion = GetParam().fusion;
  opt.preinversion = GetParam().preinversion;
  AdmmUpdate admm(opt);
  simgpu::Device dev(simgpu::a100());
  Matrix h(100, 6);
  Rng rng(4);
  h.fill_normal(rng);  // start infeasible
  ModeState state;
  admm.update(dev, inst.s, inst.m, h, state);
  EXPECT_TRUE(opt.prox.is_feasible(h));
}

TEST_P(AdmmConfigSweep, DecreasesObjectiveFromColdStart) {
  const Instance inst = make_instance(300, 12, 5);
  AdmmOptions opt;
  opt.prox = Proximity::non_negative();
  opt.inner_iterations = 10;
  opt.operation_fusion = GetParam().fusion;
  opt.preinversion = GetParam().preinversion;
  AdmmUpdate admm(opt);
  simgpu::Device dev(simgpu::h100());
  Matrix h(300, 12);
  Rng rng(6);
  h.fill_uniform(rng, 0.0, 1.0);
  const real_t before = objective(inst.s, inst.m, h);
  ModeState state;
  admm.update(dev, inst.s, inst.m, h, state);
  EXPECT_LT(objective(inst.s, inst.m, h), before);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AdmmConfigSweep,
    ::testing::Values(AdmmConfig{false, false}, AdmmConfig{true, false},
                      AdmmConfig{false, true}, AdmmConfig{true, true}),
    [](const auto& name_info) {
      return std::string(name_info.param.fusion ? "OF" : "noOF") +
             (name_info.param.preinversion ? "_PI" : "_noPI");
    });

// Regression: kernel_apply_proximity used to fall back silently to
// inv_rho = 1 on rho <= 0, letting the fused path scale the prox differently
// from the unfused BLAS chain. The clamp lives in AdmmUpdate::update; the
// kernels must reject a non-positive rho outright.
TEST(AdmmKernels, NonPositiveRhoThrows) {
  simgpu::Device dev(simgpu::a100());
  Matrix m(6, 3), h(6, 3), u(6, 3), t(6, 3);
  real_t delta = 0.0;
  EXPECT_THROW(kernel_apply_proximity(dev, Proximity::non_negative(), 0.0, t,
                                      u, h, &delta),
               Error);
  EXPECT_THROW(kernel_apply_proximity(dev, Proximity::non_negative(), -2.0, t,
                                      u, h, &delta),
               Error);
  EXPECT_THROW(kernel_compute_auxiliary(dev, m, h, u, 0.0, t), Error);
}

// The residual order of the ADMM kernels (admm_kernels.hpp): per block of
// kAdmmBlockRows rows, lane i mod kAdmmResidualLanes adds the terms of its
// rows column by column, rows ascending; a block's lanes add up in lane
// order and the block sums in block order.
template <class Term>
real_t block_lane_sum(index_t rows, index_t cols, const Term& term) {
  real_t total = 0.0;
  for (index_t r0 = 0; r0 < rows; r0 += kAdmmBlockRows) {
    real_t lanes[kAdmmResidualLanes] = {};
    for (index_t j = 0; j < cols; ++j) {
      for (index_t i = r0; i < std::min(rows, r0 + kAdmmBlockRows); ++i) {
        lanes[(i - r0) % kAdmmResidualLanes] += term(i, j);
      }
    }
    real_t block = 0.0;
    for (real_t lane : lanes) block += lane;
    total += block;
  }
  return total;
}

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  return x.same_shape(y) &&
         (x.size() == 0 ||
          std::memcmp(x.data(), y.data(),
                      sizeof(real_t) * static_cast<std::size_t>(x.size())) ==
              0);
}

bool bitwise_equal(real_t x, real_t y) {
  return std::memcmp(&x, &y, sizeof x) == 0;
}

// The kernels' residual sums are fixed-lane partial sums per row block,
// added in block order, so the values are bitwise the same at every worker
// count. The oracle is that order, summed serially.
TEST(AdmmKernels, ResidualSumsAreTileOrderedSerialSums) {
  // 7 rows: one partial group of lanes. 3007 rows: several blocks, then a
  // partial one whose columns end 7 rows past their last group of 8.
  for (index_t rows : {7, 3007}) {
    SCOPED_TRACE(::testing::Message() << "rows=" << rows);
    const index_t rank = 7;
    Rng rng(41);
    Matrix t(rows, rank), u(rows, rank), h(rows, rank);
    t.fill_uniform(rng, -1.0, 1.0);
    u.fill_uniform(rng, -0.5, 0.5);
    h.fill_uniform(rng, 0.0, 1.0);
    // Magnitudes from 2^-20 to 2^20 (exact scalings), so terms in different
    // lanes round differently and a sum in another order shows in the bits.
    for (Matrix* x : {&t, &u, &h}) {
      for (index_t i = 0; i < x->size(); ++i) {
        const int exponent = static_cast<int>(i * 7 % 41) - 20;
        x->data()[i] = std::ldexp(x->data()[i], exponent);
      }
    }
    simgpu::Device dev(simgpu::a100());

    Matrix want_h = h;
    for (index_t i = 0; i < want_h.size(); ++i) {
      want_h.data()[i] = std::max(t.data()[i] - u.data()[i], 0.0);
    }
    const real_t want_delta =
        block_lane_sum(rows, rank, [&](index_t i, index_t j) {
          const real_t d = want_h(i, j) - h(i, j);
          return d * d;
        });
    real_t delta = -1.0;
    kernel_apply_proximity(dev, Proximity::non_negative(), 2.0, t, u, h,
                           &delta);
    EXPECT_TRUE(bitwise_equal(h, want_h));
    EXPECT_TRUE(bitwise_equal(delta, want_delta));

    Matrix want_u = u;
    for (index_t i = 0; i < want_u.size(); ++i) {
      want_u.data()[i] += h.data()[i] - t.data()[i];
    }
    const real_t want_primal =
        block_lane_sum(rows, rank, [&](index_t i, index_t j) {
          const real_t d = h(i, j) - t(i, j);
          return d * d;
        });
    const real_t want_h_sq = block_lane_sum(
        rows, rank, [&](index_t i, index_t j) { return h(i, j) * h(i, j); });
    const real_t want_u_sq =
        block_lane_sum(rows, rank, [&](index_t i, index_t j) {
          return want_u(i, j) * want_u(i, j);
        });
    real_t primal = -1.0, h_sq = -1.0, u_sq = -1.0;
    kernel_dual_update(dev, h, t, u, &primal, &h_sq, &u_sq);
    EXPECT_TRUE(bitwise_equal(u, want_u));
    EXPECT_TRUE(bitwise_equal(primal, want_primal));
    EXPECT_TRUE(bitwise_equal(h_sq, want_h_sq));
    EXPECT_TRUE(bitwise_equal(u_sq, want_u_sq));
  }
}

// The kernel-by-kernel cuADMM inner loop, the oracle of the fused row-block
// pass: the three kernels plus dgemm, then the residual read-back.
AdmmResiduals kernel_chain(simgpu::Device& dev, const Proximity& prox,
                           const AdmmGram& gram, const Matrix& m, Matrix& h,
                           Matrix& u, int iterations) {
  Matrix t(h.rows(), h.cols()), htilde(h.rows(), h.cols());
  AdmmResiduals r;
  for (int iter = 0; iter < iterations; ++iter) {
    kernel_compute_auxiliary(dev, m, h, u, gram.rho, t);
    simgpu::dgemm(dev, la::Op::kNone, la::Op::kNone, 1.0, t, gram.inverse,
                  0.0, htilde);
    kernel_apply_proximity(dev, prox, gram.rho, htilde, u, h, &r.delta_h_sq);
    kernel_dual_update(dev, h, htilde, u, &r.primal_sq, &r.h_sq, &r.u_sq);
    simgpu::KernelStats sync;
    sync.launches = 10;
    dev.record("admm_residual_sync", sync);
  }
  return r;
}

std::vector<Proximity> elementwise_proxes() {
  return {Proximity::identity(), Proximity::non_negative(),
          Proximity::l1(0.3), Proximity::l1_non_negative(0.3),
          Proximity::box(-0.2, 0.5)};
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> isas;
  for (auto isa : {Isa::kPortable, Isa::kAvx2, Isa::kAvx512f}) {
    if (isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

// One cuADMM update problem: S's pre-inverted Gram, a mixed-sign M (so
// every prox is active somewhere), a start H and a warm dual U.
struct FusedCase {
  AdmmGram gram;
  Matrix m, h0, u0;
};

FusedCase make_fused_case(index_t rows, index_t rank, std::uint64_t seed) {
  FusedCase c;
  const Instance inst = make_instance(std::max<index_t>(rows, 1), rank, seed);
  c.gram = prepare_admm_gram(inst.s, /*preinvert=*/true);
  Rng rng(seed + 1);
  c.m.resize(rows, rank);
  c.m.fill_uniform(rng, -2.0, 2.0);
  c.h0.resize(rows, rank);
  c.h0.fill_uniform(rng, -0.5, 1.0);
  c.u0.resize(rows, rank);
  c.u0.fill_uniform(rng, -0.3, 0.3);
  return c;
}

// The fused row-block pass gives the kernel chain's H, U and residuals to
// the bit, on every instruction-set variant, for every elementwise prox,
// on shapes around the block and tile boundaries, with I < R and I >> R.
TEST(AdmmFused, MatchesTheKernelChainBitwise) {
  const std::vector<Isa> isas = supported_isas();
  for (const Proximity& prox : elementwise_proxes()) {
    for (index_t rows : {1, 7, 16, 17, 255, 256, 257, 3001}) {
      for (index_t rank : {1, 3, 8, 32, 33}) {
        SCOPED_TRACE(::testing::Message() << prox.name() << " rows=" << rows
                                          << " R=" << rank);
        const FusedCase c = make_fused_case(rows, rank, 70 + rows + rank);
        simgpu::Device chain_dev(simgpu::a100());
        Matrix h_want = c.h0, u_want = c.u0;
        const AdmmResiduals want =
            kernel_chain(chain_dev, prox, c.gram, c.m, h_want, u_want, 1);
        for (Isa isa : isas) {
          simgpu::Device dev(simgpu::a100());
          Matrix h = c.h0, u = c.u0;
          const la::GemmPanels inverse(1.0, c.gram.inverse, la::Op::kNone,
                                       isa);
          const AdmmResiduals got = kernel_fused_inner_iteration(
              dev, prox, c.gram.rho, c.m, inverse, h, u, {}, isa);
          EXPECT_TRUE(bitwise_equal(h, h_want)) << "variant " << int(isa);
          EXPECT_TRUE(bitwise_equal(u, u_want)) << "variant " << int(isa);
          EXPECT_TRUE(bitwise_equal(got.delta_h_sq, want.delta_h_sq));
          EXPECT_TRUE(bitwise_equal(got.primal_sq, want.primal_sq));
          EXPECT_TRUE(bitwise_equal(got.h_sq, want.h_sq));
          EXPECT_TRUE(bitwise_equal(got.u_sq, want.u_sq));
        }
      }
    }
  }
}

// Through AdmmUpdate, a fused update records the kernel chain's launches:
// the same names, KernelStats and order, so per-kernel totals and modeled
// time match to the bit. The pass's host wall sits on its first launch, and
// it sizes no I x R scratch.
TEST(AdmmFused, RecordsTheKernelChainLaunches) {
  for (index_t rows : {7, 16, 3001}) {  // 7 and 16 rows: I < R
    for (index_t rank : {1, 32, 33}) {
      SCOPED_TRACE(::testing::Message() << "rows=" << rows << " R=" << rank);
      const FusedCase c = make_fused_case(rows, rank, 90 + rows + rank);
      AdmmOptions opt;
      opt.inner_iterations = 4;
      const AdmmUpdate admm(opt);

      simgpu::Device chain_dev(simgpu::a100());
      simgpu::Tracer chain_trace;
      chain_dev.set_tracer(&chain_trace);
      Matrix h_want = c.h0, u_want = c.u0;
      const AdmmResiduals want = kernel_chain(
          chain_dev, opt.prox, c.gram, c.m, h_want, u_want,
          opt.inner_iterations);

      simgpu::Device dev(simgpu::a100());
      simgpu::Tracer trace;
      dev.set_tracer(&trace);
      Matrix h = c.h0;
      ModeState state;
      state.dual = c.u0;
      admm.update_with_gram(dev, c.gram, c.m, h, state);

      EXPECT_TRUE(bitwise_equal(h, h_want));
      EXPECT_TRUE(bitwise_equal(state.dual, u_want));
      EXPECT_TRUE(state.aux.empty());
      EXPECT_TRUE(state.scratch.empty());
      EXPECT_EQ(admm.last().iterations, opt.inner_iterations);
      EXPECT_TRUE(bitwise_equal(admm.last().primal_residual,
                                want.primal_sq / want.h_sq));
      EXPECT_TRUE(bitwise_equal(admm.last().dual_residual,
                                want.delta_h_sq / want.u_sq));

      ASSERT_EQ(dev.per_kernel().size(), chain_dev.per_kernel().size());
      for (const auto& [name, stats] : chain_dev.per_kernel()) {
        ASSERT_TRUE(dev.per_kernel().count(name)) << name;
        EXPECT_EQ(std::memcmp(&dev.per_kernel().at(name), &stats,
                              sizeof stats), 0) << name;
      }
      EXPECT_TRUE(bitwise_equal(dev.modeled_time_s(),
                                chain_dev.modeled_time_s()));

      const std::vector<simgpu::TraceSpan> spans = trace.spans();
      const std::vector<simgpu::TraceSpan> chain_spans = chain_trace.spans();
      ASSERT_EQ(spans.size(), chain_spans.size());
      for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].kernel, chain_spans[i].kernel) << "span " << i;
        EXPECT_EQ(std::memcmp(&spans[i].stats, &chain_spans[i].stats,
                              sizeof spans[i].stats), 0) << "span " << i;
        if (spans[i].kernel == "dgemm" ||
            spans[i].kernel == "admm_apply_proximity" ||
            spans[i].kernel == "admm_dual_update") {
          EXPECT_EQ(spans[i].wall_s, 0.0) << spans[i].kernel;
        }
      }
    }
  }
}

// With deterministic residuals the tolerance test exits at the same inner
// iteration every run, so an early-exiting update is bitwise repeatable.
TEST(Admm, EarlyExitIsBitwiseRepeatable) {
  // A mixed-sign M keeps the non-negativity constraint active, so the dual
  // (the dual residual's denominator) stays away from zero.
  Instance inst = make_instance(2000, 8, 43);
  Rng rng(44);
  inst.m.fill_uniform(rng, -1.0, 1.0);
  AdmmOptions opt;
  opt.inner_iterations = 200;
  opt.tolerance = 1e-6;
  Matrix h0(2000, 8);
  h0.fill_uniform(rng, 0.0, 1.0);
  auto run = [&](AdmmDiagnostics& diag) {
    AdmmUpdate admm(opt);
    simgpu::Device dev(simgpu::a100());
    Matrix h = h0;
    ModeState state;
    admm.update(dev, inst.s, inst.m, h, state);
    diag = admm.last();
    return h;
  };
  AdmmDiagnostics first, again;
  const Matrix h_first = run(first);
  ASSERT_LT(first.iterations, opt.inner_iterations);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const Matrix h = run(again);
    EXPECT_EQ(again.iterations, first.iterations);
    EXPECT_EQ(std::memcmp(&again.primal_residual, &first.primal_residual,
                          sizeof(real_t)), 0);
    EXPECT_EQ(std::memcmp(&again.dual_residual, &first.dual_residual,
                          sizeof(real_t)), 0);
    EXPECT_EQ(std::memcmp(h.data(), h_first.data(),
                          sizeof(real_t) * h.size()), 0);
  }
}

// Degenerate rho (all-zero S → trace 0) goes through the centralized clamp,
// and the fused/unfused paths must agree on the clamped problem.
TEST(Admm, DegenerateRhoClampedConsistentlyAcrossPaths) {
  const index_t i_len = 40, rank = 5;
  Matrix s(rank, rank);  // all zeros: trace(S)/R = 0, clamp kicks in
  Rng rng(17);
  Matrix m(i_len, rank);
  m.fill_uniform(rng, -1.0, 1.0);
  Matrix h0(i_len, rank);
  h0.fill_uniform(rng, 0.0, 1.0);

  Matrix results[2];
  int idx = 0;
  for (bool fusion : {false, true}) {
    AdmmOptions opt;
    opt.prox = Proximity::non_negative();
    opt.inner_iterations = 5;
    opt.operation_fusion = fusion;
    AdmmUpdate admm(opt);
    simgpu::Device dev(simgpu::a100());
    Matrix h = h0;
    ModeState state;
    EXPECT_NO_THROW(admm.update(dev, s, m, h, state));
    EXPECT_DOUBLE_EQ(admm.last().rho, 1.0);  // the documented clamp value
    results[idx++] = std::move(h);
  }
  EXPECT_LT(max_abs_diff(results[0], results[1]), 1e-9);
}

TEST(Admm, AllFourConfigurationsAgreeNumerically) {
  // OF and PI are performance transformations; the math is identical, so all
  // four variants must produce (near-)identical iterates.
  const Instance inst = make_instance(150, 10, 7);
  Matrix h0(150, 10);
  Rng rng(8);
  h0.fill_uniform(rng, 0.0, 1.0);

  Matrix results[4];
  int idx = 0;
  for (bool fusion : {false, true}) {
    for (bool pi : {false, true}) {
      AdmmOptions opt;
      opt.prox = Proximity::non_negative();
      opt.inner_iterations = 10;
      opt.operation_fusion = fusion;
      opt.preinversion = pi;
      AdmmUpdate admm(opt);
      simgpu::Device dev(simgpu::a100());
      Matrix h = h0;
      ModeState state;
      admm.update(dev, inst.s, inst.m, h, state);
      results[idx++] = std::move(h);
    }
  }
  for (int i = 1; i < 4; ++i) {
    EXPECT_LT(max_abs_diff(results[0], results[i]), 1e-9) << "config " << i;
  }
}

TEST(Admm, FusedPathIssuesFewerBytesThanUnfused) {
  // The Figure-4 mechanism: same math, less traffic.
  const Instance inst = make_instance(2000, 32, 9);
  Matrix h0(2000, 32);
  Rng rng(10);
  h0.fill_uniform(rng, 0.0, 1.0);

  auto run_traffic = [&](bool fusion, bool pi) {
    AdmmOptions opt;
    opt.prox = Proximity::non_negative();
    opt.inner_iterations = 10;
    opt.operation_fusion = fusion;
    opt.preinversion = pi;
    AdmmUpdate admm(opt);
    simgpu::Device dev(simgpu::a100());
    Matrix h = h0;
    ModeState state;
    admm.update(dev, inst.s, inst.m, h, state);
    return dev.total().total_bytes();
  };

  EXPECT_LT(run_traffic(true, false), run_traffic(false, false));
  EXPECT_LT(run_traffic(true, true), run_traffic(false, true));
}

TEST(Admm, PreinversionReplacesTriangularSolvesWithGemm) {
  const Instance inst = make_instance(500, 16, 11);
  Matrix h0(500, 16);
  Rng rng(12);
  h0.fill_uniform(rng, 0.0, 1.0);

  auto kernels = [&](bool pi) {
    AdmmOptions opt;
    opt.inner_iterations = 3;
    opt.operation_fusion = true;
    opt.preinversion = pi;
    AdmmUpdate admm(opt);
    simgpu::Device dev(simgpu::a100());
    Matrix h = h0;
    ModeState state;
    admm.update(dev, inst.s, inst.m, h, state);
    return dev.per_kernel();
  };

  const auto with_pi = kernels(true);
  EXPECT_TRUE(with_pi.count("dgemm"));
  EXPECT_FALSE(with_pi.count("dpotrs_right"));
  EXPECT_TRUE(with_pi.count("dpotri"));
  const auto without_pi = kernels(false);
  EXPECT_TRUE(without_pi.count("dpotrs_right"));
  EXPECT_FALSE(without_pi.count("dpotri"));
}

TEST(Admm, EarlyExitHonorsTolerance) {
  const Instance inst = make_instance(100, 4, 13);
  AdmmOptions opt;
  opt.inner_iterations = 200;
  opt.tolerance = 1e-8;
  AdmmUpdate admm(opt);
  simgpu::Device dev(simgpu::a100());
  Matrix h(100, 4);
  Rng rng(14);
  h.fill_uniform(rng, 0.0, 1.0);
  ModeState state;
  admm.update(dev, inst.s, inst.m, h, state);
  EXPECT_LT(admm.last().iterations, 200);
  EXPECT_LT(admm.last().primal_residual, 1e-8);
}

TEST(Admm, DualVariableWarmStartsAcrossCalls) {
  const Instance inst = make_instance(50, 4, 15);
  AdmmOptions opt;
  opt.inner_iterations = 5;
  AdmmUpdate admm(opt);
  simgpu::Device dev(simgpu::a100());
  Matrix h(50, 4);
  Rng rng(16);
  h.fill_uniform(rng, 0.0, 1.0);
  ModeState state;
  admm.update(dev, inst.s, inst.m, h, state);
  const Matrix dual_after_first = state.dual;
  EXPECT_GT(la::frobenius_norm(dual_after_first), 0.0);
  admm.update(dev, inst.s, inst.m, h, state);
  // Dual evolves from, not resets to, its previous value.
  EXPECT_TRUE(state.dual.same_shape(dual_after_first));
}

class BlockAdmmBlockSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(BlockAdmmBlockSizes, MatchesUnblockedAdmmExactly) {
  // Rows are independent given S, so blocking must not change the math at
  // all — any block size yields the same iterates as the unfused ADMM.
  const Instance inst = make_instance(257, 8, 17);
  Matrix h0(257, 8);
  Rng rng(18);
  h0.fill_uniform(rng, 0.0, 1.0);

  AdmmOptions ref_opt;
  ref_opt.prox = Proximity::non_negative();
  ref_opt.inner_iterations = 10;
  ref_opt.operation_fusion = false;
  ref_opt.preinversion = false;
  AdmmUpdate ref(ref_opt);
  simgpu::Device dev_a(simgpu::xeon_8367hc());
  Matrix h_ref = h0;
  ModeState state_ref;
  ref.update(dev_a, inst.s, inst.m, h_ref, state_ref);

  BlockAdmmOptions blk_opt;
  blk_opt.prox = Proximity::non_negative();
  blk_opt.inner_iterations = 10;
  blk_opt.block_rows = GetParam();
  BlockAdmmUpdate blocked(blk_opt);
  simgpu::Device dev_b(simgpu::xeon_8367hc());
  Matrix h_blk = h0;
  ModeState state_blk;
  blocked.update(dev_b, inst.s, inst.m, h_blk, state_blk);

  EXPECT_LT(max_abs_diff(h_ref, h_blk), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Blocks, BlockAdmmBlockSizes,
                         ::testing::Values<index_t>(1, 7, 64, 257, 4096));

TEST(Mu, PreservesNonNegativityAndDescends) {
  const Instance inst = make_nonneg_instance(120, 8, 19);
  MuUpdate mu;
  simgpu::Device dev(simgpu::a100());
  Matrix h(120, 8);
  Rng rng(20);
  h.fill_uniform(rng, 0.1, 1.0);
  ModeState state;
  real_t prev = objective(inst.s, inst.m, h);
  for (int sweep = 0; sweep < 5; ++sweep) {
    mu.update(dev, inst.s, inst.m, h, state);
    const real_t now = objective(inst.s, inst.m, h);
    EXPECT_LE(now, prev + 1e-9) << "sweep " << sweep;
    prev = now;
  }
  EXPECT_TRUE(Proximity::non_negative().is_feasible(h));
}

TEST(Mu, FixedPointAtExactSolution) {
  const Instance inst = make_nonneg_instance(60, 5, 21);
  MuUpdate mu;
  simgpu::Device dev(simgpu::a100());
  Matrix h = inst.h_true;
  ModeState state;
  mu.update(dev, inst.s, inst.m, h, state);
  // At H_true, M ./ (H S) == 1 elementwise wherever H > 0.
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-9);
}

TEST(Hals, PreservesNonNegativityAndDescends) {
  const Instance inst = make_instance(120, 8, 22);
  HalsUpdate hals;
  simgpu::Device dev(simgpu::a100());
  Matrix h(120, 8);
  Rng rng(23);
  h.fill_uniform(rng, 0.1, 1.0);
  ModeState state;
  real_t prev = objective(inst.s, inst.m, h);
  for (int sweep = 0; sweep < 5; ++sweep) {
    hals.update(dev, inst.s, inst.m, h, state);
    const real_t now = objective(inst.s, inst.m, h);
    EXPECT_LE(now, prev + 1e-9) << "sweep " << sweep;
    prev = now;
  }
  for (index_t i = 0; i < h.size(); ++i) EXPECT_GT(h.data()[i], 0.0);
}

TEST(Hals, ConvergesToOptimumWithEnoughSweeps) {
  const Instance inst = make_instance(80, 6, 24);
  HalsOptions opt;
  opt.inner_iterations = 100;
  HalsUpdate hals(opt);
  simgpu::Device dev(simgpu::a100());
  Matrix h(80, 6);
  Rng rng(25);
  h.fill_uniform(rng, 0.1, 1.0);
  ModeState state;
  hals.update(dev, inst.s, inst.m, h, state);
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-6);
}

TEST(Bpp, MatchesUnconstrainedSolutionWhenInterior) {
  // M = H_true * S with H_true > 0: the NNLS optimum is the unconstrained
  // one, and BPP must hit it exactly.
  const Instance inst = make_instance(80, 6, 61);
  BppUpdate bpp;
  simgpu::Device dev(simgpu::a100());
  Matrix h(80, 6);
  ModeState state;
  bpp.update(dev, inst.s, inst.m, h, state);
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-9);
}

TEST(Bpp, SatisfiesKktConditionsWithActiveConstraints) {
  // Signed optimum forces a non-trivial active set; verify primal/dual KKT.
  Rng rng(62);
  Matrix g(12, 6);
  g.fill_normal(rng);
  Matrix s(6, 6);
  la::gram(g, s);
  la::add_diagonal(s, 1.0);
  Matrix h_signed(50, 6);
  h_signed.fill_normal(rng);
  Matrix m(50, 6);
  la::gemm(la::Op::kNone, la::Op::kNone, 1.0, h_signed, s, 0.0, m);

  BppUpdate bpp;
  simgpu::Device dev(simgpu::a100());
  Matrix h(50, 6);
  ModeState state;
  bpp.update(dev, s, m, h, state);

  index_t active = 0;
  for (index_t i = 0; i < 50; ++i) {
    for (index_t r = 0; r < 6; ++r) {
      // Primal feasibility.
      ASSERT_GE(h(i, r), 0.0);
      // Dual: y = (H S - M) row-wise; y >= 0 where x == 0, |y| ~ 0 where
      // x > 0 (complementary slackness).
      real_t y = -m(i, r);
      for (index_t k = 0; k < 6; ++k) y += s(r, k) * h(i, k);
      if (h(i, r) > 1e-10) {
        EXPECT_NEAR(y, 0.0, 1e-8) << "row " << i << " col " << r;
      } else {
        EXPECT_GE(y, -1e-8) << "row " << i << " col " << r;
        ++active;
      }
    }
  }
  EXPECT_GT(active, 0);  // the instance must actually clamp something
}

TEST(Bpp, IsTheOracleAdmmConvergesTo) {
  // Run ADMM to (near-)convergence and compare against BPP's exact answer.
  const Instance inst = make_instance(60, 5, 63);
  Rng rng(64);
  Matrix m_hard(60, 5);
  Matrix h_signed(60, 5);
  h_signed.fill_normal(rng);
  la::gemm(la::Op::kNone, la::Op::kNone, 1.0, h_signed, inst.s, 0.0, m_hard);

  BppUpdate bpp;
  simgpu::Device dev(simgpu::a100());
  Matrix h_exact(60, 5);
  ModeState st1;
  bpp.update(dev, inst.s, m_hard, h_exact, st1);

  AdmmOptions opt;
  opt.inner_iterations = 3000;
  opt.tolerance = 1e-14;
  AdmmUpdate admm(opt);
  Matrix h_admm(60, 5);
  Rng rng2(65);
  h_admm.fill_uniform(rng2, 0.0, 1.0);
  ModeState st2;
  admm.update(dev, inst.s, m_hard, h_admm, st2);

  EXPECT_LT(max_abs_diff(h_admm, h_exact), 1e-4);
  // And BPP's objective is never worse.
  EXPECT_LE(objective(inst.s, m_hard, h_exact),
            objective(inst.s, m_hard, h_admm) + 1e-9);
}

TEST(Bpp, ZeroMttkrpGivesZeroSolution) {
  const Instance inst = make_nonneg_instance(20, 4, 66);
  Matrix m_zero(20, 4);
  BppUpdate bpp;
  simgpu::Device dev(simgpu::a100());
  Matrix h(20, 4);
  ModeState state;
  bpp.update(dev, inst.s, m_zero, h, state);
  EXPECT_LT(la::frobenius_norm(h), 1e-12);
}

TEST(Als, SolvesTheNormalEquationsExactly) {
  const Instance inst = make_instance(90, 7, 26);
  AlsUpdate als;
  simgpu::Device dev(simgpu::a100());
  Matrix h(90, 7);  // ALS ignores the start
  ModeState state;
  als.update(dev, inst.s, inst.m, h, state);
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-8);
}

TEST(Als, HandlesNegativeOptimum) {
  // Without constraints the solver must follow M wherever it leads.
  Instance inst = make_instance(40, 4, 27);
  Rng rng(28);
  Matrix h_signed(40, 4);
  h_signed.fill_normal(rng);
  la::gemm(la::Op::kNone, la::Op::kNone, 1.0, h_signed, inst.s, 0.0, inst.m);
  AlsUpdate als;
  simgpu::Device dev(simgpu::a100());
  Matrix h(40, 4);
  ModeState state;
  als.update(dev, inst.s, inst.m, h, state);
  EXPECT_LT(max_abs_diff(h, h_signed), 1e-8);
}

}  // namespace
}  // namespace cstf
