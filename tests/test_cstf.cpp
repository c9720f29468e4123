// Integration tests: KTensor, the AUNTF driver, the CstfFramework facade,
// and the SPLATT/PLANC baselines.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <vector>

#include "baselines/planc.hpp"
#include "baselines/splatt.hpp"
#include "common/fp_mode.hpp"
#include "cstf/auntf.hpp"
#include "cstf/framework.hpp"
#include "cstf/ktensor.hpp"
#include "cstf/sampled_fit.hpp"
#include "la/blas.hpp"
#include "mttkrp/coo_mttkrp.hpp"
#include "perfmodel/admm_model.hpp"
#include "tensor/datasets.hpp"
#include "tensor/generate.hpp"

namespace cstf {
namespace {

LowRankTensor make_low_rank(std::uint64_t seed = 1) {
  // Fully observed (target_nnz covers every cell): CP of a partially
  // sampled tensor treats missing cells as zeros, so only full observation
  // makes the planted rank-4 model recoverable with high fit.
  LowRankTensorParams params;
  params.dims = {24, 18, 14};
  params.rank = 4;
  params.target_nnz = 24 * 18 * 14;
  params.noise = 0.01;
  params.seed = seed;
  return generate_low_rank(params);
}

TEST(KTensor, ValueAtMatchesExplicitSum) {
  KTensor kt;
  kt.factors.push_back(Matrix::from_rows({{1, 2}, {3, 4}}));
  kt.factors.push_back(Matrix::from_rows({{5, 6}, {7, 8}}));
  kt.lambda = {1.0, 0.5};
  index_t coords[2] = {1, 0};
  // 1*3*5 + 0.5*4*6 = 27.
  EXPECT_DOUBLE_EQ(kt.value_at(coords), 27.0);
}

TEST(KTensor, NormSqMatchesDenseEnumeration) {
  Rng rng(3);
  KTensor kt;
  kt.factors.emplace_back(5, 3);
  kt.factors.emplace_back(4, 3);
  kt.factors.emplace_back(6, 3);
  for (auto& f : kt.factors) f.fill_uniform(rng, 0.0, 1.0);
  kt.lambda = {1.0, 2.0, 0.5};
  real_t brute = 0.0;
  index_t coords[3];
  for (coords[0] = 0; coords[0] < 5; ++coords[0]) {
    for (coords[1] = 0; coords[1] < 4; ++coords[1]) {
      for (coords[2] = 0; coords[2] < 6; ++coords[2]) {
        const real_t v = kt.value_at(coords);
        brute += v * v;
      }
    }
  }
  EXPECT_NEAR(kt.norm_sq(), brute, 1e-9 * brute);
}

TEST(KTensor, PerfectFitOnSelfGeneratedTensor) {
  // Sample a tensor exactly from the model: fit to those nonzeros is
  // dominated by the dense zero region, but against its dense version the
  // fit must be 1.
  Rng rng(4);
  KTensor kt;
  kt.factors.emplace_back(8, 2);
  kt.factors.emplace_back(7, 2);
  for (auto& f : kt.factors) f.fill_uniform(rng, 0.1, 1.0);
  kt.lambda = {1.0, 1.0};
  SparseTensor dense_as_sparse({8, 7});
  index_t coords[2];
  for (coords[0] = 0; coords[0] < 8; ++coords[0]) {
    for (coords[1] = 0; coords[1] < 7; ++coords[1]) {
      dense_as_sparse.append(coords, kt.value_at(coords));
    }
  }
  EXPECT_NEAR(kt.fit_to(dense_as_sparse), 1.0, 1e-9);
}

TEST(KTensor, CheckpointRoundTripsExactly) {
  Rng rng(71);
  KTensor model;
  model.factors.emplace_back(13, 3);
  model.factors.emplace_back(9, 3);
  model.factors.emplace_back(7, 3);
  for (auto& f : model.factors) f.fill_normal(rng);
  model.lambda = {1.5, 0.25, 3.75};
  const std::string path = ::testing::TempDir() + "/model.ckpt";
  save_ktensor(model, path);
  const KTensor back = load_ktensor(path);
  ASSERT_EQ(back.num_modes(), 3);
  ASSERT_EQ(back.rank(), 3);
  EXPECT_EQ(back.lambda, model.lambda);
  for (int m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(max_abs_diff(back.factors[m], model.factors[m]), 0.0);
  }
}

TEST(KTensor, CheckpointRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage.ckpt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOT-A-CHECKPOINT-FILE-AT-ALL";
  }
  EXPECT_THROW(load_ktensor(path), Error);
  EXPECT_THROW(load_ktensor("/nonexistent/model.ckpt"), Error);
}

TEST(KTensor, ValidateAcceptsWellFormedModel) {
  Rng rng(8);
  KTensor model;
  model.factors.emplace_back(6, 2);
  model.factors.emplace_back(4, 2);
  for (auto& f : model.factors) f.fill_uniform(rng, 0.0, 1.0);
  model.lambda = {1.0, 2.0};
  EXPECT_NO_THROW(model.validate());
}

TEST(KTensor, ValidateRejectsStructuralAndNumericalDefects) {
  const auto well_formed = [] {
    Rng rng(8);
    KTensor model;
    model.factors.emplace_back(6, 2);
    model.factors.emplace_back(4, 2);
    for (auto& f : model.factors) f.fill_uniform(rng, 0.0, 1.0);
    model.lambda = {1.0, 2.0};
    return model;
  };

  EXPECT_THROW(KTensor{}.validate(), Error);  // no modes

  KTensor bad_lambda = well_formed();
  bad_lambda.lambda.push_back(3.0);
  EXPECT_THROW(bad_lambda.validate(), Error);

  KTensor ragged = well_formed();
  ragged.factors[1] = Matrix(4, 3);  // rank mismatch across modes
  EXPECT_THROW(ragged.validate(), Error);

  KTensor nan_factor = well_formed();
  nan_factor.factors[0](3, 1) = std::nan("");
  EXPECT_THROW(nan_factor.validate(), Error);

  KTensor inf_lambda = well_formed();
  inf_lambda.lambda[0] = std::numeric_limits<real_t>::infinity();
  EXPECT_THROW(inf_lambda.validate(), Error);
}

TEST(SampledFit, FullSampleIsBitIdenticalToExactFit) {
  const LowRankTensor data = make_low_rank(21);
  Rng rng(22);
  KTensor model;
  for (index_t dim : data.tensor.dims()) {
    model.factors.emplace_back(dim, 4);
    model.factors.back().fill_uniform(rng, 0.0, 1.0);
  }
  model.lambda = {1.0, 0.75, 0.5, 0.25};

  SampledFitOptions options;
  options.sample_size = data.tensor.nnz();  // covers every nonzero
  const real_t exact = model.fit_to(data.tensor);
  EXPECT_EQ(sampled_fit(model, data.tensor, options), exact);
  options.sample_size = data.tensor.nnz() * 3;  // oversampling changes nothing
  EXPECT_EQ(sampled_fit(model, data.tensor, options), exact);
}

TEST(SampledFit, FixedSeedIsDeterministic) {
  const LowRankTensor data = make_low_rank(31);
  Rng rng(32);
  KTensor model;
  for (index_t dim : data.tensor.dims()) {
    model.factors.emplace_back(dim, 4);
    model.factors.back().fill_uniform(rng, 0.0, 1.0);
  }
  model.lambda = {1.0, 1.0, 1.0, 1.0};

  SampledFitOptions options;
  options.sample_size = data.tensor.nnz() / 8;
  options.seed = 77;
  const real_t first = sampled_fit(model, data.tensor, options);
  const real_t second = sampled_fit(model, data.tensor, options);
  EXPECT_EQ(first, second);  // same seed, same sample, same estimate

  options.seed = 78;
  const real_t other_seed = sampled_fit(model, data.tensor, options);
  // A different sample gives a (generally) different but nearby estimate.
  EXPECT_NEAR(other_seed, first, 0.2);
}

TEST(Auntf, FitIncreasesAndFactorsStayFeasible) {
  const LowRankTensor lr = make_low_rank();
  simgpu::Device dev(simgpu::a100());
  BlcoBackend backend(lr.tensor);
  AdmmOptions admm_opt;
  admm_opt.prox = Proximity::non_negative();
  admm_opt.inner_iterations = 10;
  AdmmUpdate update(admm_opt);
  AuntfOptions opt;
  opt.rank = 6;
  opt.max_iterations = 8;
  Auntf driver(dev, backend, update, opt);
  driver.initialize();
  const real_t fit1 = driver.iterate();
  real_t last_fit = fit1;
  for (int i = 0; i < 7; ++i) last_fit = driver.iterate();
  EXPECT_GT(last_fit, fit1 - 1e-6);
  EXPECT_GT(last_fit, 0.9);
  for (const auto& f : driver.factors()) {
    EXPECT_TRUE(Proximity::non_negative().is_feasible(f, 1e-9));
  }
  for (real_t l : driver.lambda()) EXPECT_GE(l, 0.0);
}

TEST(Auntf, FactorColumnsAreNormalizedAfterIterate) {
  const LowRankTensor lr = make_low_rank(2);
  simgpu::Device dev(simgpu::a100());
  BlcoBackend backend(lr.tensor);
  AdmmUpdate update(AdmmOptions{});
  AuntfOptions opt;
  opt.rank = 4;
  Auntf driver(dev, backend, update, opt);
  driver.initialize();
  driver.iterate();
  for (const auto& f : driver.factors()) {
    for (index_t j = 0; j < f.cols(); ++j) {
      const real_t norm = la::nrm2(f.rows(), f.col(j));
      // Unit norm, or an untouched degenerate column.
      EXPECT_TRUE(std::abs(norm - 1.0) < 1e-9 || norm < 1e-9) << "col " << j;
    }
  }
}

TEST(Auntf, PhaseTimersAndModeledPhasesArePopulated) {
  const LowRankTensor lr = make_low_rank(3);
  simgpu::Device dev(simgpu::a100());
  BlcoBackend backend(lr.tensor);
  AdmmUpdate update(AdmmOptions{});
  AuntfOptions opt;
  opt.rank = 4;
  Auntf driver(dev, backend, update, opt);
  driver.initialize();
  driver.iterate();
  for (const char* phase :
       {phase::kGram, phase::kMttkrp, phase::kUpdate, phase::kNormalize}) {
    EXPECT_GT(driver.phases().total(phase), 0.0) << phase;
    ASSERT_TRUE(driver.modeled_phase_seconds().count(phase)) << phase;
    EXPECT_GT(driver.modeled_phase_seconds().at(phase), 0.0) << phase;
  }
}

TEST(Auntf, RunStopsOnFitTolerance) {
  const LowRankTensor lr = make_low_rank(4);
  simgpu::Device dev(simgpu::a100());
  BlcoBackend backend(lr.tensor);
  AdmmUpdate update(AdmmOptions{});
  AuntfOptions opt;
  opt.rank = 4;
  opt.max_iterations = 50;
  opt.fit_tolerance = 1e-3;
  Auntf driver(dev, backend, update, opt);
  const AuntfResult result = driver.run();
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 50);
  EXPECT_EQ(result.fit_history.size(),
            static_cast<std::size_t>(result.iterations));
}

TEST(Auntf, UncomputedFitReturnsNaN) {
  const LowRankTensor lr = make_low_rank(5);
  simgpu::Device dev(simgpu::a100());
  BlcoBackend backend(lr.tensor);
  AdmmUpdate update(AdmmOptions{});
  AuntfOptions opt;
  opt.rank = 4;
  opt.compute_fit = false;
  Auntf driver(dev, backend, update, opt);
  driver.initialize();
  EXPECT_TRUE(std::isnan(driver.iterate()));
}

TEST(Auntf, IterateFlushesSubnormalDuals) {
  // Mode-0 row 0 holds no nonzero, so its MTTKRP row is zero. Seed that row
  // with a zero factor and subnormal duals: under IEEE gradual underflow the
  // ADMM update keeps them subnormal, while iterate() flushes them to zero.
  const LowRankTensor lr = make_low_rank(6);
  SparseTensor tensor(lr.tensor.dims());
  std::vector<index_t> coords(3);
  for (index_t n = 0; n < lr.tensor.nnz(); ++n) {
    if (lr.tensor.indices(0)[static_cast<std::size_t>(n)] == 0) continue;
    for (int m = 0; m < 3; ++m) {
      coords[static_cast<std::size_t>(m)] =
          lr.tensor.indices(m)[static_cast<std::size_t>(n)];
    }
    tensor.append(coords, lr.tensor.values()[static_cast<std::size_t>(n)]);
  }
  simgpu::Device dev(simgpu::a100());
  BlcoBackend backend(tensor);
  AdmmUpdate update(AdmmOptions{});
  AuntfOptions opt;
  opt.rank = 4;
  Auntf driver(dev, backend, update, opt);
  driver.initialize();
  driver.iterate();
  TrainerState state = driver.export_state();
  ASSERT_EQ(state.duals.size(), 3u);
  const real_t tiny = std::numeric_limits<real_t>::min() / 8;
  for (index_t r = 0; r < opt.rank; ++r) {
    state.factors[0](0, r) = 0.0;
    state.duals[0](0, r) = r % 2 == 0 ? tiny : -tiny;
  }
  driver.import_state(state);
  const std::uint32_t mode = fp_mode();
  driver.iterate();
  EXPECT_EQ(fp_mode(), mode);
  const TrainerState after = driver.export_state();
  for (index_t r = 0; r < opt.rank; ++r) {
    EXPECT_EQ(after.duals[0](0, r), 0.0) << "column " << r;
  }
}

TEST(Auntf, PipelineStreamsIsBitIdenticalAndNeverSlowerModeled) {
  // Streams affect only the time model: with pipeline_streams on, every
  // factor matches the serial run exactly, and the gram-lane makespan never
  // exceeds the serial per-kernel sum.
  const LowRankTensor lr = make_low_rank(12);
  AdmmOptions admm_opt;
  admm_opt.inner_iterations = 5;
  AdmmUpdate update(admm_opt);

  auto run_with = [&](bool pipeline, simgpu::Device& dev) {
    AuntfOptions opt;
    opt.rank = 4;
    opt.seed = 31;
    opt.pipeline_streams = pipeline;
    BlcoBackend backend(lr.tensor);
    Auntf driver(dev, backend, update, opt);
    driver.initialize();
    driver.iterate();
    driver.iterate();
    return driver.ktensor();
  };

  simgpu::Device serial_dev(simgpu::a100());
  simgpu::Device piped_dev(simgpu::a100());
  const KTensor serial = run_with(false, serial_dev);
  const KTensor piped = run_with(true, piped_dev);
  for (std::size_t m = 0; m < serial.factors.size(); ++m) {
    EXPECT_DOUBLE_EQ(max_abs_diff(serial.factors[m], piped.factors[m]), 0.0);
  }
  EXPECT_FALSE(serial_dev.timeline().concurrent());
  EXPECT_TRUE(piped_dev.timeline().concurrent());
  EXPECT_LE(piped_dev.modeled_time_s(),
            piped_dev.serial_modeled_time_s() * (1.0 + 1e-9));
}

TEST(Auntf, SameSeedSameResultAcrossBackends) {
  // The driver's math must not depend on the MTTKRP format: BLCO, CSF,
  // ALTO, and COO backends produce the same factorization.
  const LowRankTensor lr = make_low_rank(6);
  AdmmOptions admm_opt;
  admm_opt.inner_iterations = 5;
  AdmmUpdate update(admm_opt);
  AuntfOptions opt;
  opt.rank = 4;
  opt.seed = 99;

  auto run_with = [&](const MttkrpBackend& backend) {
    simgpu::Device dev(simgpu::a100());
    Auntf driver(dev, backend, update, opt);
    driver.initialize();
    driver.iterate();
    driver.iterate();
    return driver.ktensor();
  };

  BlcoBackend blco(lr.tensor);
  CsfBackend csf(lr.tensor);
  AltoBackend alto(lr.tensor);
  CooBackend coo(lr.tensor);
  const KTensor kt_blco = run_with(blco);
  const KTensor kt_csf = run_with(csf);
  const KTensor kt_alto = run_with(alto);
  const KTensor kt_coo = run_with(coo);
  for (int m = 0; m < 3; ++m) {
    EXPECT_LT(max_abs_diff(kt_blco.factors[m], kt_csf.factors[m]), 1e-8);
    EXPECT_LT(max_abs_diff(kt_blco.factors[m], kt_alto.factors[m]), 1e-8);
    EXPECT_LT(max_abs_diff(kt_blco.factors[m], kt_coo.factors[m]), 1e-8);
  }
}

TEST(Auntf, ScatterStrategiesAgreeAcrossEngines) {
  // The scatter strategy changes only the accumulation schedule, never the
  // math: every concrete strategy must factor to (numerically) the same
  // model as the atomic baseline.
  const LowRankTensor lr = make_low_rank(6);
  AdmmOptions admm_opt;
  admm_opt.inner_iterations = 5;
  AdmmUpdate update(admm_opt);
  AuntfOptions opt;
  opt.rank = 4;
  opt.seed = 99;

  auto run_with = [&](ScatterStrategy strategy) {
    ScatterOptions scatter;
    scatter.strategy = strategy;
    simgpu::Device dev(simgpu::a100());
    BlcoBackend backend(lr.tensor, 4096, scatter);
    Auntf driver(dev, backend, update, opt);
    driver.initialize();
    driver.iterate();
    driver.iterate();
    EXPECT_EQ(backend.last_scatter_strategy(), strategy);
    return driver.ktensor();
  };

  const KTensor atomic = run_with(ScatterStrategy::kAtomic);
  const KTensor privatized = run_with(ScatterStrategy::kPrivatized);
  const KTensor sorted = run_with(ScatterStrategy::kSorted);
  for (int m = 0; m < 3; ++m) {
    EXPECT_LT(max_abs_diff(atomic.factors[m], privatized.factors[m]), 1e-8);
    EXPECT_LT(max_abs_diff(atomic.factors[m], sorted.factors[m]), 1e-8);
  }
}

TEST(Framework, DeterministicScatterGivesBitIdenticalRuns) {
  // The end-to-end determinism guarantee: with scatter.deterministic set,
  // two complete factorizations from the same seed agree bit for bit —
  // every factor entry and every lambda.
  const LowRankTensor lr = make_low_rank(9);
  FrameworkOptions options;
  options.rank = 4;
  options.max_iterations = 4;
  options.seed = 5;
  options.fit_tolerance = 0.0;
  options.scatter.deterministic = true;

  auto run_once = [&]() {
    CstfFramework framework(lr.tensor, options);
    framework.run();
    return framework.ktensor();
  };
  const KTensor a = run_once();
  const KTensor b = run_once();
  ASSERT_EQ(a.num_modes(), b.num_modes());
  for (int m = 0; m < a.num_modes(); ++m) {
    EXPECT_DOUBLE_EQ(max_abs_diff(a.factors[m], b.factors[m]), 0.0)
        << "mode " << m;
  }
  EXPECT_EQ(a.lambda, b.lambda);
}

TEST(Framework, BackendResolvesAutoAndCachesSortedPlans) {
  const LowRankTensor lr = make_low_rank(13);
  ScatterOptions scatter;
  scatter.strategy = ScatterStrategy::kSorted;
  BlcoBackend backend(lr.tensor, 4096, scatter);
  CooBackend reference(lr.tensor);
  simgpu::Device dev(simgpu::a100());
  simgpu::Device ref_dev(simgpu::a100());
  Rng rng(8);
  std::vector<Matrix> factors;
  for (int m = 0; m < backend.num_modes(); ++m) {
    factors.emplace_back(backend.dim(m), 4);
    factors.back().fill_uniform(rng, 0.1, 1.0);
  }
  for (int mode = 0; mode < backend.num_modes(); ++mode) {
    Matrix got(backend.dim(mode), 4), want(backend.dim(mode), 4);
    backend.mttkrp(dev, factors, mode, got);
    EXPECT_EQ(backend.last_scatter_strategy(), ScatterStrategy::kSorted);
    reference.mttkrp(ref_dev, factors, mode, want);
    EXPECT_LT(max_abs_diff(got, want), 1e-10) << "mode " << mode;
    // Second call reuses the cached plan and must agree exactly.
    Matrix again(backend.dim(mode), 4);
    backend.mttkrp(dev, factors, mode, again);
    EXPECT_DOUBLE_EQ(max_abs_diff(got, again), 0.0) << "mode " << mode;
  }
}

TEST(Framework, UnequalModeSizesKeepMttkrpWorkspaceExact) {
  // Regression for the shared m_out workspace: with mode sizes that are not
  // monotonically ordered, the per-mode resize/validate must hand every
  // update an exactly dim(n) x R MTTKRP result — a workspace sized for the
  // largest mode and merely reused would expose stale trailing rows.
  LowRankTensorParams params;
  params.dims = {31, 7, 23, 5};  // large, small, large, small
  params.rank = 3;
  params.target_nnz = 31 * 7 * 23 * 5;
  params.noise = 0.01;
  params.seed = 77;
  const LowRankTensor lr = generate_low_rank(params);

  FrameworkOptions options;
  options.rank = 3;
  options.max_iterations = 3;
  options.scatter.deterministic = true;

  CstfFramework framework(lr.tensor, options);
  framework.run();
  const KTensor model = framework.ktensor();
  for (int m = 0; m < model.num_modes(); ++m) {
    EXPECT_EQ(model.factors[m].rows(), lr.tensor.dim(m));
    for (index_t j = 0; j < model.factors[m].cols(); ++j) {
      for (index_t i = 0; i < model.factors[m].rows(); ++i) {
        EXPECT_TRUE(std::isfinite(model.factors[m](i, j)));
      }
    }
  }
}

TEST(Auntf, PerModeMixedConstraints) {
  // Non-negativity on modes 0-1, a probability simplex on mode 2 — the
  // topic-model-style mixed-constraint configuration.
  const LowRankTensor lr = make_low_rank(21);
  simgpu::Device dev(simgpu::a100());
  BlcoBackend backend(lr.tensor);
  AdmmOptions nn_opt;
  nn_opt.prox = Proximity::non_negative();
  AdmmUpdate nonneg(nn_opt);
  AdmmOptions sx_opt;
  sx_opt.prox = Proximity::simplex();
  sx_opt.inner_iterations = 30;
  AdmmUpdate simplex(sx_opt);
  AuntfOptions opt;
  opt.rank = 4;
  opt.max_iterations = 8;
  Auntf driver(dev, backend, {&nonneg, &nonneg, &simplex}, opt);
  driver.initialize();
  for (int i = 0; i < 8; ++i) driver.iterate();

  EXPECT_TRUE(Proximity::non_negative().is_feasible(driver.factors()[0], 1e-9));
  EXPECT_TRUE(Proximity::non_negative().is_feasible(driver.factors()[1], 1e-9));
  // The simplex-constrained factor sums to 1 per column *before*
  // normalization rescales it; after the driver's 2-norm normalization the
  // columns are unit-norm but still non-negative with uniform sign.
  const Matrix& f2 = driver.factors()[2];
  EXPECT_TRUE(Proximity::non_negative().is_feasible(f2, 1e-9));
}

TEST(Auntf, PerModeCountMismatchThrows) {
  const LowRankTensor lr = make_low_rank(22);
  simgpu::Device dev(simgpu::a100());
  BlcoBackend backend(lr.tensor);
  AdmmUpdate update(AdmmOptions{});
  AuntfOptions opt;
  opt.rank = 2;
  EXPECT_THROW(Auntf(dev, backend, {&update, &update}, opt), Error);
}

class FrameworkSchemes : public ::testing::TestWithParam<UpdateScheme> {};

TEST_P(FrameworkSchemes, RunsAndRecoversSignal) {
  const LowRankTensor lr = make_low_rank(7);
  FrameworkOptions opt;
  opt.rank = 6;
  opt.max_iterations = 10;
  opt.scheme = GetParam();
  CstfFramework framework(lr.tensor, opt);
  const AuntfResult result = framework.run();
  EXPECT_EQ(result.iterations, 10);
  // MU makes slow per-sweep progress; the others should essentially recover
  // the planted model (1% noise) on fully observed data.
  EXPECT_GT(result.final_fit, GetParam() == UpdateScheme::kMu ? 0.3 : 0.85);
  if (GetParam() != UpdateScheme::kAls) {
    for (const auto& f : framework.ktensor().factors) {
      EXPECT_TRUE(Proximity::non_negative().is_feasible(f, 1e-9));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, FrameworkSchemes,
    ::testing::Values(UpdateScheme::kCuAdmm, UpdateScheme::kAdmm,
                      UpdateScheme::kMu, UpdateScheme::kHals,
                      UpdateScheme::kAls, UpdateScheme::kBpp),
    [](const auto& name_info) {
      switch (name_info.param) {
        case UpdateScheme::kCuAdmm: return "cuADMM";
        case UpdateScheme::kAdmm: return "ADMM";
        case UpdateScheme::kMu: return "MU";
        case UpdateScheme::kHals: return "HALS";
        case UpdateScheme::kAls: return "ALS";
        case UpdateScheme::kBpp: return "BPP";
      }
      return "unknown";
    });

TEST(Framework, CuAdmmAndGenericAdmmAgree) {
  const LowRankTensor lr = make_low_rank(8);
  FrameworkOptions a;
  a.rank = 4;
  a.max_iterations = 3;
  a.scheme = UpdateScheme::kCuAdmm;
  FrameworkOptions b = a;
  b.scheme = UpdateScheme::kAdmm;
  CstfFramework fa(lr.tensor, a), fb(lr.tensor, b);
  fa.run();
  fb.run();
  const KTensor ka = fa.ktensor(), kb = fb.ktensor();
  for (int m = 0; m < 3; ++m) {
    EXPECT_LT(max_abs_diff(ka.factors[m], kb.factors[m]), 1e-8);
  }
}

TEST(Framework, L1ConstraintYieldsSparserFactors) {
  const LowRankTensor lr = make_low_rank(9);
  FrameworkOptions plain;
  plain.rank = 6;
  plain.max_iterations = 6;
  plain.prox = Proximity::non_negative();
  FrameworkOptions sparse = plain;
  sparse.prox = Proximity::l1_non_negative(0.3);
  CstfFramework f_plain(lr.tensor, plain), f_sparse(lr.tensor, sparse);
  f_plain.run();
  f_sparse.run();
  auto zero_fraction = [](const KTensor& kt) {
    index_t zeros = 0, total = 0;
    for (const auto& f : kt.factors) {
      for (index_t i = 0; i < f.size(); ++i) zeros += (f.data()[i] == 0.0);
      total += f.size();
    }
    return static_cast<double>(zeros) / static_cast<double>(total);
  };
  EXPECT_GT(zero_fraction(f_sparse.ktensor()), zero_fraction(f_plain.ktensor()));
}

TEST(Baselines, SplattMatchesGpuFrameworkFit) {
  const LowRankTensor lr = make_low_rank(10);
  SplattOptions sopt;
  sopt.rank = 5;
  sopt.max_iterations = 6;
  SplattCpu splatt(lr.tensor, sopt);
  const AuntfResult splatt_result = splatt.run();

  FrameworkOptions gopt;
  gopt.rank = 5;
  gopt.max_iterations = 6;
  CstfFramework gpu(lr.tensor, gopt);
  const AuntfResult gpu_result = gpu.run();

  // Same algorithm family on the same data: fits land close together.
  EXPECT_NEAR(splatt_result.final_fit, gpu_result.final_fit, 0.05);
  EXPECT_GT(splatt_result.final_fit, 0.8);
}

TEST(Baselines, SplattModeledOnXeonIsSlowerThanGpuModel) {
  // The core claim of Figures 5-6, at test scale: for the same per-iteration
  // work, modeled Xeon time exceeds modeled A100 time.
  DatasetAnalog analog = make_analog(dataset_by_name("NELL2"), 20000);
  SplattOptions sopt;
  sopt.rank = 32;
  sopt.max_iterations = 1;
  sopt.compute_fit = false;
  SplattCpu splatt(analog.tensor, sopt);
  splatt.driver().initialize();
  splatt.driver().iterate();

  FrameworkOptions gopt;
  gopt.rank = 32;
  gopt.max_iterations = 1;
  gopt.compute_fit = false;
  CstfFramework gpu(analog.tensor, gopt);
  gpu.driver().initialize();
  gpu.driver().iterate();

  // At analog scale the GPU's kernel-launch overhead dominates (the paper's
  // small-tensor effect, cf. NIPS in Figure 5); scale the metered record to
  // full NELL2 size before modeling, as the benches do.
  const double scale = analog.nnz_scale();
  EXPECT_GT(perfmodel::modeled_time_scaled(splatt.device(), scale),
            perfmodel::modeled_time_scaled(gpu.device(), scale));
}

TEST(Baselines, PlancSparseSupportsMuAndHals) {
  const LowRankTensor lr = make_low_rank(11);
  for (UpdateScheme scheme : {UpdateScheme::kMu, UpdateScheme::kHals}) {
    PlancOptions opt;
    // Slightly over-parameterized rank: exact-rank NTF is prone to local
    // minima; the planted model is rank 4.
    opt.rank = 6;
    opt.max_iterations = 20;
    opt.scheme = scheme;
    PlancSparseCpu planc(lr.tensor, opt);
    const AuntfResult result = planc.run();
    EXPECT_GT(result.final_fit, scheme == UpdateScheme::kMu ? 0.3 : 0.8);
  }
}

TEST(Baselines, PlancDenseUpdateDominatedBySparseNotDense) {
  // Figure 1's contrast: on a dense tensor MTTKRP dominates; on a sparse
  // tensor of comparable factor size the UPDATE phase dominates. The dense
  // side uses MU: at this toy scale ADMM's fixed per-inner-iteration sync
  // cost would mask the size-driven effect the test probes (the scaled Fig-1
  // bench shows the ADMM version).
  PlancOptions opt;
  opt.rank = 8;
  opt.max_iterations = 1;
  opt.compute_fit = false;

  // Dense 40x30x20x15 tensor.
  PlancOptions dense_opt = opt;
  dense_opt.scheme = UpdateScheme::kMu;
  std::vector<index_t> dims{40, 30, 20, 15};
  Rng rng(12);
  DenseTensor dense(dims);
  for (index_t i = 0; i < dense.num_elements(); ++i) {
    dense.data()[i] = rng.uniform();
  }
  PlancDenseCpu planc_dense(std::move(dense), dense_opt);
  planc_dense.driver().initialize();
  planc_dense.driver().iterate();
  const auto& dense_phases = planc_dense.driver().modeled_phase_seconds();

  // Sparse tensor with long modes and few nonzeros.
  RandomTensorParams sparse_params;
  sparse_params.dims = {4000, 3000, 2000};
  sparse_params.target_nnz = 5000;
  sparse_params.seed = 13;
  const SparseTensor sparse = generate_random(sparse_params);
  PlancSparseCpu planc_sparse(sparse, opt);
  planc_sparse.driver().initialize();
  planc_sparse.driver().iterate();
  const auto& sparse_phases = planc_sparse.driver().modeled_phase_seconds();

  EXPECT_GT(dense_phases.at(phase::kMttkrp), dense_phases.at(phase::kUpdate));
  EXPECT_GT(sparse_phases.at(phase::kUpdate), sparse_phases.at(phase::kMttkrp));
}

}  // namespace
}  // namespace cstf
