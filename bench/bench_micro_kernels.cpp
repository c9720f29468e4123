// Google-benchmark micro-benchmarks: host wall-clock of the individual
// kernels (dense BLAS, Cholesky machinery, the four MTTKRP formats, and the
// ADMM variants). These measure this machine, not the modeled devices — use
// them for regression tracking of the real implementations.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

#include "formats/alto.hpp"
#include "formats/blco.hpp"
#include "formats/csf.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "mttkrp/alto_mttkrp.hpp"
#include "mttkrp/blco_mttkrp.hpp"
#include "mttkrp/coo_mttkrp.hpp"
#include "mttkrp/csf_mttkrp.hpp"
#include "tensor/datasets.hpp"
#include "tensor/generate.hpp"
#include "updates/admm.hpp"
#include "updates/hals.hpp"
#include "updates/mu.hpp"

namespace cstf {
namespace {

Matrix random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.fill_uniform(rng, 0.0, 1.0);
  return m;
}

SparseTensor bench_tensor() {
  RandomTensorParams p;
  p.dims = {2000, 1500, 1000};
  p.target_nnz = 50000;
  p.seed = 3;
  static SparseTensor t = generate_random(p);
  return t;
}

// The cuADMM GEMM shape, I x R times R x R; reports FLOP/s at 2*I*R^2 flops
// per call, the host kernel floor of the UPDATE phase.
void BM_GemmTallSkinny(benchmark::State& state) {
  const index_t rows = state.range(0), rank = state.range(1);
  const Matrix a = random_matrix(rows, rank, 1);
  const Matrix b = random_matrix(rank, rank, 2);
  Matrix c(rows, rank);
  for (auto _ : state) {
    la::gemm(la::Op::kNone, la::Op::kNone, 1.0, a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["FLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(rows * rank * rank),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmTallSkinny)
    ->ArgsProduct({{1 << 12, 1 << 15}, {16, 32, 64}})
    ->ArgNames({"rows", "R"})
    ->UseRealTime();  // gemm runs on every pool worker

// The Gram of a factor, I x R -> R x R, at the NELL1 analog's mode lengths
// of 2194 and 26636 rows; reports FLOP/s at I*R*(R+1) flops per call (a
// multiply and an add per element of the upper triangle).
void BM_Gram(benchmark::State& state) {
  const index_t rows = state.range(0), rank = state.range(1);
  const Matrix a = random_matrix(rows, rank, 3);
  Matrix s(rank, rank);
  for (auto _ : state) {
    la::gram(a, s);
    benchmark::DoNotOptimize(s.data());
    benchmark::ClobberMemory();
  }
  state.counters["FLOP/s"] = benchmark::Counter(
      static_cast<double>(rows * rank * (rank + 1)),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Gram)
    ->ArgsProduct({{2194, 26636}, {16, 32, 64}})
    ->ArgNames({"rows", "R"})
    ->UseRealTime();  // gram runs on every pool worker

void BM_CholeskyFactor(benchmark::State& state) {
  const index_t rank = state.range(0);
  Matrix g = random_matrix(2 * rank, rank, 4);
  Matrix s(rank, rank), l;
  la::gram(g, s);
  la::add_diagonal(s, 1.0);
  for (auto _ : state) {
    la::cholesky_factor(s, l);
    benchmark::DoNotOptimize(l.data());
  }
}
BENCHMARK(BM_CholeskyFactor)->Arg(16)->Arg(32)->Arg(64);

void BM_CholeskySolveRight(benchmark::State& state) {
  const index_t rows = state.range(0), rank = 32;
  Matrix g = random_matrix(2 * rank, rank, 5);
  Matrix s(rank, rank), l;
  la::gram(g, s);
  la::add_diagonal(s, 1.0);
  la::cholesky_factor(s, l);
  Matrix b = random_matrix(rows, rank, 6);
  for (auto _ : state) {
    Matrix x = b;
    la::cholesky_solve_right(l, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_CholeskySolveRight)->Arg(1 << 12);

template <typename BuildAndRun>
void mttkrp_bench(benchmark::State& state, BuildAndRun&& run) {
  const SparseTensor t = bench_tensor();
  std::vector<Matrix> factors;
  for (int m = 0; m < t.num_modes(); ++m) {
    factors.push_back(random_matrix(t.dim(m), 32, 100 + m));
  }
  Matrix out(t.dim(0), 32);
  for (auto _ : state) {
    run(t, factors, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * t.nnz());
}

void BM_MttkrpCoo(benchmark::State& state) {
  mttkrp_bench(state, [](const SparseTensor& t,
                         const std::vector<Matrix>& factors, Matrix& out) {
    mttkrp_coo(t, factors, 0, out);
  });
}
BENCHMARK(BM_MttkrpCoo);

void BM_MttkrpCsf(benchmark::State& state) {
  const SparseTensor t = bench_tensor();
  const CsfTensor csf(t, 0);
  std::vector<Matrix> factors;
  for (int m = 0; m < t.num_modes(); ++m) {
    factors.push_back(random_matrix(t.dim(m), 32, 100 + m));
  }
  Matrix out(t.dim(0), 32);
  for (auto _ : state) {
    mttkrp_csf(csf, factors, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * t.nnz());
}
BENCHMARK(BM_MttkrpCsf);

void BM_MttkrpAlto(benchmark::State& state) {
  const SparseTensor t = bench_tensor();
  const AltoTensor alto(t);
  std::vector<Matrix> factors;
  for (int m = 0; m < t.num_modes(); ++m) {
    factors.push_back(random_matrix(t.dim(m), 32, 100 + m));
  }
  Matrix out(t.dim(0), 32);
  for (auto _ : state) {
    mttkrp_alto(alto, factors, 0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * t.nnz());
}
BENCHMARK(BM_MttkrpAlto);

// BLCO MTTKRP over every mode of the repo benchmark's two training inputs,
// R = 32, per scatter strategy: input 0 is the train-mttkrp tensor (a 4-way
// Uber analog, 1M nonzeros), input 1 the train-update tensor (a 3-way NELL1
// analog, 150k nonzeros). The sorted plans are built once, outside the timed
// loop, as the backends cache them. items/s counts nonzeros times modes.
const BlcoTensor& blco_bench_input(int input) {
  static const DatasetAnalog uber =
      make_analog(dataset_by_name("Uber"), 1000000);
  static const DatasetAnalog nell1 =
      make_analog(dataset_by_name("NELL1"), 150000);
  static const BlcoTensor uber_blco(uber.tensor, 4096);
  static const BlcoTensor nell1_blco(nell1.tensor, 4096);
  return input == 0 ? uber_blco : nell1_blco;
}

void BM_MttkrpBlco(benchmark::State& state) {
  const BlcoTensor& blco = blco_bench_input(static_cast<int>(state.range(0)));
  const auto strategy = static_cast<ScatterStrategy>(state.range(1));
  ScatterOptions opts;
  opts.strategy = strategy;
  std::vector<Matrix> factors, outs;
  std::vector<ScatterPlan> plans;
  for (int m = 0; m < blco.num_modes(); ++m) {
    const index_t dim = blco.dims()[static_cast<std::size_t>(m)];
    factors.push_back(random_matrix(dim, 32, 100 + m));
    outs.emplace_back(dim, 32);
    if (strategy == ScatterStrategy::kSorted) {
      plans.push_back(blco_scatter_plan(blco, m));
    }
  }
  simgpu::Device dev(simgpu::a100());
  for (auto _ : state) {
    for (int m = 0; m < blco.num_modes(); ++m) {
      mttkrp_blco(dev, blco, factors, m, outs[static_cast<std::size_t>(m)],
                  opts,
                  plans.empty() ? nullptr
                                : &plans[static_cast<std::size_t>(m)]);
      benchmark::DoNotOptimize(outs[static_cast<std::size_t>(m)].data());
    }
    benchmark::ClobberMemory();
  }
  state.SetLabel(scatter_strategy_name(strategy));
  state.SetItemsProcessed(state.iterations() * blco.nnz() * blco.num_modes());
}
BENCHMARK(BM_MttkrpBlco)
    ->ArgsProduct({{0, 1},
                   {static_cast<int>(ScatterStrategy::kAtomic),
                    static_cast<int>(ScatterStrategy::kPrivatized),
                    static_cast<int>(ScatterStrategy::kSorted)}})
    ->ArgNames({"input", "strategy"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void admm_bench(benchmark::State& state, bool fusion, bool preinversion,
                index_t rows = 1 << 14) {
  const index_t rank = 32;
  Matrix g = random_matrix(2 * rank, rank, 7);
  Matrix s(rank, rank);
  la::gram(g, s);
  const Matrix m = random_matrix(rows, rank, 8);
  Matrix h = random_matrix(rows, rank, 9);
  AdmmOptions opt;
  opt.inner_iterations = 10;
  opt.operation_fusion = fusion;
  opt.preinversion = preinversion;
  AdmmUpdate admm(opt);
  simgpu::Device dev(simgpu::a100());
  ModeState st;
  for (auto _ : state) {
    admm.update(dev, s, m, h, st);
    benchmark::DoNotOptimize(h.data());
    benchmark::ClobberMemory();
  }
}

void BM_AdmmBaseline(benchmark::State& state) { admm_bench(state, false, false); }
void BM_AdmmFused(benchmark::State& state) { admm_bench(state, true, false); }
void BM_AdmmPreinverted(benchmark::State& state) { admm_bench(state, false, true); }
void BM_CuAdmm(benchmark::State& state) {
  admm_bench(state, true, true, state.range(0));
}
BENCHMARK(BM_AdmmBaseline);
BENCHMARK(BM_AdmmFused);
BENCHMARK(BM_AdmmPreinverted);
// 26636 rows: the NELL1 analog's third mode.
BENCHMARK(BM_CuAdmm)->ArgName("rows")->Arg(1 << 14)->Arg(26636);

// The serve fold-in solve: cuADMM on a batch of B rows against a Gram
// factored once (update_with_gram), from a cold start per solve.
void BM_CuAdmmFoldIn(benchmark::State& state) {
  const index_t batch = state.range(0), rank = 32;
  Matrix g = random_matrix(2 * rank, rank, 7);
  Matrix s(rank, rank);
  la::gram(g, s);
  const AdmmGram gram = prepare_admm_gram(s, /*preinvert=*/true);
  const Matrix m = random_matrix(batch, rank, 8);
  const AdmmUpdate admm(AdmmOptions{});
  simgpu::Device dev(simgpu::a100());
  Matrix h(batch, rank);
  for (auto _ : state) {
    h.set_all(0.0);
    ModeState st;
    admm.update_with_gram(dev, gram, m, h, st);
    benchmark::DoNotOptimize(h.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CuAdmmFoldIn)
    ->ArgName("batch")
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_MuUpdate(benchmark::State& state) {
  const index_t rows = 1 << 14, rank = 32;
  Matrix g = random_matrix(2 * rank, rank, 10);
  Matrix s(rank, rank);
  la::gram(g, s);
  const Matrix m = random_matrix(rows, rank, 11);
  Matrix h = random_matrix(rows, rank, 12);
  MuUpdate mu;
  simgpu::Device dev(simgpu::a100());
  ModeState st;
  for (auto _ : state) {
    mu.update(dev, s, m, h, st);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_MuUpdate);

void BM_HalsUpdate(benchmark::State& state) {
  const index_t rows = 1 << 14, rank = 32;
  Matrix g = random_matrix(2 * rank, rank, 13);
  Matrix s(rank, rank);
  la::gram(g, s);
  const Matrix m = random_matrix(rows, rank, 14);
  Matrix h = random_matrix(rows, rank, 15);
  HalsUpdate hals;
  simgpu::Device dev(simgpu::a100());
  ModeState st;
  for (auto _ : state) {
    hals.update(dev, s, m, h, st);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_HalsUpdate);

}  // namespace
}  // namespace cstf

// Expanded BENCHMARK_MAIN() so the bench participates in JSON telemetry
// discovery (the session records no modeled iterations; it still emits an
// empty, schema-valid BENCH_micro_kernels.json for run_benches.sh).
int main(int argc, char** argv) {
  cstf::bench::JsonSession session("micro_kernels");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
