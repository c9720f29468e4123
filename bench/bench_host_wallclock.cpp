// Measured host wall-clock per phase — the only numbers in this repository
// that time *this machine* rather than the modeled targets. Useful for
// regression tracking of the real implementations and for sanity-checking
// that the modeled phase *ratios* are not artifacts: the host is a CPU, so
// its measured breakdown should resemble the modeled Xeon shape (UPDATE
// heavy for ADMM on long-mode tensors), not the GPU shape.
//
// The second section times the adaptive scatter engine (mttkrp/scatter.hpp)
// head-to-head on two synthetic fixtures chosen to separate the strategies:
//   scatter_short — mode length 1024 (<= 4096), rank 32: heavy contention,
//                   the privatized strategy's home turf;
//   scatter_long  — mode length 2^18: ~1 update/row, where atomics rarely
//                   collide and sorted should stay within ~1.1x of atomic.
// Each (fixture, strategy) wall time is the best of N repeats and is checked
// against mttkrp_ref before being trusted.
//
// The third section pits the autotuner against the cost model (DESIGN.md
// §14): run_tuning_trials picks a configuration for a 3-way fixture, and one
// full AO iteration's MTTKRPs are timed under the tuned and the model-picked
// configurations head to head.
//
// `--smoke` runs only the gated sections and exits nonzero when any gate
// fails: privatized must beat atomic on the short-mode scatter fixture, and
// the tuned configuration must not lose to the model-picked one by more
// than 5% — the perf regression gates scripts/check.sh runs
// (CSTF_CHECK_SKIP_PERF=1 skips them there).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_util.hpp"
#include "mttkrp/coo_mttkrp.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/generate.hpp"

namespace {

using namespace cstf;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic factor fill (cheap hash; no RNG state to thread through).
void fill_factor(Matrix& m, index_t mode) {
  for (index_t j = 0; j < m.cols(); ++j) {
    for (index_t i = 0; i < m.rows(); ++i) {
      const auto h = static_cast<std::uint64_t>(i) * 1315423911u +
                     static_cast<std::uint64_t>(j) * 2654435761u +
                     static_cast<std::uint64_t>(mode) * 97u;
      m(i, j) = 0.25 + static_cast<real_t>(h % 1000u) * 1e-3;
    }
  }
}

struct ScatterTimes {
  double atomic = 0.0;      // best-of-N wall seconds per strategy
  double privatized = 0.0;
  double sorted = 0.0;
};

/// Times the three concrete strategies on mode 0 of `x`. The sorted plan is
/// prebuilt and untimed (it is built once per tensor and amortized over the
/// factorization's iterations). Aborts via CSTF_CHECK if any strategy
/// disagrees with the sequential reference.
ScatterTimes time_scatter_strategies(const SparseTensor& x, index_t rank,
                                     int repeats) {
  std::vector<Matrix> factors;
  for (int m = 0; m < x.num_modes(); ++m) {
    factors.emplace_back(x.dim(m), rank);
    fill_factor(factors.back(), m);
  }
  Matrix ref(x.dim(0), rank);
  mttkrp_ref(x, factors, 0, ref);
  const ScatterPlan plan = coo_scatter_plan(x, 0);

  auto best_of = [&](ScatterStrategy strategy) {
    ScatterOptions opts;
    opts.strategy = strategy;
    Matrix out(x.dim(0), rank);
    double best = 1e30;
    for (int rep = 0; rep < repeats; ++rep) {
      const double t0 = now_s();
      mttkrp_coo(x, factors, 0, out, opts, &plan);
      best = std::min(best, now_s() - t0);
    }
    CSTF_CHECK_MSG(max_abs_diff(ref, out) <= 1e-6 * static_cast<real_t>(rank),
                   "scatter strategy "
                       << scatter_strategy_name(strategy)
                       << " disagrees with mttkrp_ref on the bench fixture");
    return best;
  };

  ScatterTimes t;
  t.atomic = best_of(ScatterStrategy::kAtomic);
  t.privatized = best_of(ScatterStrategy::kPrivatized);
  t.sorted = best_of(ScatterStrategy::kSorted);
  return t;
}

/// Emits one JSON record for a scatter fixture: the wall times live in the
/// kernel rows (one per strategy); the phase block carries the atomic
/// baseline as MTTKRP wall time and zero modeled time (nothing here is
/// modeled — these are host measurements).
void record_scatter_fixture(const std::string& dataset, index_t rank,
                            double nnz, const ScatterTimes& t) {
  bench::JsonSession* session = bench::JsonSession::current();
  if (session == nullptr) return;
  bench::BenchRecord rec;
  rec.dataset = dataset;
  rec.machine = "host";
  rec.rank = rank;
  rec.wall.mttkrp = t.atomic;
  const double flops = nnz * static_cast<double>(rank) * 4.0;
  const auto row = [&](const char* name, double wall_s) {
    bench::BenchKernelRow r;
    r.name = name;
    r.spans = 1;
    r.launches = 1;
    r.flops = flops;
    r.wall_s = wall_s;
    return r;
  };
  rec.kernels.push_back(row("scatter_atomic", t.atomic));
  rec.kernels.push_back(row("scatter_privatized", t.privatized));
  rec.kernels.push_back(row("scatter_sorted", t.sorted));
  session->add_record(std::move(rec));
}

/// Runs the scatter fixtures; returns false when the smoke gate fails
/// (privatized slower than atomic on the short-mode fixture).
bool run_scatter_section(int repeats) {
  const index_t rank = 32;
  std::printf(
      "\n=== Scatter-engine wall time, best of %d (mode 0, R=%lld) ===\n\n",
      repeats, static_cast<long long>(rank));
  std::printf("%-14s %10s %10s %12s %12s %12s %12s\n", "Fixture", "mode_len",
              "nnz", "atomic[ms]", "priv[ms]", "sorted[ms]", "priv/atomic");

  bool ok = true;
  ScatterTimes short_t, long_t;
  {
    RandomTensorParams p;
    p.dims = {1024, 4096, 4096};
    p.target_nnz = 200000;
    p.seed = 7;
    const SparseTensor x = generate_random(p);
    short_t = time_scatter_strategies(x, rank, repeats);
    std::printf("%-14s %10lld %10lld %12.3f %12.3f %12.3f %12.3f\n",
                "scatter_short", static_cast<long long>(x.dim(0)),
                static_cast<long long>(x.nnz()), short_t.atomic * 1e3,
                short_t.privatized * 1e3, short_t.sorted * 1e3,
                short_t.privatized / short_t.atomic);
    record_scatter_fixture("scatter_short", rank,
                           static_cast<double>(x.nnz()), short_t);
    ok = short_t.privatized <= short_t.atomic;
  }
  {
    RandomTensorParams p;
    p.dims = {index_t{1} << 18, 4096, 4096};
    p.target_nnz = 200000;
    p.seed = 11;
    const SparseTensor x = generate_random(p);
    long_t = time_scatter_strategies(x, rank, repeats);
    std::printf("%-14s %10lld %10lld %12.3f %12.3f %12.3f %12.3f\n",
                "scatter_long", static_cast<long long>(x.dim(0)),
                static_cast<long long>(x.nnz()), long_t.atomic * 1e3,
                long_t.privatized * 1e3, long_t.sorted * 1e3,
                long_t.privatized / long_t.atomic);
    record_scatter_fixture("scatter_long", rank, static_cast<double>(x.nnz()),
                           long_t);
  }
  std::printf(
      "\nGate: privatized %s atomic on scatter_short (%.3f ms vs %.3f ms)\n",
      ok ? "beats" : "LOSES TO", short_t.privatized * 1e3,
      short_t.atomic * 1e3);
  std::printf("Info: sorted/atomic on scatter_long = %.3f (target <= 1.1)\n",
              long_t.sorted / long_t.atomic);
  return ok;
}

/// Times one AO iteration's MTTKRPs (all modes, best of N) under the cost
/// model's configuration and under the autotuned one. The autotuner defers
/// to the model whenever the measured win is inside its tie-break tolerance,
/// so the tuned configuration losing by more than 5% means the trial harness
/// stopped reflecting the real kernels — that is the gate.
bool run_autotune_section(int repeats) {
  const index_t rank = 32;
  RandomTensorParams p;
  p.dims = {1024, 2048, 4096};
  p.target_nnz = 150000;
  p.seed = 17;
  const SparseTensor x = generate_random(p);

  autotune::TuneInputs in;
  in.tensor = &x;
  in.rank = rank;
  in.spec = simgpu::a100();
  autotune::TuningOptions topts;
  topts.policy = autotune::TuningPolicy::kMeasure;
  const autotune::TuningRecord rec = autotune::run_tuning_trials(in, topts);

  std::vector<Matrix> factors;
  for (int m = 0; m < x.num_modes(); ++m) {
    factors.emplace_back(x.dim(m), rank);
    fill_factor(factors.back(), m);
  }
  std::vector<Matrix> refs;
  for (int m = 0; m < x.num_modes(); ++m) {
    refs.emplace_back(x.dim(m), rank);
    mttkrp_ref(x, factors, m, refs.back());
  }

  auto best_of = [&](const BlcoBackend& backend) {
    simgpu::Device dev(simgpu::a100());
    double best = 1e30;
    for (int rep = 0; rep < repeats; ++rep) {
      double total = 0.0;
      for (int m = 0; m < x.num_modes(); ++m) {
        Matrix out(x.dim(m), rank);
        const double t0 = now_s();
        backend.mttkrp(dev, factors, m, out);
        total += now_s() - t0;
        CSTF_CHECK_MSG(
            max_abs_diff(refs[static_cast<std::size_t>(m)], out) <=
                1e-6 * static_cast<real_t>(rank),
            "tuned mttkrp disagrees with mttkrp_ref on mode " << m);
      }
      best = std::min(best, total);
    }
    return best;
  };

  // Model side: the exact configuration a kModel run would use.
  const BlcoBackend model_backend(x);
  const double model_s = best_of(model_backend);

  // Tuned side: the record's per-mode scatter picks and chunk knob.
  ScatterOptions tuned_scatter;
  tuned_scatter.per_mode = rec.scatter_per_mode;
  const BlcoBackend tuned_backend(x, 4096, tuned_scatter);
  const index_t saved_chunks = parallel_chunks_per_worker();
  if (rec.chunks_per_worker > 0) {
    set_parallel_chunks_per_worker(static_cast<index_t>(rec.chunks_per_worker));
  }
  const double tuned_s = best_of(tuned_backend);
  set_parallel_chunks_per_worker(saved_chunks);

  std::printf(
      "\n=== Autotuned vs model-picked MTTKRP config, best of %d "
      "(3-way %lldx%lldx%lld, %lld nnz, R=%lld) ===\n\n",
      repeats, static_cast<long long>(x.dim(0)),
      static_cast<long long>(x.dim(1)), static_cast<long long>(x.dim(2)),
      static_cast<long long>(x.nnz()), static_cast<long long>(rank));
  std::printf("%-14s %12s %12s %12s\n", "Config", "model[ms]", "tuned[ms]",
              "tuned/model");
  std::printf("%-14s %12.3f %12.3f %12.3f\n", "iteration", model_s * 1e3,
              tuned_s * 1e3, tuned_s / model_s);
  std::printf("tuned: chunks/worker %u, scatter", rec.chunks_per_worker);
  for (ScatterStrategy s : rec.scatter_per_mode) {
    std::printf(" %s", scatter_strategy_name(s));
  }
  std::printf("\n");

  if (bench::JsonSession* session = bench::JsonSession::current()) {
    bench::BenchRecord brec;
    brec.dataset = "autotune_3way";
    brec.machine = "host";
    brec.rank = rank;
    brec.wall.mttkrp = tuned_s;
    brec.extras.emplace_back("mttkrp_model_config_wall_s", model_s);
    brec.extras.emplace_back("mttkrp_tuned_config_wall_s", tuned_s);
    brec.extras.emplace_back("tuned_chunks_per_worker",
                             static_cast<double>(rec.chunks_per_worker));
    session->add_record(std::move(brec));
  }

  const bool ok = tuned_s <= 1.05 * model_s;
  std::printf("\nGate: tuned config %s the model-picked config "
              "(%.3f ms vs %.3f ms, tolerance 5%%)\n",
              ok ? "does not lose to" : "LOSES TO", tuned_s * 1e3,
              model_s * 1e3);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  cstf::bench::JsonSession session("host_wallclock");
  using namespace cstf;

  if (!smoke) {
    const index_t rank = 16;
    std::printf(
        "=== Measured host wall-clock per cSTF iteration (this machine, R=%lld) ===\n\n",
        static_cast<long long>(rank));
    std::printf("%-12s %-8s %10s %10s %10s %10s %10s\n", "Tensor", "Engine",
                "GRAM[ms]", "MTTKRP", "UPDATE", "NORM", "total");

    for (const char* name : {"NIPS", "NELL2", "Delicious"}) {
      const DatasetAnalog data = bench::load_dataset(name);
      std::vector<double> mode_scales(
          static_cast<std::size_t>(data.tensor.num_modes()), 1.0);

      {
        BlcoBackend backend(data.tensor);
        auto update = CstfFramework::make_update(
            UpdateScheme::kCuAdmm, Proximity::non_negative(), 10);
        bench::ModeledIteration wall;
        bench::modeled_iteration(backend, *update, simgpu::a100(), rank,
                                 mode_scales, 1.0, &wall);
        std::printf("%-12s %-8s %10.2f %10.2f %10.2f %10.2f %10.2f\n", name,
                    "blco", wall.gram * 1e3, wall.mttkrp * 1e3,
                    wall.update * 1e3, wall.normalize * 1e3,
                    wall.total() * 1e3);
      }
      {
        CsfBackend backend(data.tensor);
        BlockAdmmOptions opt;
        opt.prox = Proximity::non_negative();
        BlockAdmmUpdate update(opt);
        bench::ModeledIteration wall;
        bench::modeled_iteration(backend, update, simgpu::xeon_8367hc(), rank,
                                 mode_scales, 1.0, &wall);
        std::printf("%-12s %-8s %10.2f %10.2f %10.2f %10.2f %10.2f\n", name,
                    "csf", wall.gram * 1e3, wall.mttkrp * 1e3,
                    wall.update * 1e3, wall.normalize * 1e3,
                    wall.total() * 1e3);
      }
    }
    std::printf(
        "\nWall times are for the scaled analogs on this host (CPU execution\n"
        "regardless of the metering target) — compare trends, not magnitudes.\n");
  }

  const bool scatter_ok = run_scatter_section(smoke ? 7 : 3);
  const bool autotune_ok = run_autotune_section(smoke ? 7 : 3);
  if (smoke && !scatter_ok) {
    std::fprintf(stderr,
                 "bench_host_wallclock --smoke: privatized scatter slower "
                 "than atomic on the short-mode fixture\n");
    return 1;
  }
  if (smoke && !autotune_ok) {
    std::fprintf(stderr,
                 "bench_host_wallclock --smoke: autotuned config more than "
                 "5%% slower than the model-picked config\n");
    return 1;
  }
  return 0;
}
