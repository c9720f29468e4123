// Reproduces Figures 5 and 6: end-to-end per-iteration speedup of the GPU
// cSTF framework (BLCO + cuADMM) over SPLATT (CSF + blocked AO-ADMM on the
// 26-core Xeon), rank 32, across the 10 Table-2 tensors plus the geometric
// mean. Compiled twice: bench_fig5_e2e_a100 and bench_fig6_e2e_h100.
//
// Expected shape: every speedup >= ~1x; larger for long-mode tensors
// (Flickr/Delicious/NELL1/Amazon); small tensors (NIPS/Uber/Chicago) see the
// least benefit; H100 >= A100; geomean ~5-7x.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/error.hpp"

int main() {
#ifdef CSTF_BENCH_H100
  cstf::bench::JsonSession session("fig6_e2e_h100");
#else
  cstf::bench::JsonSession session("fig5_e2e_a100");
#endif
  using namespace cstf;
#ifdef CSTF_BENCH_H100
  const auto spec = simgpu::h100();
  const char* fig = "Figure 6";
#else
  const auto spec = simgpu::a100();
  const char* fig = "Figure 5";
#endif
  const index_t rank = 32;
  std::printf("=== %s: end-to-end per-iteration speedup vs SPLATT (%s model, R=%lld) ===\n\n",
              fig, spec.name.c_str(), static_cast<long long>(rank));
  std::printf("%-12s %14s %14s %10s %14s %10s %14s %8s\n", "Tensor",
              "SPLATT [s]", (spec.name + " [s]").c_str(), "Speedup",
              "GPU ovl [s]", "ovl Spdup", "plan ovl [s]", "parity");

  std::vector<double> speedups;
  std::vector<double> ovl_speedups;
  for (const auto& name : bench::dataset_names()) {
    const DatasetAnalog data = bench::load_dataset(name);
    const auto cpu = bench::splatt_iteration(data, rank);
    std::vector<bench::ModeledIteration> per_mode;
    const auto gpu = bench::gpu_iteration(data, spec, UpdateScheme::kCuAdmm,
                                          rank, &per_mode);
    const double ovl = bench::overlapped_total(per_mode, spec);
    // Parity gate: the compiled fixed-pipeline plan must reproduce the
    // legacy hand-rolled overlap timeline exactly.
    const double plan_ovl = bench::planner_overlapped_total(per_mode, spec);
    CSTF_CHECK_MSG(std::abs(plan_ovl - ovl) <= 1e-12 * std::abs(ovl),
                   "planner overlap makespan " << plan_ovl
                   << " != legacy overlap makespan " << ovl << " on " << name);
    const double speedup = cpu.total() / gpu.total();
    speedups.push_back(speedup);
    ovl_speedups.push_back(cpu.total() / ovl);
    std::printf("%-12s %14.5f %14.5f %9.2fx %14.5f %9.2fx %14.5f %7.4fx\n",
                name.c_str(), cpu.total(), gpu.total(), speedup, ovl,
                ovl_speedups.back(), plan_ovl, plan_ovl / ovl);
    if (session.enabled()) {
      session.annotate_last("legacy_overlap_s", ovl);
      session.annotate_last("planner_overlap_s", plan_ovl);
    }
  }
  std::printf("%-12s %14s %14s %9.2fx %14s %9.2fx\n", "GeoMean", "", "",
              bench::geomean(speedups), "", bench::geomean(ovl_speedups));

  std::printf(
      "\nPaper reference: geomean 5.10x (max 41.59x) on A100; 7.01x\n"
      "(max 58.05x) on H100. Shape to verify: long-mode tensors gain most;\n"
      "small tensors least. \"GPU ovl\" pipelines each mode's Gram work\n"
      "against its MTTKRP on a second stream — a small, free win on top.\n"
      "\"plan ovl\" is the same schedule compiled by exec::Planner and run\n"
      "by exec::Executor; \"parity\" (plan/legacy) must be 1.0000 — the\n"
      "bench aborts otherwise.\n");
  return 0;
}
