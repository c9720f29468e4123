// Section 5.1 rank sweep: the paper evaluates ranks {16, 32, 64}; this bench
// reports the end-to-end GPU-vs-SPLATT speedup at each rank for a small,
// a medium, and two large tensors, on both GPU models.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  cstf::bench::JsonSession session("rank_sweep");
  using namespace cstf;
  std::printf("=== Rank sweep {16, 32, 64}: end-to-end speedup vs SPLATT ===\n\n");
  std::printf("%-12s %-8s %10s %10s\n", "Tensor", "Rank", "A100", "H100");
  for (const char* name : {"NIPS", "NELL2", "Delicious", "Amazon"}) {
    const DatasetAnalog data = bench::load_dataset(name);
    for (index_t rank : {16, 32, 64}) {
      const auto cpu = bench::splatt_iteration(data, rank);
      const auto a100 = bench::gpu_iteration(data, simgpu::a100(),
                                             UpdateScheme::kCuAdmm, rank);
      const auto h100 = bench::gpu_iteration(data, simgpu::h100(),
                                             UpdateScheme::kCuAdmm, rank);
      std::printf("%-12s %-8lld %9.2fx %9.2fx\n", name,
                  static_cast<long long>(rank), cpu.total() / a100.total(),
                  cpu.total() / h100.total());
    }
  }
  std::printf(
      "\nShape to verify: speedups persist across ranks; higher rank raises\n"
      "arithmetic intensity (Eq. 5), helping the bandwidth-rich GPUs.\n");
  return 0;
}
