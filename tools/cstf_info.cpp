// cstf_info — inspect a sparse tensor and report the statistics that drive
// cSTF performance (the quantities the paper's analysis reasons about).
//
//   cstf_info --input data.tns
//   cstf_info --dataset NELL2
//
// Reports dimensions, nonzeros, density, per-mode fiber statistics (distinct
// indices, average nonzeros per used index — the MTTKRP reuse factor), the
// update/MTTKRP work ratio of Eq. 3, and the storage cost of each supported
// format.
//
// With --plan, additionally compiles one AO iteration for the tensor (at
// --rank, optionally --pipeline) and dumps the execution graph: ops with
// lane assignment and event edges, buffer lifetimes, and the peak
// device-memory estimate CstfFramework::device_footprint_bytes() reports.
//
// With --metrics (standalone, no tensor needed), prints the process metrics
// catalog: every instrument the codebase registers, with type, labels,
// unit, and help text (the same catalog docs/METRICS.md documents).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cstf/framework.hpp"
#include "formats/alto.hpp"
#include "formats/blco.hpp"
#include "formats/csf.hpp"
#include "metrics/catalog.hpp"
#include "mttkrp/scatter.hpp"
#include "tensor/datasets.hpp"
#include "tensor/io.hpp"

namespace {

using namespace cstf;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: cstf_info (--input FILE.tns | --dataset NAME) "
               "[--rank N] [--plan] [--pipeline]\n"
               "       cstf_info --metrics\n");
  std::exit(2);
}

void print_metrics_catalog() {
  std::size_t count = 0;
  const metrics::CatalogEntry* entries = metrics::catalog_entries(&count);
  std::printf("%-32s %-10s %-8s %-8s %s\n", "name", "type", "labels", "unit",
              "help");
  for (std::size_t i = 0; i < count; ++i) {
    const metrics::CatalogEntry& e = entries[i];
    std::printf("%-32s %-10s %-8s %-8s %s\n", e.name,
                metrics::instrument_type_name(e.type),
                e.label_keys[0] != '\0' ? e.label_keys : "-", e.unit, e.help);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string input, dataset;
  index_t rank = 32;
  bool show_plan = false;
  bool pipeline = false;
  bool show_metrics = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--input") input = value();
    else if (arg == "--dataset") dataset = value();
    else if (arg == "--rank") rank = std::atoll(value().c_str());
    else if (arg == "--plan") show_plan = true;
    else if (arg == "--pipeline") pipeline = true;
    else if (arg == "--metrics") show_metrics = true;
    else usage();
  }
  if (show_metrics && input.empty() && dataset.empty()) {
    print_metrics_catalog();
    return 0;
  }
  if (input.empty() == dataset.empty()) usage();

  try {
    const SparseTensor t =
        input.empty() ? make_analog(dataset).tensor : read_tns_file(input);
    std::printf("tensor     : %s\n", t.shape_string().c_str());
    std::printf("density    : %.3e\n", t.density());
    std::printf("||X||_F    : %.6e\n\n", std::sqrt(t.frobenius_norm_sq()));

    std::printf("%-6s %12s %14s %16s %18s %13s %11s\n", "mode", "length",
                "distinct", "nnz/used-idx", "update/mttkrp work",
                "updates/row", "scatter");
    const ScatterOptions scatter_opts;  // defaults: kAuto resolution
    double sum_dims = 0.0;
    for (int m = 0; m < t.num_modes(); ++m) {
      std::vector<bool> seen(static_cast<std::size_t>(t.dim(m)), false);
      index_t distinct = 0;
      for (index_t v : t.indices(m)) {
        if (!seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = true;
          ++distinct;
        }
      }
      sum_dims += static_cast<double>(t.dim(m));
      // Eq. 3 per-mode update flops (19IR + 2IR^2, 10 inner iterations)
      // against the per-mode MTTKRP flops (~nnz * R * modes).
      const double update_w =
          10.0 * (19.0 * static_cast<double>(t.dim(m)) * static_cast<double>(rank) +
                  2.0 * static_cast<double>(t.dim(m)) * static_cast<double>(rank * rank));
      const double mttkrp_w = static_cast<double>(t.nnz()) *
                              static_cast<double>(rank) *
                              static_cast<double>(t.num_modes());
      // The scatter engine's contention proxy (expected MTTKRP updates per
      // output row) and the strategy kAuto would pick for this mode.
      const double updates_per_row =
          static_cast<double>(t.nnz()) / static_cast<double>(t.dim(m));
      const ScatterStrategy picked =
          resolve_scatter_strategy(scatter_opts, t.dim(m), rank, t.nnz());
      std::printf("%-6d %12lld %14lld %16.2f %18.3f %13.2f %11s\n", m,
                  static_cast<long long>(t.dim(m)),
                  static_cast<long long>(distinct),
                  static_cast<double>(t.nnz()) /
                      static_cast<double>(std::max<index_t>(distinct, 1)),
                  update_w / mttkrp_w, updates_per_row,
                  scatter_strategy_name(picked));
    }
    std::printf("\nsum of mode lengths: %.3e (x R = factor elements: %.3e)\n",
                sum_dims, sum_dims * static_cast<double>(rank));
    std::printf("the paper's sparse-TF regime: factor elements comparable to "
                "nnz (%.3e)\n\n", static_cast<double>(t.nnz()));

    const double coo_bytes =
        static_cast<double>(t.nnz()) *
        (static_cast<double>(t.num_modes()) * sizeof(index_t) + sizeof(real_t));
    const CsfTensor csf(t, 0);
    const AltoTensor alto(t);
    const BlcoTensor blco(t);
    std::printf("%-8s %14s %12s\n", "format", "bytes", "vs COO");
    std::printf("%-8s %14.0f %11.2fx\n", "COO", coo_bytes, 1.0);
    std::printf("%-8s %14.0f %11.2fx\n", "CSF", csf.storage_bytes(),
                csf.storage_bytes() / coo_bytes);
    std::printf("%-8s %14.0f %11.2fx\n", "ALTO", alto.storage_bytes(),
                alto.storage_bytes() / coo_bytes);
    std::printf("%-8s %14.0f %11.2fx  (bit layout: %d bits/coordinate)\n",
                "BLCO", blco.storage_bytes(),
                blco.storage_bytes() / coo_bytes,
                blco.encoding().total_bits());

    if (show_plan) {
      FrameworkOptions opts;
      opts.rank = rank;
      opts.pipeline_streams = pipeline;
      CstfFramework framework(t, opts);
      std::printf("\ncompiled AO iteration (rank %lld%s):\n%s",
                  static_cast<long long>(rank),
                  pipeline ? ", pipelined" : "",
                  framework.driver().plan().describe().c_str());
      std::printf("device footprint (plan peak): %.3e bytes\n",
                  framework.device_footprint_bytes());
      // Cache telemetry: the AO plan cache (one compile per option set) and
      // the scatter plan cache (one resolve per (mode, shape)).
      const exec::PlanCache& plans = framework.driver().plan_cache();
      std::printf("\nplan cache: %lld hits, %lld misses\n",
                  static_cast<long long>(plans.hits()),
                  static_cast<long long>(plans.misses()));
      const ScatterPlanCache& scatter_plans = framework.backend().scatter_plans();
      std::printf("scatter plan cache: %lld hits, %lld misses\n",
                  static_cast<long long>(scatter_plans.hits()),
                  static_cast<long long>(scatter_plans.misses()));
    }
    if (show_metrics) {
      std::printf("\n");
      print_metrics_catalog();
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "cstf_info: %s\n", e.what());
    return 1;
  }
  return 0;
}
