// cstf_tune — pre-tune a set of tensors and dump the decision table.
//
//   cstf_tune --dataset Uber --dataset NIPS --tuning-cache tuned.cstftune
//   cstf_tune --input data.tns --rank 32 --tune measure
//
// For every tensor the tool runs the autotuning resolution exactly the way a
// training run would (CstfFramework construction under the chosen policy),
// executes one training iteration with the decided configuration, and prints
// one decision-table row: the per-mode scatter picks, the chunk knob, and
// the measured/modeled evidence behind the decision. With a
// --tuning-cache file the decisions persist, so later cstf_cli/cstf_serve
// runs with --tune cached skip the trials entirely.
//
// Options:
//   --dataset NAME    synthetic Table-2 analog to tune (repeatable)
//   --input FILE.tns  FROSTT tensor to tune (repeatable)
//   --rank N          factorization rank the decisions are tuned for (16)
//   --device D        a100 | h100 | xeon cost-model target (a100)
//   --tune P          cached | measure — cached reuses stored decisions and
//                     runs trials only on a miss; measure always re-measures
//                     (default cached; model would tune nothing)
//   --tuning-cache F  CSTFTUNE cache file to consult and refresh
//   --expect-cached   exit nonzero unless EVERY decision was a cache hit
//                     (no trials run) — the counter-verified second-run
//                     smoke check scripts/check.sh uses
//
// JSON telemetry: opens bench JsonSession "tune"; each tensor adds a record
// whose extras carry trials_run / cache_hit, the evidence seconds, and the
// plan-cache and scatter-plan-cache hit/miss counters of the verification
// iteration (enable with CSTF_BENCH_JSON=1).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cstf/framework.hpp"
#include "tensor/datasets.hpp"
#include "tensor/io.hpp"

namespace {

using namespace cstf;

[[noreturn]] void usage(const char* message) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(stderr,
               "usage: cstf_tune (--dataset NAME | --input FILE.tns)...\n"
               "                 [--rank N] [--device a100|h100|xeon]\n"
               "                 [--tune cached|measure]"
               " [--tuning-cache FILE]\n"
               "                 [--expect-cached]\n");
  std::exit(2);
}

simgpu::DeviceSpec parse_device(const std::string& spec) {
  if (spec == "a100") return simgpu::a100();
  if (spec == "h100") return simgpu::h100();
  if (spec == "xeon") return simgpu::xeon_8367hc();
  usage(("unknown device: " + spec).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::pair<std::string, bool>> sources;  // (name, is_file)
  index_t rank = 16;
  simgpu::DeviceSpec device_spec = simgpu::a100();
  autotune::TuningOptions tuning;
  tuning.policy = autotune::TuningPolicy::kCached;
  bool expect_cached = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--dataset") sources.emplace_back(value(), false);
    else if (arg == "--input") sources.emplace_back(value(), true);
    else if (arg == "--rank") rank = std::atoll(value().c_str());
    else if (arg == "--device") device_spec = parse_device(value());
    else if (arg == "--tune") {
      const std::string spec = value();
      if (!autotune::parse_tuning_policy(spec, &tuning.policy) ||
          tuning.policy == autotune::TuningPolicy::kModel) {
        usage(("--tune must be cached or measure, got: " + spec).c_str());
      }
    }
    else if (arg == "--tuning-cache") tuning.cache_path = value();
    else if (arg == "--expect-cached") expect_cached = true;
    else if (arg == "--help" || arg == "-h") usage(nullptr);
    else usage(("unknown argument: " + arg).c_str());
  }
  if (sources.empty()) {
    usage("at least one --dataset / --input is required");
  }

  cstf::bench::JsonSession session("tune");
  int not_cached = 0;
  try {
    std::printf("%-12s %10s %8s %7s %12s %12s  %s\n", "tensor", "nnz",
                "source", "chunks", "measured[ms]", "model[ms]",
                "scatter per mode");
    for (const auto& [name, is_file] : sources) {
      const SparseTensor tensor =
          is_file ? read_tns_file(name) : make_analog(name).tensor;

      FrameworkOptions options;
      options.rank = rank;
      options.device = device_spec;
      options.tuning = tuning;
      options.max_iterations = 1;
      options.compute_fit = false;
      CstfFramework framework(tensor, options);
      const autotune::TuningOutcome& outcome = framework.tuning();
      if (!outcome.cache_hit) ++not_cached;

      // One training iteration under the decided configuration: verifies the
      // decision plugs in end to end and exercises the plan caches whose
      // counters the telemetry reports.
      framework.run();

      const autotune::TuningRecord& rec = outcome.record;
      std::string scatter;
      for (ScatterStrategy s : rec.scatter_per_mode) {
        if (!scatter.empty()) scatter += ' ';
        scatter += scatter_strategy_name(s);
      }
      std::printf("%-12s %10lld %8s %7u %12.3f %12.3f  %s\n",
                  name.c_str(), static_cast<long long>(tensor.nnz()),
                  outcome.cache_hit ? "cache" : "trials",
                  rec.chunks_per_worker,
                  rec.measured_best_s * 1e3, rec.measured_model_s * 1e3,
                  scatter.c_str());

      bench::BenchRecord brec;
      brec.dataset = name;
      brec.machine = device_spec.name;
      brec.rank = rank;
      brec.extras.emplace_back("trials_run", outcome.trials_run ? 1.0 : 0.0);
      brec.extras.emplace_back("cache_hit", outcome.cache_hit ? 1.0 : 0.0);
      brec.extras.emplace_back("measured_best_s", rec.measured_best_s);
      brec.extras.emplace_back("measured_model_s", rec.measured_model_s);
      brec.extras.emplace_back("modeled_best_s", rec.modeled_best_s);
      brec.extras.emplace_back("modeled_model_s", rec.modeled_model_s);
      brec.extras.emplace_back("chunks_per_worker",
                               static_cast<double>(rec.chunks_per_worker));
      const exec::PlanCache& plans = framework.driver().plan_cache();
      brec.extras.emplace_back("plan_cache_hits",
                               static_cast<double>(plans.hits()));
      brec.extras.emplace_back("plan_cache_misses",
                               static_cast<double>(plans.misses()));
      const ScatterPlanCache& scatter_plans =
          framework.backend().scatter_plans();
      brec.extras.emplace_back("scatter_plan_hits",
                               static_cast<double>(scatter_plans.hits()));
      brec.extras.emplace_back("scatter_plan_misses",
                               static_cast<double>(scatter_plans.misses()));
      session.add_record(std::move(brec));
    }
    if (!tuning.cache_path.empty()) {
      std::printf("\ntuning cache: %s\n", tuning.cache_path.c_str());
    }
    if (expect_cached && not_cached != 0) {
      std::fprintf(stderr,
                   "cstf_tune: --expect-cached but %d decision(s) missed the "
                   "cache and re-ran trials\n",
                   not_cached);
      return 1;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "cstf_tune: %s\n", e.what());
    return 1;
  }
  return 0;
}
