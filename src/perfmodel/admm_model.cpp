#include "perfmodel/admm_model.hpp"

#include <algorithm>

#include "simgpu/cost_model.hpp"

namespace cstf::perfmodel {

AdmmIterationModel admm_iteration_model(double i_len, double rank) {
  AdmmIterationModel m;
  m.flops = 19.0 * i_len * rank + 2.0 * i_len * rank * rank;  // Eq. 3
  m.words = 22.0 * i_len * rank + rank * rank;                // Eq. 4
  m.intensity = m.flops / (m.words * simgpu::kWord);          // Eq. 5
  return m;
}

double admm_iteration_time(double i_len, double rank,
                           const simgpu::DeviceSpec& spec) {
  const AdmmIterationModel m = admm_iteration_model(i_len, rank);
  const double t_mem =
      m.words * simgpu::kWord / (spec.mem_bandwidth * spec.stream_bw_fraction);
  const double t_flops = m.flops / spec.peak_flops;
  return std::max(t_mem, t_flops);
}

simgpu::KernelStats scale_stats(const simgpu::KernelStats& stats,
                                double factor) {
  simgpu::KernelStats scaled = stats;
  scaled.flops *= factor;
  scaled.bytes_streamed *= factor;
  scaled.bytes_reused *= factor;
  scaled.bytes_random *= factor;
  scaled.host_link_bytes *= factor;
  scaled.working_set_bytes *= factor;
  scaled.atomic_ops *= factor;
  scaled.atomic_slots *= factor;
  scaled.parallel_items *= factor;
  return scaled;
}

double modeled_time_scaled(const simgpu::Device& dev, double factor) {
  double total = 0.0;
  for (const auto& [name, stats] : dev.per_kernel()) {
    total += simgpu::model_time(scale_stats(stats, factor), dev.spec()).total_s;
  }
  return total;
}

}  // namespace cstf::perfmodel
