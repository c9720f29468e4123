// Roofline-style execution-time model over metered kernel statistics.
#pragma once

#include "simgpu/counters.hpp"
#include "simgpu/device_spec.hpp"

namespace cstf::simgpu {

/// Breakdown of one modeled kernel time.
struct TimeBreakdown {
  double compute_s = 0.0;   // flops at achievable throughput
  double memory_s = 0.0;    // effective bytes at achievable bandwidth
  double serial_s = 0.0;    // critical-path chain at the serial op rate
  double atomic_s = 0.0;    // atomic RMWs, inflated by expected contention
  double link_s = 0.0;      // host-link staging (overlapped double-buffered)
  double launch_s = 0.0;    // per-launch fixed overhead
  double total_s = 0.0;  // launch + max(compute, memory, serial, atomic, link)
};

/// Fraction of `bytes_reused` that misses cache given the working set; 1.0
/// when nothing fits, with a small compulsory-miss floor when everything fits.
double cache_miss_fraction(double working_set_bytes, double cache_bytes);

/// Throughput utilization given available parallelism vs the device's
/// saturation point (linear ramp, capped at 1).
double parallel_utilization(double parallel_items, double saturation);

/// Expected serialization multiplier for atomic updates: with
/// `concurrent_lanes` lanes issuing atomics uniformly over `slots` distinct
/// words, each update expects (lanes - 1) / slots colliders queued behind the
/// same word, so cost inflates by 1 + (lanes - 1) / slots. Degenerates to 1
/// (no contention) for a single lane or an unbounded slot count.
double atomic_contention_factor(double concurrent_lanes, double slots);

/// Models the execution time of `stats` on `spec`.
TimeBreakdown model_time(const KernelStats& stats, const DeviceSpec& spec);

}  // namespace cstf::simgpu
