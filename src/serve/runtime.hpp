// Shared serving runtime: the simulated device, the host thread pool, and
// the submission lock that serializes metered work.
//
// Device::record is a single-caller interface (the device's counter maps
// are not synchronized for concurrent callers) — which matches the real
// system being modeled: one GPU behind one in-order submission context.
// Serving threads therefore take `submit_mu` around every metered
// computation. The thread pool needs no lock of its own: ThreadPool::run
// takes concurrent external callers in turn, so a ModelStore::publish that
// builds snapshot caches on the pool may run beside metered traffic.
// Concurrency does not come from racing kernel launches; it comes from
// *batching* — coalescing many requests into one fused launch — which is
// the serving layer's entire performance thesis.
#pragma once

#include <mutex>

#include "parallel/thread_pool.hpp"
#include "simgpu/device.hpp"

namespace cstf::serve {

struct ServeRuntime {
  ServeRuntime(simgpu::Device& device_in, ThreadPool& pool_in)
      : device(device_in), pool(pool_in) {}

  ServeRuntime(const ServeRuntime&) = delete;
  ServeRuntime& operator=(const ServeRuntime&) = delete;

  simgpu::Device& device;
  ThreadPool& pool;

  /// Held for the duration of every metered serving computation (query or
  /// fold-in batch): one submission context, in-order, like a GPU stream.
  std::mutex submit_mu;
};

}  // namespace cstf::serve
