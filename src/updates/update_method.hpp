// The update-method interface of the AUNTF driver (Algorithm 1, line 10).
//
// Given the Hadamard-of-Grams matrix S (R x R) and the MTTKRP result M
// (I x R), an update method computes the new factor H (I x R) subject to its
// constraint. ADMM carries a dual variable U across outer iterations
// (warm-started, per the AO-ADMM literature); ModeState holds it.
#pragma once

#include <string>

#include "la/matrix.hpp"
#include "simgpu/device.hpp"

namespace cstf {

/// Per-mode persistent state owned by the driver, one per tensor mode.
struct ModeState {
  /// ADMM dual variable U (I x R). Empty until first use; kept across outer
  /// iterations as a warm start.
  Matrix dual;

  /// Scratch matrices sized I x R, reused across iterations to avoid
  /// reallocation in the inner loop. The fused row-block cuADMM pass keeps
  /// T and H~ in per-thread block buffers and leaves both empty.
  Matrix aux;      // H~ (ADMM auxiliary / primal-tilde)
  Matrix scratch;  // general temporary
};

/// Abstract constrained update.
class UpdateMethod {
 public:
  virtual ~UpdateMethod() = default;

  virtual std::string name() const = 0;

  /// Updates `h` in place from the normal equations (S, M). All device
  /// work — kernels and BLAS — must be issued through `dev` so the run is
  /// metered for the cost model.
  virtual void update(simgpu::Device& dev, const Matrix& s, const Matrix& m,
                      Matrix& h, ModeState& state) const = 0;
};

}  // namespace cstf
