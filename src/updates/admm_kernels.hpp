// The three fused cuADMM kernels of Section 4.3.1, as simulated-GPU launches,
// and the row-blocked pass that runs a whole cuADMM inner iteration at once.
//
// Traffic accounting per kernel (I x R matrices, w = 8 bytes/word):
//   compute_auxiliary    reads M, H, U; writes T            -> 4*I*R*w
//     (vs. two chained DGEAMs: 6*I*R*w — the ~33% saving the paper cites)
//   apply_proximity      reads T, U, H(old); writes H       -> 4*I*R*w
//     (also emits ||H_new - H_old||^2 for the dual-residual test, reusing
//      the old value it is overwriting — no separate H0 copy pass)
//   dual_update          reads H, T, U; writes U            -> 4*I*R*w
//     (also emits ||H - T||^2, ||H||^2, ||U||^2 from the same pass)
//
// The kernels work on blocks of kAdmmBlockRows rows. A residual sum is
// summed per block in kAdmmResidualLanes fixed lanes: element (i, j) of a
// block adds into lane i mod kAdmmResidualLanes, columns in order and rows
// ascending within a column; a block's lanes add up in lane order, and the
// block sums in block order. So every residual is bitwise the same at any
// thread count and on every instruction set.
#pragma once

#include "common/isa.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "simgpu/device.hpp"
#include "simgpu/stream.hpp"
#include "updates/prox.hpp"

namespace cstf {

/// Rows per block of the ADMM kernels: their parallel work unit, the unit of
/// their residual partial sums, and the block the fused inner iteration
/// keeps in cache. A multiple of every gemm tile height.
inline constexpr index_t kAdmmBlockRows = 256;

/// Lanes of a block's residual partial sum (see the file comment).
inline constexpr index_t kAdmmResidualLanes = 8;

/// Modeled KernelStats of the three kernels over n = I*R elements. The
/// fused inner iteration records the same ones.
simgpu::KernelStats admm_auxiliary_stats(index_t n);
simgpu::KernelStats admm_proximity_stats(index_t n);
simgpu::KernelStats admm_dual_update_stats(index_t n);

/// T = M + rho * (H + U), fused.
void kernel_compute_auxiliary(simgpu::Device& dev, const Matrix& m,
                              const Matrix& h, const Matrix& u, real_t rho,
                              Matrix& t, simgpu::Stream stream = {});

/// H = prox(T - U), fused with the dual-residual accumulation
/// ||H_new - H_old||^2 (old H read in place before being overwritten).
/// Requires an elementwise prox; the caller handles the L2-ball fallback.
void kernel_apply_proximity(simgpu::Device& dev, const Proximity& prox,
                            real_t rho, const Matrix& t, const Matrix& u,
                            Matrix& h, real_t* delta_h_sq,
                            simgpu::Stream stream = {});

/// U += H - T, fused with the residual reductions: primal ||H - T||^2,
/// ||H||^2, and ||U||^2 (post-update).
void kernel_dual_update(simgpu::Device& dev, const Matrix& h, const Matrix& t,
                        Matrix& u, real_t* primal_sq, real_t* h_sq,
                        real_t* u_sq, simgpu::Stream stream = {});

/// The residual sums of one inner iteration.
struct AdmmResiduals {
  real_t delta_h_sq = 0.0;  // ||H_new - H_old||^2
  real_t primal_sq = 0.0;   // ||H - H~||^2
  real_t h_sq = 0.0;        // ||H||^2
  real_t u_sq = 0.0;        // ||U||^2, post-update
};

/// One cuADMM inner iteration (Algorithm 3 lines 6-9) for an elementwise
/// prox, in one parallel pass over blocks of kAdmmBlockRows rows. A block
/// builds T = M + rho*(H + U) in a per-thread buffer, multiplies it by
/// `inverse` (the staged (S + rho*I)^-1) into a second buffer H~, applies
/// the prox and does the dual update, and writes back only H and U.
///
/// Every element gets the operation sequence of the kernel-by-kernel chain
/// (kernel_compute_auxiliary, dgemm, kernel_apply_proximity,
/// kernel_dual_update), and the residuals are summed in the same block and
/// lane order, so H, U and the residuals are bitwise that chain's. Records
/// the chain's four launches on `stream`, with the same names and
/// KernelStats in the same order; the pass's host wall time goes on the
/// first. `isa` picks the elementwise code's variant (every variant gives
/// the same bits); `inverse` carries its own.
AdmmResiduals kernel_fused_inner_iteration(
    simgpu::Device& dev, const Proximity& prox, real_t rho, const Matrix& m,
    const la::GemmPanels& inverse, Matrix& h, Matrix& u,
    simgpu::Stream stream = {}, Isa isa = widest_isa());

}  // namespace cstf
