// BLAS subset implemented natively (no external BLAS dependency).
//
// Only the operations the cSTF algorithms need are provided, with the same
// semantics as the corresponding (cu)BLAS routines so the simgpu device BLAS
// can wrap them one-to-one:
//   gemm  — C = alpha*op(A)*op(B) + beta*C          (cublasDgemm)
//   syrk  — S = A^T * A (gram matrix)               (cublasDsyrk, full store)
//   gemv  — y = alpha*op(A)*x + beta*y              (cublasDgemv)
//   geam  — C = alpha*op(A) + beta*op(B)            (cublasDgeam)
// plus vector helpers (axpy/scal/dot/nrm2).
#pragma once

#include <vector>

#include "common/isa.hpp"
#include "la/matrix.hpp"

namespace cstf::la {

enum class Op { kNone, kTranspose };

/// Dimensions of op(A).
index_t op_rows(const Matrix& a, Op op);
index_t op_cols(const Matrix& a, Op op);

/// General matrix multiply: C = alpha * op(A) * op(B) + beta * C.
/// Shapes are validated; C must already have the result shape.
void gemm(Op op_a, Op op_b, real_t alpha, const Matrix& a, const Matrix& b,
          real_t beta, Matrix& c);

/// alpha*op(B) staged once in the column panels the gemm micro-kernel reads,
/// each panel flagged if it holds a zero (only those tiles test each term
/// for zero). gemm() stages its B per call; a caller that multiplies many
/// row blocks by one B stages it once (the fused cuADMM inner iteration,
/// against (S + rho*I)^-1).
class GemmPanels {
 public:
  /// Stages alpha*op(B) for the given micro-kernel variant; throws if the
  /// CPU lacks it.
  GemmPanels(real_t alpha, const Matrix& b, Op op_b = Op::kNone,
             Isa isa = widest_isa());

  index_t k() const { return k_; }  // rows of op(B)
  index_t n() const { return n_; }  // columns of op(B)

  /// Rows [lo, hi) of C = A * alpha*op(B) + beta*C on the calling thread.
  /// A (k() columns) and C (n() columns) are column-major with leading
  /// dimension `ld`. Same bitwise contract as gemm().
  void multiply_rows(const real_t* a, real_t beta, real_t* c, index_t ld,
                     index_t lo, index_t hi) const;

 private:
  index_t k_ = 0, n_ = 0;
  Isa isa_;
  std::vector<real_t> panels_;
  std::vector<char> has_zero_;
};

namespace detail {

/// gemm(kNone, kNone, ...) on the given variant of the op(A) = A
/// micro-kernel; throws if the CPU lacks it. gemm() runs widest_isa(). Every
/// variant yields bitwise-identical C (DESIGN.md §5); this entry point lets
/// tests compare them.
void gemm_nn(Isa isa, real_t alpha, const Matrix& a, const Matrix& b,
             real_t beta, Matrix& c);

/// gram() on the given variant of its kernel; throws if the CPU lacks it.
/// Every variant yields S bitwise equal to the scalar column-dot loop
/// (DESIGN.md §5).
void gram(Isa isa, const Matrix& a, Matrix& s);

}  // namespace detail

/// Gram matrix: S = A^T * A (S is cols(A) x cols(A), full storage).
/// Exploits symmetry: computes the upper triangle and mirrors it. Runs
/// widest_isa().
void gram(const Matrix& a, Matrix& s);

/// Matrix-vector multiply: y = alpha * op(A) * x + beta * y.
void gemv(Op op_a, real_t alpha, const Matrix& a, const real_t* x, real_t beta,
          real_t* y);

/// Elementwise matrix add with transposes: C = alpha*op(A) + beta*op(B).
/// C may alias A or B only when the corresponding op is kNone.
void geam(Op op_a, Op op_b, real_t alpha, const Matrix& a, real_t beta,
          const Matrix& b, Matrix& c);

/// y += alpha * x over n elements.
void axpy(index_t n, real_t alpha, const real_t* x, real_t* y);

/// x *= alpha over n elements.
void scal(index_t n, real_t alpha, real_t* x);

/// Dot product over n elements.
real_t dot(index_t n, const real_t* x, const real_t* y);

/// Euclidean norm over n elements.
real_t nrm2(index_t n, const real_t* x);

/// Frobenius norm of a matrix.
real_t frobenius_norm(const Matrix& a);

/// Squared Frobenius norm (avoids the sqrt when ratios are needed, as in the
/// ADMM convergence test of Algorithm 2 line 9).
real_t frobenius_norm_sq(const Matrix& a);

}  // namespace cstf::la
