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
