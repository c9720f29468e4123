// Unit tests for src/la: matrix container, BLAS subset, Cholesky machinery,
// elementwise kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/elementwise.hpp"
#include "la/matrix.hpp"

namespace cstf {
namespace {

using la::Op;

// Reference (obviously correct) triple-loop GEMM for differential testing.
Matrix reference_gemm(Op op_a, Op op_b, real_t alpha, const Matrix& a,
                      const Matrix& b, real_t beta, const Matrix& c0) {
  const index_t m = la::op_rows(a, op_a);
  const index_t n = la::op_cols(b, op_b);
  const index_t k = la::op_cols(a, op_a);
  Matrix c = c0;
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real_t acc = 0.0;
      for (index_t l = 0; l < k; ++l) {
        const real_t va = op_a == Op::kNone ? a(i, l) : a(l, i);
        const real_t vb = op_b == Op::kNone ? b(l, j) : b(j, l);
        acc += va * vb;
      }
      c(i, j) = alpha * acc + beta * c0(i, j);
    }
  }
  return c;
}

Matrix random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.fill_normal(rng);
  return m;
}

Matrix random_spd(index_t n, std::uint64_t seed) {
  // B^T B + n*I is comfortably positive definite.
  Matrix b = random_matrix(2 * n, n, seed);
  Matrix s(n, n);
  la::gram(b, s);
  la::add_diagonal(s, static_cast<real_t>(n));
  return s;
}

TEST(Matrix, ConstructionZeroInitializes) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  for (index_t j = 0; j < 4; ++j) {
    for (index_t i = 0; i < 3; ++i) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(Matrix, ColumnMajorLayout) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(1, 0) = 2;
  m(0, 1) = 3;
  EXPECT_EQ(m.data()[0], 1.0);
  EXPECT_EQ(m.data()[1], 2.0);
  EXPECT_EQ(m.data()[2], 3.0);
  EXPECT_EQ(m.col(1), m.data() + 2);
}

TEST(Matrix, FromRowsAndIdentity) {
  Matrix m = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m(0, 2), 3.0);
  EXPECT_EQ(m(1, 0), 4.0);
  Matrix eye = Matrix::identity(3);
  EXPECT_EQ(eye(0, 0), 1.0);
  EXPECT_EQ(eye(1, 0), 0.0);
  EXPECT_EQ(eye(2, 2), 1.0);
}

TEST(Matrix, ResizeDiscardsAndZeroes) {
  Matrix m(2, 2);
  m.set_all(7.0);
  m.resize(3, 3);
  EXPECT_EQ(m.size(), 9);
  EXPECT_EQ(m(2, 2), 0.0);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  Matrix b = Matrix::from_rows({{1, 2.5}, {3, 4}});
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
  EXPECT_DOUBLE_EQ(max_abs_diff(a, a), 0.0);
}

struct GemmCase {
  Op op_a, op_b;
  real_t alpha, beta;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesReference) {
  const GemmCase p = GetParam();
  const index_t m = 17, n = 9, k = 13;
  Matrix a = p.op_a == Op::kNone ? random_matrix(m, k, 1) : random_matrix(k, m, 1);
  Matrix b = p.op_b == Op::kNone ? random_matrix(k, n, 2) : random_matrix(n, k, 2);
  Matrix c = random_matrix(m, n, 3);
  const Matrix want = reference_gemm(p.op_a, p.op_b, p.alpha, a, b, p.beta, c);
  la::gemm(p.op_a, p.op_b, p.alpha, a, b, p.beta, c);
  EXPECT_LT(max_abs_diff(c, want), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, GemmSweep,
    ::testing::Values(GemmCase{Op::kNone, Op::kNone, 1.0, 0.0},
                      GemmCase{Op::kNone, Op::kNone, 2.0, 1.0},
                      GemmCase{Op::kNone, Op::kNone, -0.5, 0.25},
                      GemmCase{Op::kTranspose, Op::kNone, 1.0, 0.0},
                      GemmCase{Op::kTranspose, Op::kNone, 1.5, -1.0},
                      GemmCase{Op::kNone, Op::kTranspose, 1.0, 0.0},
                      GemmCase{Op::kNone, Op::kTranspose, -2.0, 0.5},
                      GemmCase{Op::kTranspose, Op::kTranspose, 1.0, 0.0},
                      GemmCase{Op::kTranspose, Op::kTranspose, 0.5, 2.0}));

TEST(Gemm, TallSkinnyShapesUsedByCstf) {
  // The exact shape of the cuADMM GEMM: (I x R) times (R x R).
  const index_t i_len = 503, r = 32;
  Matrix h = random_matrix(i_len, r, 4);
  Matrix inv = random_matrix(r, r, 5);
  Matrix out(i_len, r);
  la::gemm(Op::kNone, Op::kNone, 1.0, h, inv, 0.0, out);
  const Matrix want =
      reference_gemm(Op::kNone, Op::kNone, 1.0, h, inv, 0.0, out);
  EXPECT_LT(max_abs_diff(out, want), 1e-10);
}

// A plain column-axpy loop: the oracle for the bitwise contract of the
// gemm micro-kernel (DESIGN.md §5, decision 6).
void axpy_gemm_oracle(Op op_b, real_t alpha, const Matrix& a, const Matrix& b,
                      real_t beta, Matrix& c) {
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  for (index_t j = 0; j < n; ++j) {
    real_t* cj = c.col(j);
    if (beta == 0.0) {
      for (index_t i = 0; i < m; ++i) cj[i] = 0.0;
    } else if (beta != 1.0) {
      for (index_t i = 0; i < m; ++i) cj[i] *= beta;
    }
    for (index_t l = 0; l < k; ++l) {
      const real_t ab = alpha * (op_b == Op::kNone ? b(l, j) : b(j, l));
      if (ab == 0.0) continue;
      const real_t* al = a.col(l);
      for (index_t i = 0; i < m; ++i) cj[i] += ab * al[i];
    }
  }
}

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  if (!x.same_shape(y)) return false;
  return x.size() == 0 ||  // an empty Matrix's data() may be null
         std::memcmp(x.data(), y.data(),
                     static_cast<std::size_t>(x.size()) * sizeof(real_t)) == 0;
}

std::vector<Isa> supported_gemm_isas() {
  std::vector<Isa> isas;
  for (auto isa : {Isa::kPortable, Isa::kAvx2, Isa::kAvx512f}) {
    if (isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

// B with +0 and -0 entries, whose terms the contract skips.
Matrix signed_zero_b(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix b = random_matrix(rows, cols, seed);
  for (index_t i = 0; i < b.size(); ++i) {
    if (i % 3 == 1) b.data()[i] = 0.0;
    if (i % 5 == 2) b.data()[i] = -0.0;
  }
  return b;
}

// The B operands of the bitwise tests: no zero (every panel runs the tile
// without the zero test), zeros in every panel, and one -0 in the first
// column only (the other full panels run without the test).
std::vector<Matrix> gemm_test_bs(index_t rows, index_t cols,
                                 std::uint64_t seed) {
  std::vector<Matrix> bs = {random_matrix(rows, cols, seed),
                            signed_zero_b(rows, cols, seed)};
  bs.push_back(bs.front());
  bs.back()(rows - 1, 0) = -0.0;
  return bs;
}

// A with one non-finite entry in each of three rows: +inf, NaN, -inf. One
// per row, so no row can make a NaN whose sign depends on operand order.
Matrix non_finite_a(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix a = random_matrix(rows, cols, seed);
  const real_t specials[] = {std::numeric_limits<real_t>::infinity(),
                             std::numeric_limits<real_t>::quiet_NaN(),
                             -std::numeric_limits<real_t>::infinity()};
  const index_t count = std::min<index_t>(3, rows);
  for (index_t s = 0; s < count; ++s) {
    a(s * rows / count, (s * 3) % cols) = specials[s];
  }
  return a;
}

TEST(Gemm, MicroKernelIsBitwiseTheAxpyLoop) {
  const std::vector<Isa> isas = supported_gemm_isas();
  ASSERT_EQ(isas.front(), Isa::kPortable);
  for (index_t m : {0, 1, 7, 15, 16, 17, 33, 26636}) {
    for (index_t k : {1, 5, 32}) {
      const Matrix a =
          non_finite_a(m, k, 10 + static_cast<std::uint64_t>(k));
      for (index_t n : {1, 3, 32, 33}) {
        const std::vector<Matrix> bs =
            gemm_test_bs(k, n, 20 + static_cast<std::uint64_t>(n));
        const Matrix c0 = random_matrix(m, n, 30);
        for (std::size_t kind = 0; kind < bs.size(); ++kind) {
          const Matrix& b = bs[kind];
          for (real_t alpha : {1.0, -0.5}) {
            for (real_t beta : {0.0, 1.0, 0.3}) {
              SCOPED_TRACE(::testing::Message()
                           << "m=" << m << " n=" << n << " k=" << k
                           << " B kind " << kind << " alpha=" << alpha
                           << " beta=" << beta);
              Matrix want = c0;
              axpy_gemm_oracle(Op::kNone, alpha, a, b, beta, want);
              Matrix got = c0;
              la::gemm(Op::kNone, Op::kNone, alpha, a, b, beta, got);
              EXPECT_TRUE(bitwise_equal(got, want)) << "dispatched";
              for (auto isa : isas) {
                got = c0;
                la::detail::gemm_nn(isa, alpha, a, b, beta, got);
                EXPECT_TRUE(bitwise_equal(got, want))
                    << "variant " << static_cast<int>(isa);
              }
              if (m > 33) continue;  // B^T shares the kernel; small shapes do
              const Matrix bt = signed_zero_b(n, k, 40);
              want = c0;
              axpy_gemm_oracle(Op::kTranspose, alpha, a, bt, beta, want);
              got = c0;
              la::gemm(Op::kNone, Op::kTranspose, alpha, a, bt, beta, got);
              EXPECT_TRUE(bitwise_equal(got, want)) << "B transposed";
            }
          }
        }
      }
    }
  }
}

// The fused cuADMM pass stages B once and multiplies row blocks held in a
// buffer whose leading dimension exceeds the rows in use.
TEST(Gemm, StagedPanelsOnRowBlocksMatchGemm) {
  constexpr index_t kLd = 256;
  for (index_t m : {1, 7, 16, 17, 255, 256, 257, 3001}) {
    for (index_t k : {1, 3, 32, 33}) {
      const Matrix a = non_finite_a(m, k, 60 + static_cast<std::uint64_t>(k));
      for (const Matrix& b : gemm_test_bs(k, k, 61)) {
        Matrix want(m, k);
        la::gemm(Op::kNone, Op::kNone, 1.0, a, b, 0.0, want);
        for (auto isa : supported_gemm_isas()) {
          const la::GemmPanels panels(1.0, b, Op::kNone, isa);
          std::vector<real_t> a_buf(kLd * k), c_buf(kLd * k, -1.0);
          Matrix got(m, k);
          for (index_t r0 = 0; r0 < m; r0 += kLd) {
            const index_t rows = std::min(kLd, m - r0);
            for (index_t l = 0; l < k; ++l) {
              std::copy_n(a.col(l) + r0, rows, a_buf.data() + l * kLd);
            }
            panels.multiply_rows(a_buf.data(), 0.0, c_buf.data(), kLd, 0,
                                 rows);
            for (index_t j = 0; j < k; ++j) {
              std::copy_n(c_buf.data() + j * kLd, rows, got.col(j) + r0);
            }
          }
          EXPECT_TRUE(bitwise_equal(got, want))
              << "m=" << m << " k=" << k << " variant "
              << static_cast<int>(isa);
        }
      }
    }
  }
}

TEST(Gemm, RowIsBitwiseIndependentOfTheRowsAroundIt) {
  // The serve fold-in solves one request alone or inside a batch; its row
  // must come out the same either way.
  const index_t m = 53, k = 32, n = 32;
  const Matrix a = random_matrix(m, k, 50);
  const Matrix b = signed_zero_b(k, n, 51);
  const Matrix c0 = random_matrix(m, n, 52);
  for (auto isa : supported_gemm_isas()) {
    Matrix tall = c0;
    la::detail::gemm_nn(isa, -0.5, a, b, 0.3, tall);
    for (index_t i = 0; i < m; ++i) {
      Matrix a_row(1, k), c_row(1, n);
      for (index_t l = 0; l < k; ++l) a_row(0, l) = a(i, l);
      for (index_t j = 0; j < n; ++j) c_row(0, j) = c0(i, j);
      la::detail::gemm_nn(isa, -0.5, a_row, b, 0.3, c_row);
      for (index_t j = 0; j < n; ++j) {
        EXPECT_EQ(std::memcmp(&c_row(0, j), &tall(i, j), sizeof(real_t)), 0)
            << "variant " << static_cast<int>(isa) << " row " << i;
      }
    }
  }
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(3, 4), b(5, 2), c(3, 2);
  EXPECT_THROW(la::gemm(Op::kNone, Op::kNone, 1.0, a, b, 0.0, c), Error);
}

TEST(Gram, MatchesTransposeGemm) {
  Matrix a = random_matrix(40, 8, 6);
  Matrix s(8, 8), want(8, 8);
  la::gram(a, s);
  la::gemm(Op::kTranspose, Op::kNone, 1.0, a, a, 0.0, want);
  EXPECT_LT(max_abs_diff(s, want), 1e-12);
}

TEST(Gram, ResultIsExactlySymmetric) {
  Matrix a = random_matrix(33, 7, 7);
  Matrix s(7, 7);
  la::gram(a, s);
  for (index_t i = 0; i < 7; ++i) {
    for (index_t j = 0; j < 7; ++j) EXPECT_EQ(s(i, j), s(j, i));
  }
}

// The scalar column-dot loop la::gram ran before its vector kernel: the
// oracle for the kernel's bitwise contract (DESIGN.md §5, decision 8).
void column_dot_gram_oracle(const Matrix& a, Matrix& s) {
  const index_t r = a.cols();
  const index_t n = a.rows();
  for (index_t j = 0; j < r; ++j) {
    const real_t* aj = a.col(j);
    for (index_t i = 0; i <= j; ++i) {
      const real_t* ai = a.col(i);
      real_t acc = 0.0;
      for (index_t l = 0; l < n; ++l) acc += ai[l] * aj[l];
      s(i, j) = acc;
    }
  }
  for (index_t j = 0; j < r; ++j) {
    for (index_t i = j + 1; i < r; ++i) s(i, j) = s(j, i);
  }
}

TEST(Gram, VectorKernelIsBitwiseTheColumnDotLoop) {
  const std::vector<Isa> isas = supported_gemm_isas();
  ASSERT_EQ(isas.front(), Isa::kPortable);
  for (index_t n : {0, 1, 7, 257, 26636}) {
    for (index_t r : {1, 7, 8, 16, 32, 33}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " R=" << r);
      // Operands with +0 and -0 entries; a column of A that is all -0 makes
      // products of -0 whose sum must stay +0.
      Matrix a = signed_zero_b(n, r, 60 + static_cast<std::uint64_t>(r));
      if (r > 1) std::fill_n(a.col(1), n, -0.0);
      Matrix want(r, r);
      column_dot_gram_oracle(a, want);
      Matrix got(r, r);
      got.set_all(std::nan(""));
      la::gram(a, got);
      EXPECT_TRUE(bitwise_equal(got, want)) << "dispatched";
      for (auto isa : isas) {
        got.set_all(std::nan(""));
        la::detail::gram(isa, a, got);
        EXPECT_TRUE(bitwise_equal(got, want))
            << "variant " << static_cast<int>(isa);
      }
    }
  }
}

TEST(Gemv, NoTransposeAndTranspose) {
  Matrix a = random_matrix(6, 4, 8);
  std::vector<real_t> x{1, -2, 3, 0.5}, y(6, 1.0);
  la::gemv(Op::kNone, 2.0, a, x.data(), 3.0, y.data());
  for (index_t i = 0; i < 6; ++i) {
    real_t want = 3.0;
    for (index_t j = 0; j < 4; ++j) want += 2.0 * a(i, j) * x[j];
    EXPECT_NEAR(y[i], want, 1e-12);
  }
  std::vector<real_t> xt{1, 2, 3, 4, 5, 6}, yt(4, 0.0);
  la::gemv(Op::kTranspose, 1.0, a, xt.data(), 0.0, yt.data());
  for (index_t j = 0; j < 4; ++j) {
    real_t want = 0.0;
    for (index_t i = 0; i < 6; ++i) want += a(i, j) * xt[i];
    EXPECT_NEAR(yt[j], want, 1e-12);
  }
}

TEST(Geam, LinearCombination) {
  Matrix a = random_matrix(11, 5, 9);
  Matrix b = random_matrix(11, 5, 10);
  Matrix c(11, 5);
  la::geam(Op::kNone, Op::kNone, 2.0, a, -1.0, b, c);
  for (index_t j = 0; j < 5; ++j) {
    for (index_t i = 0; i < 11; ++i) {
      EXPECT_NEAR(c(i, j), 2.0 * a(i, j) - b(i, j), 1e-12);
    }
  }
}

TEST(Geam, TransposedOperand) {
  Matrix a = random_matrix(4, 3, 11);
  Matrix b = random_matrix(3, 4, 12);
  Matrix c(4, 3);
  la::geam(Op::kNone, Op::kTranspose, 1.0, a, 1.0, b, c);
  for (index_t j = 0; j < 3; ++j) {
    for (index_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(c(i, j), a(i, j) + b(j, i), 1e-12);
    }
  }
}

// Regression: the unfused ADMM dual update writes U = 1.0*U + 1.0*T with the
// output aliasing the first input. The NN path is index-aligned elementwise,
// so aliasing either operand must be exact.
TEST(Geam, OutputMayAliasFirstInputWhenUntransposed) {
  Matrix a = random_matrix(13, 4, 21);
  const Matrix a_orig = a;
  Matrix b = random_matrix(13, 4, 22);
  la::geam(Op::kNone, Op::kNone, 1.0, a, 2.0, b, a);  // c == a
  for (index_t j = 0; j < 4; ++j) {
    for (index_t i = 0; i < 13; ++i) {
      EXPECT_DOUBLE_EQ(a(i, j), a_orig(i, j) + 2.0 * b(i, j));
    }
  }
}

TEST(Geam, OutputMayAliasSecondInputWhenUntransposed) {
  Matrix a = random_matrix(7, 6, 23);
  Matrix b = random_matrix(7, 6, 24);
  const Matrix b_orig = b;
  la::geam(Op::kNone, Op::kNone, -1.5, a, 1.0, b, b);  // c == b
  for (index_t j = 0; j < 6; ++j) {
    for (index_t i = 0; i < 7; ++i) {
      EXPECT_DOUBLE_EQ(b(i, j), -1.5 * a(i, j) + b_orig(i, j));
    }
  }
}

// Regression: a transposed operand is read at (j,i) while C writes (i,j);
// aliasing used to silently read overwritten elements. It must throw now.
TEST(Geam, AliasingTransposedOperandThrows) {
  Matrix a = random_matrix(5, 5, 25);
  Matrix b = random_matrix(5, 5, 26);
  EXPECT_THROW(la::geam(Op::kTranspose, Op::kNone, 1.0, a, 1.0, b, a), Error);
  EXPECT_THROW(la::geam(Op::kNone, Op::kTranspose, 1.0, a, 1.0, b, b), Error);
  // The untransposed operand may still alias while the other is transposed.
  EXPECT_NO_THROW(la::geam(Op::kNone, Op::kTranspose, 1.0, a, 1.0, b, a));
}

TEST(VectorOps, AxpyScalDotNrm2) {
  std::vector<real_t> x{1, 2, 3}, y{4, 5, 6};
  la::axpy(3, 2.0, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  la::scal(3, 0.5, y.data());
  EXPECT_DOUBLE_EQ(y[1], 4.5);
  EXPECT_DOUBLE_EQ(la::dot(3, x.data(), x.data()), 14.0);
  EXPECT_DOUBLE_EQ(la::nrm2(3, x.data()), std::sqrt(14.0));
}

TEST(Norms, FrobeniusMatchesManualSum) {
  Matrix a = Matrix::from_rows({{3, 0}, {0, 4}});
  EXPECT_DOUBLE_EQ(la::frobenius_norm_sq(a), 25.0);
  EXPECT_DOUBLE_EQ(la::frobenius_norm(a), 5.0);
}

class CholeskyRankSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(CholeskyRankSweep, FactorReconstructsInput) {
  const index_t n = GetParam();
  const Matrix s = random_spd(n, 100 + static_cast<std::uint64_t>(n));
  Matrix l;
  la::cholesky_factor(s, l);
  // L must be lower triangular and L*L^T == S.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < j; ++i) EXPECT_EQ(l(i, j), 0.0);
    EXPECT_GT(l(j, j), 0.0);
  }
  Matrix recon(n, n);
  la::gemm(Op::kNone, Op::kTranspose, 1.0, l, l, 0.0, recon);
  EXPECT_LT(max_abs_diff(recon, s), 1e-9 * n);
}

TEST_P(CholeskyRankSweep, SolveInvertsTheSystem) {
  const index_t n = GetParam();
  const Matrix s = random_spd(n, 200 + static_cast<std::uint64_t>(n));
  Matrix l;
  la::cholesky_factor(s, l);
  Matrix x = random_matrix(n, 5, 300 + static_cast<std::uint64_t>(n));
  Matrix b(n, 5);
  la::gemm(Op::kNone, Op::kNone, 1.0, s, x, 0.0, b);
  la::cholesky_solve(l, b);  // b <- S^{-1} (S x) = x
  EXPECT_LT(max_abs_diff(b, x), 1e-8);
}

TEST_P(CholeskyRankSweep, ExplicitInverseTimesSIsIdentity) {
  const index_t n = GetParam();
  const Matrix s = random_spd(n, 400 + static_cast<std::uint64_t>(n));
  Matrix l, inv;
  la::cholesky_factor(s, l);
  la::cholesky_invert(l, inv);
  Matrix prod(n, n);
  la::gemm(Op::kNone, Op::kNone, 1.0, inv, s, 0.0, prod);
  EXPECT_LT(max_abs_diff(prod, Matrix::identity(n)), 1e-8);
  // Inverse must be symmetric (cholesky_invert symmetrizes).
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) EXPECT_EQ(inv(i, j), inv(j, i));
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, CholeskyRankSweep,
                         ::testing::Values<index_t>(1, 2, 16, 32, 64));

TEST(Cholesky, NonSpdThrows) {
  Matrix s = Matrix::from_rows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  Matrix l;
  EXPECT_THROW(la::cholesky_factor(s, l), Error);
}

TEST(Cholesky, TrsmLowerSolvesForwardSystem) {
  Matrix l = Matrix::from_rows({{2, 0}, {1, 3}});
  Matrix b = Matrix::from_rows({{4}, {11}});
  la::trsm_lower(l, b);
  EXPECT_NEAR(b(0, 0), 2.0, 1e-14);
  EXPECT_NEAR(b(1, 0), 3.0, 1e-14);
}

TEST(Cholesky, TrsmLowerTransposeSolvesBackwardSystem) {
  Matrix l = Matrix::from_rows({{2, 0}, {1, 3}});
  // Solve L^T x = b with b = L^T [1, 2]^T = [4, 6]^T.
  Matrix b = Matrix::from_rows({{4}, {6}});
  la::trsm_lower_transpose(l, b);
  EXPECT_NEAR(b(0, 0), 1.0, 1e-14);
  EXPECT_NEAR(b(1, 0), 2.0, 1e-14);
}

TEST(Cholesky, AddDiagonal) {
  Matrix s = Matrix::from_rows({{1, 2}, {2, 5}});
  la::add_diagonal(s, 0.5);
  EXPECT_DOUBLE_EQ(s(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(s(1, 1), 5.5);
  EXPECT_DOUBLE_EQ(s(0, 1), 2.0);
}

TEST(Elementwise, HadamardProduct) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  Matrix c(2, 2);
  la::hadamard(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 32.0);
  la::hadamard_inplace(c, a);
  EXPECT_DOUBLE_EQ(c(1, 1), 128.0);
}

TEST(Elementwise, SafeDivideGuardsZeroDenominator) {
  Matrix a = Matrix::from_rows({{1, 4}});
  Matrix b = Matrix::from_rows({{2, 0}});
  Matrix c(1, 2);
  la::safe_divide(a, b, 1e-16, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 0.5);
  EXPECT_TRUE(std::isfinite(c(0, 1)));
}

TEST(Elementwise, ClampMinProjectsOntoNonNegativeOrthant) {
  Matrix a = Matrix::from_rows({{-1, 0.5}, {0, -3}});
  la::clamp_min(a, 0.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(a(1, 1), 0.0);
}

TEST(Elementwise, ColumnNormsAndScaling) {
  Matrix a = Matrix::from_rows({{3, 0}, {4, 0}});
  std::vector<real_t> norms(2);
  la::column_norms(a, norms.data());
  EXPECT_DOUBLE_EQ(norms[0], 5.0);
  EXPECT_DOUBLE_EQ(norms[1], 0.0);
  la::scale_columns_inv(a, norms.data());
  EXPECT_DOUBLE_EQ(a(0, 0), 0.6);
  EXPECT_DOUBLE_EQ(a(1, 0), 0.8);
  // Zero column is untouched, its norm reported as 1.
  EXPECT_DOUBLE_EQ(norms[1], 1.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
}

TEST(Elementwise, ColumnMaxNorms) {
  Matrix a = Matrix::from_rows({{-3, 1}, {2, -0.5}});
  std::vector<real_t> norms(2);
  la::column_max_norms(a, norms.data());
  EXPECT_DOUBLE_EQ(norms[0], 3.0);
  EXPECT_DOUBLE_EQ(norms[1], 1.0);
}

}  // namespace
}  // namespace cstf
