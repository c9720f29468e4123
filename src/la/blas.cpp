#include "la/blas.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/simd.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"

namespace cstf::la {

index_t op_rows(const Matrix& a, Op op) {
  return op == Op::kNone ? a.rows() : a.cols();
}
index_t op_cols(const Matrix& a, Op op) {
  return op == Op::kNone ? a.cols() : a.rows();
}

namespace {

// NN/NT kernel: a register-blocked micro-kernel over tiles of kTileRows(V) x
// kTileCols elements of C, written once with GCC vector extensions and
// compiled for several instruction sets (common/isa.hpp).
//
// Bitwise contract (every variant, every tile position, every shape): each
// C(i,j) starts from 0 (beta == 0), C(i,j) (beta == 1) or beta*C(i,j), then
// takes `+= (alpha*b(l,j)) * a(i,l)` for l ascending, skipping the terms
// whose alpha*b(l,j) == 0 — the operation sequence of a plain column-axpy
// loop. So a row of C never depends on the rows around it (the serve
// batched-vs-single fold-in parity relies on this). The multiply and the add
// stay separate IEEE operations because cstf_la builds with
// -ffp-contract=off; without it the AVX-512 variant contracts them into FMA.
// The zero test runs only in panels that hold a zero (flagged at staging);
// elsewhere it could never skip a term, so leaving it out keeps the bits.

using namespace simd;

constexpr index_t kTileCols = 4;
// Rows per parallel work unit of gemm(); a multiple of every variant's tile
// height.
constexpr index_t kRowBlock = 16;

template <class V>
constexpr index_t kTileRows = 2 * kLanes<V>;

struct GemmArgs {
  index_t ld = 0;  // leading dimension of A and C (both column-major)
  index_t n = 0, k = 0;
  const real_t* a = nullptr;  // k columns
  // alpha*op(B) staged in kTileCols-wide column panels, zero-padded past
  // column n: bs[(t*k + l)*kTileCols + j] = alpha*op(B)(l, t*kTileCols + j),
  // and has_zero[t] != 0 iff panel t holds a zero.
  const real_t* bs = nullptr;
  const char* has_zero = nullptr;
  real_t beta = 0.0;
  real_t* c = nullptr;  // n columns
};

// One full tile: `a` at A(i0, 0) (column stride lda), `bs` at the tile's
// staged panel, `c` at C(i0, j0) (column stride ldc).
template <class V, bool kSkipZeros>
[[gnu::always_inline]] inline void gemm_tile(index_t k, const real_t* a,
                                             index_t lda, const real_t* bs,
                                             real_t beta, real_t* c,
                                             index_t ldc) {
  constexpr index_t kHalf = kLanes<V>;
  V acc[kTileCols][2];
#pragma GCC unroll 8
  for (index_t j = 0; j < kTileCols; ++j) {
    if (beta == 0.0) {
      acc[j][0] = V{};
      acc[j][1] = V{};
    } else {
      load(acc[j][0], c + j * ldc);
      load(acc[j][1], c + j * ldc + kHalf);
      if (beta != 1.0) {
        acc[j][0] *= beta;
        acc[j][1] *= beta;
      }
    }
  }
  for (index_t l = 0; l < k; ++l) {
    V a0, a1;
    load(a0, a + l * lda);
    load(a1, a + l * lda + kHalf);
    const real_t* bl = bs + l * kTileCols;
#pragma GCC unroll 8
    for (index_t j = 0; j < kTileCols; ++j) {
      const real_t ab = bl[j];
      if constexpr (kSkipZeros) {
        if (ab == 0.0) continue;
      }
      acc[j][0] += ab * a0;
      acc[j][1] += ab * a1;
    }
  }
#pragma GCC unroll 8
  for (index_t j = 0; j < kTileCols; ++j) {
    store(c + j * ldc, acc[j][0]);
    store(c + j * ldc + kHalf, acc[j][1]);
  }
}

// The tile of panel t, with the zero test only if the panel needs it.
template <class V>
[[gnu::always_inline]] inline void gemm_panel_tile(const GemmArgs& g,
                                                   index_t t, const real_t* a,
                                                   index_t lda, real_t* c,
                                                   index_t ldc) {
  const real_t* bs = g.bs + t * g.k * kTileCols;
  if (g.has_zero[t] != 0) {
    gemm_tile<V, true>(g.k, a, lda, bs, g.beta, c, ldc);
  } else {
    gemm_tile<V, false>(g.k, a, lda, bs, g.beta, c, ldc);
  }
}

// Rows [lo, hi) of C. Edge tiles (a row tail or a column tail) run the same
// tile code on zero-padded local copies of A and C; padded B columns are
// zero, so they are skipped like any other zero term.
template <class V>
[[gnu::always_inline]] inline void gemm_rows(const GemmArgs& g, index_t lo,
                                             index_t hi) {
  constexpr index_t kRows = kTileRows<V>;
  const index_t panels = (g.n + kTileCols - 1) / kTileCols;
  std::vector<real_t> a_pad;
  alignas(64) real_t c_pad[kRows * kTileCols];
  for (index_t i0 = lo; i0 < hi; i0 += kRows) {
    const index_t rows = std::min(kRows, hi - i0);
    const real_t* a = g.a + i0;
    index_t lda = g.ld;
    if (rows < kRows) {
      a_pad.assign(static_cast<std::size_t>(kRows * g.k), 0.0);
      for (index_t l = 0; l < g.k; ++l) {
        std::copy_n(g.a + l * g.ld + i0, rows, a_pad.data() + l * kRows);
      }
      a = a_pad.data();
      lda = kRows;
    }
    for (index_t t = 0; t < panels; ++t) {
      const index_t j0 = t * kTileCols;
      const index_t cols = std::min(kTileCols, g.n - j0);
      real_t* c = g.c + j0 * g.ld + i0;
      if (rows == kRows && cols == kTileCols) {
        gemm_panel_tile<V>(g, t, a, lda, c, g.ld);
        continue;
      }
      std::fill_n(c_pad, kRows * kTileCols, 0.0);
      for (index_t j = 0; j < cols; ++j) {
        std::copy_n(c + j * g.ld, rows, c_pad + j * kRows);
      }
      gemm_panel_tile<V>(g, t, a, lda, c_pad, kRows);
      for (index_t j = 0; j < cols; ++j) {
        std::copy_n(c_pad + j * kRows, rows, c + j * g.ld);
      }
    }
  }
}

void gemm_rows_portable(const GemmArgs& g, index_t lo, index_t hi) {
  gemm_rows<v2d>(g, lo, hi);
}

#if defined(__x86_64__) && defined(__GNUC__)
[[gnu::target("avx2")]] void gemm_rows_avx2(const GemmArgs& g, index_t lo,
                                            index_t hi) {
  gemm_rows<v4d>(g, lo, hi);
}

[[gnu::target("avx512f")]] void gemm_rows_avx512f(const GemmArgs& g,
                                                  index_t lo, index_t hi) {
  gemm_rows<v8d>(g, lo, hi);
}
#endif

// C = alpha * A * op(B) + beta * C for op(B) in {B, B^T}.
void gemm_nx(Isa isa, Op op_b, real_t alpha, const Matrix& a,
             const Matrix& b, real_t beta, Matrix& c) {
  const index_t m = c.rows();
  if (m == 0 || c.cols() == 0) return;
  const GemmPanels panels(alpha, b, op_b, isa);
  // Parallel over row blocks of C, so tall C (m >> n) spreads across workers.
  const index_t blocks = (m + kRowBlock - 1) / kRowBlock;
  parallel_for_blocked(0, blocks, [&](index_t lo, index_t hi) {
    panels.multiply_rows(a.data(), beta, c.data(), m, lo * kRowBlock,
                         std::min(hi * kRowBlock, m));
  }, /*grain=*/kParallelGrainDefault / kRowBlock);
}

void gemm_tn(real_t alpha, const Matrix& a, const Matrix& b, real_t beta,
             Matrix& c) {
  // C = alpha * A^T * B: C(i,j) = dot(A(:,i), B(:,j)). C is small (RxR-ish);
  // parallelize over C's columns.
  const index_t m = c.rows(), n = c.cols(), k = a.rows();
  parallel_for(0, n, [&](index_t j) {
    const real_t* bj = b.col(j);
    real_t* cj = c.col(j);
    for (index_t i = 0; i < m; ++i) {
      const real_t* ai = a.col(i);
      real_t acc = 0.0;
      for (index_t l = 0; l < k; ++l) acc += ai[l] * bj[l];
      cj[i] = alpha * acc + (beta == 0.0 ? 0.0 : beta * cj[i]);
    }
  }, /*grain=*/1);
}

void gemm_tt(real_t alpha, const Matrix& a, const Matrix& b, real_t beta,
             Matrix& c) {
  // C(i,j) = alpha * dot(A(:,i), B(j,:)); B row access is strided but TT only
  // appears in tests, never in a kernel hot path.
  const index_t m = c.rows(), n = c.cols(), k = a.rows();
  parallel_for(0, n, [&](index_t j) {
    real_t* cj = c.col(j);
    for (index_t i = 0; i < m; ++i) {
      const real_t* ai = a.col(i);
      real_t acc = 0.0;
      for (index_t l = 0; l < k; ++l) acc += ai[l] * b(j, l);
      cj[i] = alpha * acc + (beta == 0.0 ? 0.0 : beta * cj[i]);
    }
  }, /*grain=*/1);
}

}  // namespace

void gemm(Op op_a, Op op_b, real_t alpha, const Matrix& a, const Matrix& b,
          real_t beta, Matrix& c) {
  CSTF_CHECK_MSG(op_cols(a, op_a) == op_rows(b, op_b),
                 "gemm inner dims: " << op_cols(a, op_a) << " vs "
                                     << op_rows(b, op_b));
  CSTF_CHECK_MSG(c.rows() == op_rows(a, op_a) && c.cols() == op_cols(b, op_b),
                 "gemm output shape " << c.rows() << "x" << c.cols());
  if (op_a == Op::kNone) {
    return gemm_nx(widest_isa(), op_b, alpha, a, b, beta, c);
  }
  if (op_b == Op::kNone) return gemm_tn(alpha, a, b, beta, c);
  return gemm_tt(alpha, a, b, beta, c);
}

GemmPanels::GemmPanels(real_t alpha, const Matrix& b, Op op_b, Isa isa)
    : k_(op_rows(b, op_b)), n_(op_cols(b, op_b)), isa_(isa) {
  CSTF_CHECK_MSG(isa_supported(isa),
                 "gemm micro-kernel not supported on this CPU");
  const index_t panels = (n_ + kTileCols - 1) / kTileCols;
  panels_.assign(static_cast<std::size_t>(panels * k_ * kTileCols), 0.0);
  for (index_t j = 0; j < n_; ++j) {
    real_t* panel =
        panels_.data() + (j / kTileCols) * k_ * kTileCols + j % kTileCols;
    for (index_t l = 0; l < k_; ++l) {
      panel[l * kTileCols] = alpha * (op_b == Op::kNone ? b(l, j) : b(j, l));
    }
  }
  // Padded columns past n are zero, so a column-tail panel is flagged too.
  has_zero_.resize(static_cast<std::size_t>(panels));
  for (index_t t = 0; t < panels; ++t) {
    const auto first = panels_.begin() + t * k_ * kTileCols;
    has_zero_[static_cast<std::size_t>(t)] =
        std::any_of(first, first + k_ * kTileCols,
                    [](real_t v) { return v == 0.0; });
  }
}

void GemmPanels::multiply_rows(const real_t* a, real_t beta, real_t* c,
                               index_t ld, index_t lo, index_t hi) const {
  GemmArgs g;
  g.ld = ld;
  g.n = n_;
  g.k = k_;
  g.a = a;
  g.bs = panels_.data();
  g.has_zero = has_zero_.data();
  g.beta = beta;
  g.c = c;
#if defined(__x86_64__) && defined(__GNUC__)
  if (isa_ == Isa::kAvx512f) return gemm_rows_avx512f(g, lo, hi);
  if (isa_ == Isa::kAvx2) return gemm_rows_avx2(g, lo, hi);
#endif
  gemm_rows_portable(g, lo, hi);
}

namespace detail {

void gemm_nn(Isa isa, real_t alpha, const Matrix& a, const Matrix& b,
             real_t beta, Matrix& c) {
  CSTF_CHECK(a.cols() == b.rows() && c.rows() == a.rows() &&
             c.cols() == b.cols());
  gemm_nx(isa, Op::kNone, alpha, a, b, beta, c);
}

}  // namespace detail

namespace {

// Gram kernel: register blocks of kGramI rows i by kGramJ vectors of columns
// j of the upper triangle of S, one column j per vector lane. A block sweeps
// the rows of A in panels of kGramPanel, its columns j transposed into a
// small row-major buffer, and adds broadcast(a(l,i)) * a(l, j..j+lanes) for
// l ascending.
//
// Bitwise contract (every variant, every block position, every shape): each
// S(i,j), i <= j, starts from +0 and takes `+= a(l,i) * a(l,j)` for l
// ascending — the operation sequence of a scalar column-dot loop. Lanes are
// independent elements, and FP contraction is off for cstf_la, so the
// multiply and the add never fuse.

constexpr index_t kGramI = 4;
constexpr index_t kGramJ = 2;
constexpr index_t kGramPanel = 64;
// Row blocks per work unit: a unit transposes its columns j once per panel
// and reuses them for this many row blocks.
constexpr index_t kGramUnitBlocks = 4;

template <class V>
constexpr index_t kGramWidth =
    kGramJ * kLanes<V>;

// One work unit: columns [j0, j0 + width) of S against the row blocks
// [b0, b1) (rows [b0 * kGramI, b1 * kGramI) of S).
struct GramUnit {
  index_t j0 = 0, b0 = 0, b1 = 0;
};

template <class V>
[[gnu::always_inline]] inline void gram_unit(const Matrix& a, Matrix& s,
                                             const GramUnit& u) {
  constexpr index_t kWidth = kGramWidth<V>;
  const index_t n = a.rows(), r = a.cols();
  const index_t cols = std::min(kWidth, r - u.j0);
  const index_t blocks = u.b1 - u.b0;
  alignas(64) real_t panel[kGramPanel * kWidth];
  // Column pointers of the unit's rows i; a row past the last column of A
  // reads column r - 1 and its results are dropped.
  const real_t* ai[kGramUnitBlocks][kGramI];
  for (index_t b = 0; b < blocks; ++b) {
    for (index_t ii = 0; ii < kGramI; ++ii) {
      ai[b][ii] = a.col(std::min((u.b0 + b) * kGramI + ii, r - 1));
    }
  }
  V acc[kGramUnitBlocks][kGramI][kGramJ] = {};
  for (index_t l0 = 0; l0 < n; l0 += kGramPanel) {
    const index_t rows = std::min(kGramPanel, n - l0);
    for (index_t c = 0; c < kWidth; ++c) {
      if (c < cols) {
        const real_t* src = a.col(u.j0 + c) + l0;
        for (index_t p = 0; p < rows; ++p) panel[p * kWidth + c] = src[p];
      } else {
        for (index_t p = 0; p < rows; ++p) panel[p * kWidth + c] = 0.0;
      }
    }
    for (index_t b = 0; b < blocks; ++b) {
      V c[kGramI][kGramJ];
#pragma GCC unroll 8
      for (index_t ii = 0; ii < kGramI; ++ii) {
        for (index_t q = 0; q < kGramJ; ++q) c[ii][q] = acc[b][ii][q];
      }
      const real_t* const* col = ai[b];
      for (index_t p = 0; p < rows; ++p) {
        V y[kGramJ];
#pragma GCC unroll 8
        for (index_t q = 0; q < kGramJ; ++q) {
          load(y[q], panel + p * kWidth + q * kLanes<V>);
        }
#pragma GCC unroll 8
        for (index_t ii = 0; ii < kGramI; ++ii) {
          const real_t x = col[ii][l0 + p];
          for (index_t q = 0; q < kGramJ; ++q) c[ii][q] += x * y[q];
        }
      }
#pragma GCC unroll 8
      for (index_t ii = 0; ii < kGramI; ++ii) {
        for (index_t q = 0; q < kGramJ; ++q) acc[b][ii][q] = c[ii][q];
      }
    }
  }
  for (index_t b = 0; b < blocks; ++b) {
    for (index_t ii = 0; ii < kGramI; ++ii) {
      const index_t i = (u.b0 + b) * kGramI + ii;
      for (index_t jj = std::max<index_t>(0, i - u.j0); jj < cols; ++jj) {
        s(i, u.j0 + jj) = acc[b][ii][jj / kLanes<V>][jj % kLanes<V>];
      }
    }
  }
}

void gram_unit_portable(const Matrix& a, Matrix& s, const GramUnit& u) {
  gram_unit<v2d>(a, s, u);
}

#if defined(__x86_64__) && defined(__GNUC__)
[[gnu::target("avx2")]] void gram_unit_avx2(const Matrix& a, Matrix& s,
                                            const GramUnit& u) {
  gram_unit<v4d>(a, s, u);
}

[[gnu::target("avx512f")]] void gram_unit_avx512f(const Matrix& a, Matrix& s,
                                                  const GramUnit& u) {
  gram_unit<v8d>(a, s, u);
}
#endif

}  // namespace

namespace detail {

void gram(Isa isa, const Matrix& a, Matrix& s) {
  const index_t r = a.cols();
  CSTF_CHECK(s.rows() == r && s.cols() == r);
  CSTF_CHECK_MSG(isa_supported(isa),
                 "gram kernel not supported on this CPU");
  void (*unit_fn)(const Matrix&, Matrix&, const GramUnit&) = gram_unit_portable;
  index_t width = kGramWidth<v2d>;
#if defined(__x86_64__) && defined(__GNUC__)
  if (isa == Isa::kAvx512f) {
    unit_fn = gram_unit_avx512f;
    width = kGramWidth<v8d>;
  } else if (isa == Isa::kAvx2) {
    unit_fn = gram_unit_avx2;
    width = kGramWidth<v4d>;
  }
#endif
  // Upper triangle: column strip [j0, j0 + width) needs the row blocks that
  // start above its last column, in units of kGramUnitBlocks.
  std::vector<GramUnit> units;
  for (index_t j0 = 0; j0 < r; j0 += width) {
    const index_t blocks = (std::min(j0 + width, r) + kGramI - 1) / kGramI;
    for (index_t b0 = 0; b0 < blocks; b0 += kGramUnitBlocks) {
      units.push_back({j0, b0, std::min(b0 + kGramUnitBlocks, blocks)});
    }
  }
  parallel_for(0, static_cast<index_t>(units.size()), [&](index_t k) {
    unit_fn(a, s, units[static_cast<std::size_t>(k)]);
  }, /*grain=*/1);
  for (index_t j = 0; j < r; ++j) {
    for (index_t i = j + 1; i < r; ++i) s(i, j) = s(j, i);
  }
}

}  // namespace detail

void gram(const Matrix& a, Matrix& s) { detail::gram(widest_isa(), a, s); }

void gemv(Op op_a, real_t alpha, const Matrix& a, const real_t* x, real_t beta,
          real_t* y) {
  const index_t m = op_rows(a, op_a);
  if (op_a == Op::kNone) {
    if (beta == 0.0) {
      for (index_t i = 0; i < m; ++i) y[i] = 0.0;
    } else if (beta != 1.0) {
      scal(m, beta, y);
    }
    for (index_t j = 0; j < a.cols(); ++j) {
      axpy(a.rows(), alpha * x[j], a.col(j), y);
    }
  } else {
    for (index_t j = 0; j < a.cols(); ++j) {
      const real_t v = alpha * dot(a.rows(), a.col(j), x);
      y[j] = v + (beta == 0.0 ? 0.0 : beta * y[j]);
    }
  }
}

void geam(Op op_a, Op op_b, real_t alpha, const Matrix& a, real_t beta,
          const Matrix& b, Matrix& c) {
  CSTF_CHECK(c.rows() == op_rows(a, op_a) && c.cols() == op_cols(a, op_a));
  CSTF_CHECK(op_rows(a, op_a) == op_rows(b, op_b) &&
             op_cols(a, op_a) == op_cols(b, op_b));
  const index_t m = c.rows(), n = c.cols();
  if (op_a == Op::kNone && op_b == Op::kNone) {
    // Index-aligned elementwise update: element i of C depends only on
    // element i of A and B, so C aliasing either input is well-defined even
    // across parallel blocks (the unfused ADMM updates U in place this way).
    const real_t* pa = a.data();
    const real_t* pb = b.data();
    real_t* pc = c.data();
    parallel_for_blocked(0, m * n, [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) pc[i] = alpha * pa[i] + beta * pb[i];
    });
    return;
  }
  // A transposed operand is read at (j,i) while C is written at (i,j); an
  // aliased output would read elements it already overwrote.
  CSTF_CHECK_MSG(op_a == Op::kNone || c.data() != a.data(),
                 "geam: output must not alias a transposed A operand");
  CSTF_CHECK_MSG(op_b == Op::kNone || c.data() != b.data(),
                 "geam: output must not alias a transposed B operand");
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      const real_t va = (op_a == Op::kNone) ? a(i, j) : a(j, i);
      const real_t vb = (op_b == Op::kNone) ? b(i, j) : b(j, i);
      c(i, j) = alpha * va + beta * vb;
    }
  }
}

void axpy(index_t n, real_t alpha, const real_t* x, real_t* y) {
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scal(index_t n, real_t alpha, real_t* x) {
  for (index_t i = 0; i < n; ++i) x[i] *= alpha;
}

real_t dot(index_t n, const real_t* x, const real_t* y) {
  real_t acc = 0.0;
  for (index_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

real_t nrm2(index_t n, const real_t* x) { return std::sqrt(dot(n, x, x)); }

real_t frobenius_norm_sq(const Matrix& a) {
  const real_t* p = a.data();
  const index_t n = a.size();
  return parallel_sum(0, n, [&](index_t i) { return p[i] * p[i]; });
}

real_t frobenius_norm(const Matrix& a) { return std::sqrt(frobenius_norm_sq(a)); }

}  // namespace cstf::la
