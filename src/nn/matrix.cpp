#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "nn/gemm.hpp"

namespace dosc::nn {

namespace {
void check(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

void check_no_alias(const Matrix& c, const Matrix& a, const Matrix& b, const char* what) {
  if (c.data() != nullptr && (c.data() == a.data() || c.data() == b.data())) {
    throw std::invalid_argument(what);
  }
}
}  // namespace

Matrix Matrix::xavier(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  const double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-limit, limit);
  return m;
}

Matrix Matrix::scaled_normal(std::size_t rows, std::size_t cols, double stddev,
                             util::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal(0.0, stddev);
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(c, a, b);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_tn_into(c, a, b);
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_nt_into(c, a, b);
  return c;
}

void matmul_into(Matrix& c, const Matrix& a, const Matrix& b) {
  check(a.cols() == b.rows(), "matmul: inner dimensions differ");
  check_no_alias(c, a, b, "matmul_into: c aliases an operand");
  c.ensure_shape(a.rows(), b.cols());
  gemm::nn(a.rows(), b.cols(), a.cols(), a.data(), a.cols(), b.data(), b.cols(), c.data(),
           c.cols(), /*accumulate=*/false);
}

void matmul_tn_into(Matrix& c, const Matrix& a, const Matrix& b) {
  check(a.rows() == b.rows(), "matmul_tn: row counts differ");
  check_no_alias(c, a, b, "matmul_tn_into: c aliases an operand");
  c.ensure_shape(a.cols(), b.cols());
  gemm::tn(a.cols(), b.cols(), a.rows(), a.data(), a.cols(), b.data(), b.cols(), c.data(),
           c.cols(), /*accumulate=*/false);
}

void matmul_nt_into(Matrix& c, const Matrix& a, const Matrix& b) {
  check(a.cols() == b.cols(), "matmul_nt: column counts differ");
  check_no_alias(c, a, b, "matmul_nt_into: c aliases an operand");
  c.ensure_shape(a.rows(), b.rows());
  gemm::nt(a.rows(), b.rows(), a.cols(), a.data(), a.cols(), b.data(), b.cols(), c.data(),
           c.cols(), /*accumulate=*/false);
}

void matmul_tn_acc(Matrix& c, const Matrix& a, const Matrix& b) {
  check(a.rows() == b.rows(), "matmul_tn_acc: row counts differ");
  check(c.rows() == a.cols() && c.cols() == b.cols(), "matmul_tn_acc: bad destination shape");
  check_no_alias(c, a, b, "matmul_tn_acc: c aliases an operand");
  gemm::tn(a.cols(), b.cols(), a.rows(), a.data(), a.cols(), b.data(), b.cols(), c.data(),
           c.cols(), /*accumulate=*/true);
}

Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  check(a.cols() == b.rows(), "matmul: inner dimensions differ");
  Matrix c(a.rows(), b.cols());
  gemm::nn_reference(a.rows(), b.cols(), a.cols(), a.data(), a.cols(), b.data(), b.cols(),
                     c.data(), c.cols());
  return c;
}

Matrix matmul_tn_reference(const Matrix& a, const Matrix& b) {
  check(a.rows() == b.rows(), "matmul_tn: row counts differ");
  Matrix c(a.cols(), b.cols());
  gemm::tn_reference(a.cols(), b.cols(), a.rows(), a.data(), a.cols(), b.data(), b.cols(),
                     c.data(), c.cols());
  return c;
}

Matrix matmul_nt_reference(const Matrix& a, const Matrix& b) {
  check(a.cols() == b.cols(), "matmul_nt: column counts differ");
  Matrix c(a.rows(), b.rows());
  gemm::nt_reference(a.rows(), b.rows(), a.cols(), a.data(), a.cols(), b.data(), b.cols(),
                     c.data(), c.cols());
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix t;
  transpose_into(t, a);
  return t;
}

void transpose_into(Matrix& t, const Matrix& a) {
  check(&t != &a, "transpose_into: destination aliases the source");
  t.ensure_shape(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
}

void add_scaled(Matrix& a, const Matrix& b, double scale) {
  check(a.rows() == b.rows() && a.cols() == b.cols(), "add_scaled: shape mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] += scale * b.data()[i];
}

void ema_update(Matrix& a, const Matrix& b, double decay) {
  check(a.rows() == b.rows() && a.cols() == b.cols(), "ema_update: shape mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = a.data()[i] * decay + b.data()[i] * (1.0 - decay);
  }
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  check(a.rows() == b.rows() && a.cols() == b.cols(), "hadamard: shape mismatch");
  Matrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] * b.data()[i];
  return c;
}

void add_row_vector(Matrix& a, const Matrix& row_vec) {
  check(row_vec.rows() == 1 && row_vec.cols() == a.cols(), "add_row_vector: shape mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* arow = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) arow[j] += row_vec.data()[j];
  }
}

Matrix column_sums(const Matrix& a) {
  Matrix s(1, a.cols());
  add_column_sums(s, a);
  return s;
}

void add_column_sums(Matrix& acc, const Matrix& a) {
  check(acc.rows() == 1 && acc.cols() == a.cols(), "add_column_sums: shape mismatch");
  // Each sum runs down its column in row order whatever the split, so
  // ranges of columns go to the compute pool.
  constexpr std::size_t kMinElementsPerChunk = 64 * 1024;
  constexpr std::size_t kColumnAlign = 8;  // one cache line of a row
  const std::size_t rows = std::max<std::size_t>(1, a.rows());
  parallel_for_rows(a.cols(), std::max<std::size_t>(1, kMinElementsPerChunk / rows),
                    kColumnAlign, [&](std::size_t c0, std::size_t c1) {
                      double* sums = acc.data();
                      for (std::size_t i = 0; i < a.rows(); ++i) {
                        const double* arow = a.data() + i * a.cols();
                        for (std::size_t j = c0; j < c1; ++j) sums[j] += arow[j];
                      }
                    });
}

double frobenius_norm(const Matrix& a) noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a.data()[i] * a.data()[i];
  return std::sqrt(sum);
}

double dot(const Matrix& a, const Matrix& b) noexcept {
  double sum = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) sum += a.data()[i] * b.data()[i];
  return sum;
}

namespace {

// ---- Cholesky kernels ----------------------------------------------------
//
// Every kernel below is written once over a vector type V: Pair (two
// doubles, SSE2) for the portable build and Quad (four doubles) for an
// AVX2 instantiation picked at runtime. Both use a separate multiply and
// subtract per lane and the AVX2 one is compiled without FMA, so each
// element sees the same roundings as the scalar loops: the instantiations
// are bit-identical to each other and to the textbook solve.

typedef double Pair __attribute__((vector_size(16)));
typedef double Quad __attribute__((vector_size(32)));

#define DOSC_CHOL_INLINE inline __attribute__((always_inline))

/// Vector loads and stores through memcpy: rows of a matrix are only
/// 8-byte aligned.
template <typename V>
DOSC_CHOL_INLINE void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}
template <typename V>
DOSC_CHOL_INLINE void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// Register tile of the factorisation: kTileRows rows by kTileCols columns.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 8;

/// Upper-triangle elements (j, i), i >= j, of rows [j0, j0 + R) of the
/// n x n row-major `a`, minus U(k, j) U(k, i) for the pivots k in [k0, k1)
/// in ascending order. Full tiles share each pivot row's loads across the
/// R rows; the tile's leading triangle and the last n % 8 columns run as
/// scalar chains in the same order.
template <typename V, std::size_t R>
DOSC_CHOL_INLINE void eliminate_rows(double* a, std::size_t n, std::size_t j0, std::size_t k0,
                                     std::size_t k1) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  constexpr std::size_t kVecs = kTileCols / kLanes;
  const auto chain = [&](std::size_t j, std::size_t i) {
    double v = a[j * n + i];
    for (std::size_t k = k0; k < k1; ++k) v -= a[k * n + j] * a[k * n + i];
    a[j * n + i] = v;
  };
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t i = j0 + r; i < j0 + R && i < n; ++i) chain(j0 + r, i);
  }
  std::size_t c = j0 + R;
  for (; c + kTileCols <= n; c += kTileCols) {
    V acc[R][kVecs];
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t q = 0; q < kVecs; ++q) load(acc[r][q], a + (j0 + r) * n + c + q * kLanes);
    }
    for (std::size_t k = k0; k < k1; ++k) {
      const double* rk = a + k * n;
      V b[kVecs];
      for (std::size_t q = 0; q < kVecs; ++q) load(b[q], rk + c + q * kLanes);
      for (std::size_t r = 0; r < R; ++r) {
        const double u = rk[j0 + r];
        for (std::size_t q = 0; q < kVecs; ++q) acc[r][q] -= u * b[q];
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t q = 0; q < kVecs; ++q) store(a + (j0 + r) * n + c + q * kLanes, acc[r][q]);
    }
  }
  for (; c < n; ++c) {
    for (std::size_t r = 0; r < R; ++r) chain(j0 + r, c);
  }
}

/// Substitutions for L L^T X = B over W columns of X at x (row stride ld),
/// in place. `lu` holds L in its lower triangle and L^T in its upper one,
/// so both passes read rows of it. For every column, forward substitution
/// computes x_i = (x_i - L(i,0) x_0 - L(i,1) x_1 - ...) / L(i,i) with the
/// subtractions in ascending k, and backward substitution the same with
/// L^T and descending i. The W running values of row i stay in registers
/// while the other rows stream.
template <typename V, std::size_t W>
DOSC_CHOL_INLINE void substitute_block(const double* lu, std::size_t n, double* x,
                                       std::size_t ld) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  static_assert(W % kLanes == 0);
  constexpr std::size_t kVecs = W / kLanes;
  V acc[kVecs];
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = lu + i * n;
    double* xi = x + i * ld;
    for (std::size_t q = 0; q < kVecs; ++q) load(acc[q], xi + q * kLanes);
    for (std::size_t k = 0; k < i; ++k) {
      const double* xk = x + k * ld;
      for (std::size_t q = 0; q < kVecs; ++q) {
        V v;
        load(v, xk + q * kLanes);
        acc[q] -= li[k] * v;
      }
    }
    for (std::size_t q = 0; q < kVecs; ++q) store(xi + q * kLanes, acc[q] / li[i]);
  }
  for (std::size_t i = n; i-- > 0;) {
    const double* ui = lu + i * n;  // ui[k] = L(k, i) for k > i
    double* xi = x + i * ld;
    for (std::size_t q = 0; q < kVecs; ++q) load(acc[q], xi + q * kLanes);
    for (std::size_t k = i + 1; k < n; ++k) {
      const double* xk = x + k * ld;
      for (std::size_t q = 0; q < kVecs; ++q) {
        V v;
        load(v, xk + q * kLanes);
        acc[q] -= ui[k] * v;
      }
    }
    for (std::size_t q = 0; q < kVecs; ++q) store(xi + q * kLanes, acc[q] / ui[i]);
  }
}

/// Right-hand sides per substitution block. Each block is an independent
/// set of chains, so the width changes no bits; 16 keeps enough chains in
/// flight to hide the subtraction latency.
constexpr std::size_t kSubstituteWidth = 16;

using EliminateFn = void (*)(double* a, std::size_t n, std::size_t j0, std::size_t k0,
                             std::size_t k1);
using SubstituteFn = void (*)(const double* lu, std::size_t n, double* x, std::size_t ld);

struct CholeskyKernels {
  EliminateFn tile;  ///< kTileRows rows
  EliminateFn row;   ///< one row
  SubstituteFn substitute;
};

void eliminate_tile_baseline(double* a, std::size_t n, std::size_t j0, std::size_t k0,
                             std::size_t k1) {
  eliminate_rows<Pair, kTileRows>(a, n, j0, k0, k1);
}
void eliminate_row_baseline(double* a, std::size_t n, std::size_t j0, std::size_t k0,
                            std::size_t k1) {
  eliminate_rows<Pair, 1>(a, n, j0, k0, k1);
}
void substitute_baseline(const double* lu, std::size_t n, double* x, std::size_t ld) {
  substitute_block<Pair, kSubstituteWidth>(lu, n, x, ld);
}

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define DOSC_CHOL_HAVE_AVX2 1
// AVX2 without FMA: the compiler cannot contract a multiply and a subtract.
__attribute__((target("avx2"))) void eliminate_tile_avx2(double* a, std::size_t n,
                                                         std::size_t j0, std::size_t k0,
                                                         std::size_t k1) {
  eliminate_rows<Quad, kTileRows>(a, n, j0, k0, k1);
}
__attribute__((target("avx2"))) void eliminate_row_avx2(double* a, std::size_t n,
                                                        std::size_t j0, std::size_t k0,
                                                        std::size_t k1) {
  eliminate_rows<Quad, 1>(a, n, j0, k0, k1);
}
__attribute__((target("avx2"))) void substitute_avx2(const double* lu, std::size_t n, double* x,
                                                     std::size_t ld) {
  substitute_block<Quad, kSubstituteWidth>(lu, n, x, ld);
}
#endif

const CholeskyKernels& cholesky_kernels() {
  static const CholeskyKernels set = [] {
#ifdef DOSC_CHOL_HAVE_AVX2
    if (__builtin_cpu_supports("avx2")) {
      return CholeskyKernels{&eliminate_tile_avx2, &eliminate_row_avx2, &substitute_avx2};
    }
#endif
    return CholeskyKernels{&eliminate_tile_baseline, &eliminate_row_baseline,
                           &substitute_baseline};
  }();
  return set;
}

/// Cholesky factorisation of (M + damping I) as U = L^T, in place in the
/// upper triangle of `u`, which holds M's lower triangle transposed. Returns
/// false if a non-positive pivot is met. The lower triangle is not touched.
///
/// Every L(i, j) = U(j, i) is one sequential chain: m(i, j) minus
/// L(i, k) L(j, k) for k = 0, 1, ..., j - 1 in that order, then divided by
/// L(j, j) = sqrt(m(j, j) - sum_k L(j, k)^2). The textbook (left-looking)
/// loop computes each chain as a dot product. Here the pivots come in
/// panels of kPanel: inside a panel each row takes the panel's earlier
/// pivots and is then pivoted itself; after the panel, the rows below it
/// take all of its pivots at once in register tiles, split across the
/// compute pool. Every element still sees the same subtractions in
/// ascending k, so the bits are the textbook's.
/// A chunk of the trailing update holds at least this many multiply-adds.
/// Smaller ones end before a pool helper joins them (at order 256 helpers
/// claimed about 1% of 64k-MAC chunks), so below ~order 300 a
/// factorisation runs on one thread and K-FAC forks over whole
/// factorisations instead.
constexpr std::size_t kMinMacsPerFactorChunk = 4 * kMinMacsPerChunk;

bool cholesky_factor_upper(Matrix& u, double damping) {
  constexpr std::size_t kPanel = 32;
  const CholeskyKernels& ks = cholesky_kernels();
  const std::size_t n = u.rows();
  double* const a = u.data();
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] += damping;
  for (std::size_t k0 = 0; k0 < n; k0 += kPanel) {
    const std::size_t k1 = std::min(n, k0 + kPanel);
    for (std::size_t k = k0; k < k1; ++k) {
      if (k > k0) ks.row(a, n, k, k0, k);
      double* rk = a + k * n;
      if (rk[k] <= 0.0) return false;
      const double ukk = std::sqrt(rk[k]);
      rk[k] = ukk;
      for (std::size_t i = k + 1; i < n; ++i) rk[i] /= ukk;
    }
    // Rows below the panel in groups of kTileRows, dealt out round-robin:
    // a group's work shrinks with its row, so contiguous ranges would be
    // unbalanced.
    const std::size_t below = n - k1;
    const std::size_t groups = (below + kTileRows - 1) / kTileRows;
    const std::size_t macs = (k1 - k0) * below * below / 2;
    const std::size_t chunks = std::min(
        {compute_threads(), groups, std::max<std::size_t>(1, macs / kMinMacsPerFactorChunk)});
    parallel_chunks(chunks, [&](std::size_t c) {
      for (std::size_t g = c; g < groups; g += chunks) {
        const std::size_t j0 = k1 + g * kTileRows;
        if (j0 + kTileRows <= n) {
          ks.tile(a, n, j0, k0, k1);
        } else {
          for (std::size_t j = j0; j < n; ++j) ks.row(a, n, j, k0, k1);
        }
      }
    });
  }
  return true;
}

/// Systems up to this order solve in a block on the stack, larger ones in
/// one on the heap.
constexpr std::size_t kMaxStackOrder = 512;

/// Right-hand sides [r0, r1) of X, kSubstituteWidth at a time: right-hand
/// side r's element i is x.data()[r * rhs_stride + i * elem_stride]
/// (columns of X: 1 and X's row length; rows of X, each the column of X^T
/// it is: X's row length and 1). Each block is copied into a contiguous
/// block as its columns, solved and copied back: rows of X are often 2 KB
/// apart, a stride at which a block of them evicts itself from L1. A
/// last block narrower than kSubstituteWidth is padded with zero columns,
/// which stay zero.
void substitute_range(const Matrix& lu, Matrix& x, std::size_t r0, std::size_t r1,
                      std::size_t rhs_stride, std::size_t elem_stride) {
  constexpr std::size_t kW = kSubstituteWidth;
  const SubstituteFn substitute = cholesky_kernels().substitute;
  const std::size_t n = lu.rows();
  double stack[kMaxStackOrder * kW];
  std::vector<double> heap(n > kMaxStackOrder ? n * kW : 0);
  double* block = n > kMaxStackOrder ? heap.data() : stack;
  for (std::size_t r = r0; r < r1; r += kW) {
    const std::size_t w = std::min(kW, r1 - r);
    double* xr = x.data() + r * rhs_stride;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < kW; ++c) {
        block[i * kW + c] = c < w ? xr[c * rhs_stride + i * elem_stride] : 0.0;
      }
    }
    substitute(lu.data(), n, block, kW);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < w; ++c) xr[c * rhs_stride + i * elem_stride] = block[i * kW + c];
    }
  }
}

/// Chunks of right-hand sides whose substitutions hold about
/// kMinMacsPerChunk multiply-adds, in whole blocks.
template <typename Fn>
void for_rhs_ranges(std::size_t n, std::size_t count, Fn&& fn) {
  const std::size_t per_rhs = std::max<std::size_t>(1, n * n);
  parallel_for_rows(count, (kMinMacsPerChunk + per_rhs - 1) / per_rhs, kSubstituteWidth, fn);
}

}  // namespace

void cholesky_factor(Matrix& l, const Matrix& m, double damping) {
  if (m.rows() != m.cols()) throw std::invalid_argument("cholesky_factor: M not square");
  if (&l == &m) throw std::invalid_argument("cholesky_factor: factor aliases M");
  const std::size_t n = m.rows();
  double d = damping;
  bool ok = false;
  l.ensure_shape(n, n);
  for (int attempt = 0; attempt < 8; ++attempt) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) l(j, i) = m(i, j);
    }
    if (cholesky_factor_upper(l, d)) {
      ok = true;
      break;
    }
    d = (d == 0.0) ? 1e-8 : d * 10.0;
  }
  if (!ok) throw std::runtime_error("cholesky_solve: matrix not positive definite");
  // Mirror U = L^T into the lower triangle (see substitute_block).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) l(i, j) = l(j, i);
  }
}

void cholesky_substitute(const Matrix& l, Matrix& x) {
  if (x.rows() != l.rows()) throw std::invalid_argument("cholesky_solve: shape mismatch");
  for_rhs_ranges(l.rows(), x.cols(), [&](std::size_t c0, std::size_t c1) {
    substitute_range(l, x, c0, c1, 1, x.cols());
  });
}

void cholesky_substitute_right(const Matrix& l, Matrix& x) {
  if (x.cols() != l.rows()) throw std::invalid_argument("cholesky_solve_right: shape mismatch");
  for_rhs_ranges(l.rows(), x.rows(), [&](std::size_t r0, std::size_t r1) {
    substitute_range(l, x, r0, r1, x.cols(), 1);
  });
}

Matrix cholesky_solve(const Matrix& m, const Matrix& b, double damping) {
  Matrix x;
  Matrix l;
  cholesky_solve_into(x, l, m, b, damping);
  return x;
}

void cholesky_solve_into(Matrix& x, Matrix& l, const Matrix& m, const Matrix& b,
                         double damping) {
  if (m.rows() != m.cols()) throw std::invalid_argument("cholesky_solve: M not square");
  if (m.rows() != b.rows()) throw std::invalid_argument("cholesky_solve: shape mismatch");
  if (&x == &m || &x == &b || &l == &m || &l == &b || &x == &l) {
    throw std::invalid_argument("cholesky_solve_into: workspace aliases an operand");
  }
  cholesky_factor(l, m, damping);
  x.ensure_shape(b.rows(), b.cols());
  std::copy(b.data(), b.data() + b.size(), x.data());
  cholesky_substitute(l, x);
}

}  // namespace dosc::nn
