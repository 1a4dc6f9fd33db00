#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

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
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) acc.data()[j] += arow[j];
  }
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

/// Two doubles in one vector register. Arithmetic on it is per lane, with
/// the same operations as on scalars. Loaded and stored through memcpy,
/// since rows of a matrix are only 8-byte aligned.
typedef double Pair __attribute__((vector_size(16)));

Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_pair(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

/// Cholesky factorisation of (M + damping I) as U = L^T, in place in the
/// upper triangle of `u`, which holds M's lower triangle transposed. Returns
/// false if a non-positive pivot is met. The lower triangle is not touched.
///
/// Every L(i, j) = U(j, i) is one sequential chain: m(i, j) minus
/// L(i, k) L(j, k) for k = 0, 1, ..., j - 1 in that order, then divided by
/// L(j, j) = sqrt(m(j, j) - sum_k L(j, k)^2). The textbook (left-looking)
/// loop computes each chain as a dot product; here each pivot row k instead
/// subtracts its contribution from all later rows (right-looking), which
/// applies the same subtractions to every element in the same ascending-k
/// order, so the bits are the same. The row updates are contiguous axpys,
/// and after each panel of kPanel pivots, the rows below it are updated on
/// the compute pool.
bool cholesky_factor_upper(Matrix& u, double damping) {
  constexpr std::size_t kPanel = 32;
  const std::size_t n = u.rows();
  double* const a = u.data();
  // Row j (from column j on) -= U(k, j) * row k, for pivots [k0, k1) in
  // ascending order; eight of row j's elements at a time stay in registers.
  const auto eliminate = [&](std::size_t j, std::size_t k0, std::size_t k1) {
    double* rj = a + j * n;
    std::size_t i = j;
    for (; i + 8 <= n; i += 8) {
      Pair acc[4];
      for (std::size_t q = 0; q < 4; ++q) acc[q] = load_pair(rj + i + 2 * q);
      for (std::size_t k = k0; k < k1; ++k) {
        const double* rk = a + k * n;
        for (std::size_t q = 0; q < 4; ++q) acc[q] -= rk[j] * load_pair(rk + i + 2 * q);
      }
      for (std::size_t q = 0; q < 4; ++q) store_pair(rj + i + 2 * q, acc[q]);
    }
    for (; i < n; ++i) {
      double v = rj[i];
      for (std::size_t k = k0; k < k1; ++k) v -= a[k * n + j] * a[k * n + i];
      rj[i] = v;
    }
  };
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] += damping;
  for (std::size_t k0 = 0; k0 < n; k0 += kPanel) {
    const std::size_t k1 = std::min(n, k0 + kPanel);
    for (std::size_t k = k0; k < k1; ++k) {
      double* rk = a + k * n;
      if (rk[k] <= 0.0) return false;
      const double ukk = std::sqrt(rk[k]);
      rk[k] = ukk;
      for (std::size_t i = k + 1; i < n; ++i) rk[i] /= ukk;
      for (std::size_t j = k + 1; j < k1; ++j) eliminate(j, k, k + 1);
    }
    // Rows below the panel, dealt out round-robin: row j's work shrinks
    // with j, so contiguous ranges would be unbalanced.
    const std::size_t below = n - k1;
    const std::size_t macs = (k1 - k0) * below * below / 2;
    const std::size_t chunks =
        std::min(compute_threads(), std::max<std::size_t>(1, macs / kMinMacsPerChunk));
    parallel_chunks(chunks, [&](std::size_t c) {
      for (std::size_t j = k1 + c; j < n; j += chunks) eliminate(j, k0, k1);
    });
  }
  return true;
}

// Substitutions for L L^T X = B, in place on X, over a range of X's
// columns. `lu` holds L in its lower triangle and L^T in its upper one, so
// both passes read rows of it. For every column, forward substitution
// computes x_i = (x_i - L(i,0) x_0 - L(i,1) x_1 - ...) / L(i,i) with the
// subtractions in ascending k, and backward substitution the same with
// L^T and descending i. Neither the column range nor the blocking below
// changes any column's operations or their order.

/// W columns starting at x (row stride ld), W a compile-time width: the W
/// running values of row i stay in registers while the other rows stream.
template <std::size_t W>
void substitute_block(const double* lu, std::size_t n, double* x, std::size_t ld) {
  static_assert(W % 2 == 0);
  constexpr std::size_t kPairs = W / 2;
  Pair acc[kPairs];
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = lu + i * n;
    double* xi = x + i * ld;
    for (std::size_t q = 0; q < kPairs; ++q) acc[q] = load_pair(xi + 2 * q);
    for (std::size_t k = 0; k < i; ++k) {
      const double* xk = x + k * ld;
      for (std::size_t q = 0; q < kPairs; ++q) acc[q] -= li[k] * load_pair(xk + 2 * q);
    }
    for (std::size_t q = 0; q < kPairs; ++q) store_pair(xi + 2 * q, acc[q] / li[i]);
  }
  for (std::size_t i = n; i-- > 0;) {
    const double* ui = lu + i * n;  // ui[k] = L(k, i) for k > i
    double* xi = x + i * ld;
    for (std::size_t q = 0; q < kPairs; ++q) acc[q] = load_pair(xi + 2 * q);
    for (std::size_t k = i + 1; k < n; ++k) {
      const double* xk = x + k * ld;
      for (std::size_t q = 0; q < kPairs; ++q) acc[q] -= ui[k] * load_pair(xk + 2 * q);
    }
    for (std::size_t q = 0; q < kPairs; ++q) store_pair(xi + 2 * q, acc[q] / ui[i]);
  }
}

/// One column at a time: the columns left over after the blocks of a system
/// too large for the stack copy.
void substitute_column(const double* lu, std::size_t n, double* x, std::size_t ld) {
  for (std::size_t i = 0; i < n; ++i) {
    double v = x[i * ld];
    for (std::size_t k = 0; k < i; ++k) v -= lu[i * n + k] * x[k * ld];
    x[i * ld] = v / lu[i * n + i];
  }
  for (std::size_t i = n; i-- > 0;) {
    double v = x[i * ld];
    for (std::size_t k = i + 1; k < n; ++k) v -= lu[i * n + k] * x[k * ld];
    x[i * ld] = v / lu[i * n + i];
  }
}

constexpr std::size_t kSubstituteWidth = 8;
/// Systems up to this order solve each column block in a contiguous copy on
/// the stack: X's own rows are often 2 KB apart, a stride at which a block
/// of them evicts itself from L1. A last block narrower than
/// kSubstituteWidth is padded with zero columns, which stay zero.
constexpr std::size_t kMaxPackedOrder = 1024;

/// Columns [c0, c1) of X.
void substitute_range(const Matrix& lu, Matrix& x, std::size_t c0, std::size_t c1) {
  constexpr std::size_t kW = kSubstituteWidth;
  const std::size_t n = lu.rows();
  const std::size_t ld = x.cols();
  if (n > kMaxPackedOrder) {
    std::size_t c = c0;
    for (; c + kW <= c1; c += kW) substitute_block<kW>(lu.data(), n, x.data() + c, ld);
    for (; c < c1; ++c) substitute_column(lu.data(), n, x.data() + c, ld);
    return;
  }
  double block[kMaxPackedOrder * kW];
  for (std::size_t c = c0; c < c1; c += kW) {
    const std::size_t w = std::min(kW, c1 - c);
    double* xc = x.data() + c;
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(xc + i * ld, xc + i * ld + w, block + i * kW);
      std::fill(block + i * kW + w, block + (i + 1) * kW, 0.0);
    }
    substitute_block<kW>(lu.data(), n, block, kW);
    for (std::size_t i = 0; i < n; ++i) std::copy(block + i * kW, block + i * kW + w, xc + i * ld);
  }
}

}  // namespace

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

  // Mirror U = L^T into the lower triangle (see substitute_block), then
  // solve L y = b and L^T x = y. Columns are independent, so ranges of them
  // are solved on the compute pool.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) l(i, j) = l(j, i);
  }
  x.ensure_shape(b.rows(), b.cols());
  std::copy(b.data(), b.data() + b.size(), x.data());
  const std::size_t per_column = std::max<std::size_t>(1, n * n);
  parallel_for_rows(b.cols(), (kMinMacsPerChunk + per_column - 1) / per_column,
                    kSubstituteWidth, [&](std::size_t c0, std::size_t c1) {
                      substitute_range(l, x, c0, c1);
                    });
}

}  // namespace dosc::nn
