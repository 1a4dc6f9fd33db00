#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace dosc::nn {
namespace {

Matrix from_rows(std::initializer_list<std::initializer_list<double>> rows) {
  Matrix m(rows.size(), rows.begin()->size());
  std::size_t r = 0;
  for (const auto& row : rows) {
    std::size_t c = 0;
    for (const double v : row) m(r, c++) = v;
    ++r;
  }
  return m;
}

TEST(Matrix, MatmulKnownResult) {
  const Matrix a = from_rows({{1, 2}, {3, 4}});
  const Matrix b = from_rows({{5, 6}, {7, 8}});
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(2, 3)), std::invalid_argument);
  EXPECT_THROW(matmul_tn(Matrix(2, 3), Matrix(3, 2)), std::invalid_argument);
  EXPECT_THROW(matmul_nt(Matrix(2, 3), Matrix(2, 2)), std::invalid_argument);
}

TEST(Matrix, TransposedVariantsAgree) {
  util::Rng rng(1);
  Matrix a(4, 3);
  Matrix b(4, 5);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal(0, 1);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal(0, 1);
  // A^T B computed directly vs via explicit transpose.
  const Matrix expected = matmul(transpose(a), b);
  const Matrix got = matmul_tn(a, b);
  ASSERT_EQ(got.rows(), expected.rows());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-12);
  }
  // A B^T.
  Matrix c(5, 3);
  for (std::size_t i = 0; i < c.size(); ++i) c.data()[i] = rng.normal(0, 1);
  const Matrix expected2 = matmul(a, transpose(c));
  const Matrix got2 = matmul_nt(a, c);
  for (std::size_t i = 0; i < got2.size(); ++i) {
    EXPECT_NEAR(got2.data()[i], expected2.data()[i], 1e-12);
  }
}

TEST(Matrix, ElementwiseOps) {
  Matrix a = from_rows({{1, 2}, {3, 4}});
  const Matrix b = from_rows({{10, 20}, {30, 40}});
  add_scaled(a, b, 0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 24.0);

  Matrix e = from_rows({{2, 2}});
  ema_update(e, from_rows({{4, 0}}), 0.75);
  EXPECT_DOUBLE_EQ(e(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(e(0, 1), 1.5);

  const Matrix h = hadamard(from_rows({{2, 3}}), from_rows({{4, 5}}));
  EXPECT_DOUBLE_EQ(h(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(h(0, 1), 15.0);
}

TEST(Matrix, RowVectorAndColumnSums) {
  Matrix a = from_rows({{1, 2}, {3, 4}});
  add_row_vector(a, from_rows({{10, 20}}));
  EXPECT_DOUBLE_EQ(a(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 24.0);
  const Matrix s = column_sums(a);
  EXPECT_DOUBLE_EQ(s(0, 0), 24.0);
  EXPECT_DOUBLE_EQ(s(0, 1), 46.0);
}

TEST(Matrix, Norms) {
  const Matrix a = from_rows({{3, 4}});
  EXPECT_DOUBLE_EQ(frobenius_norm(a), 5.0);
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
}

TEST(Matrix, Identity) {
  const Matrix eye = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(eye(i, j), i == j ? 1.0 : 0.0);
  }
}

TEST(Matrix, XavierWithinLimit) {
  util::Rng rng(2);
  const Matrix w = Matrix::xavier(20, 30, rng);
  const double limit = std::sqrt(6.0 / 50.0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::abs(w.data()[i]), limit);
  }
}

TEST(Cholesky, SolvesSpdSystem) {
  // M = L L^T for L = [[2,0],[1,3]] -> M = [[4,2],[2,10]].
  const Matrix m = from_rows({{4, 2}, {2, 10}});
  const Matrix b = from_rows({{6}, {22}});
  const Matrix x = cholesky_solve(m, b, 0.0);
  // Check M x = b.
  const Matrix back = matmul(m, x);
  EXPECT_NEAR(back(0, 0), 6.0, 1e-10);
  EXPECT_NEAR(back(1, 0), 22.0, 1e-10);
}

TEST(Cholesky, DampingActsAsRidge) {
  const Matrix m = from_rows({{1, 0}, {0, 1}});
  const Matrix b = from_rows({{2}, {4}});
  const Matrix x = cholesky_solve(m, b, 1.0);  // (M + I) x = b -> x = b/2
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
}

TEST(Cholesky, RecoversFromSingularByIncreasingDamping) {
  // Singular matrix: rank 1. With damping escalation the solve must still
  // return something finite.
  const Matrix m = from_rows({{1, 1}, {1, 1}});
  const Matrix b = from_rows({{1}, {1}});
  const Matrix x = cholesky_solve(m, b, 0.0);
  EXPECT_TRUE(std::isfinite(x(0, 0)));
  EXPECT_TRUE(std::isfinite(x(1, 0)));
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(cholesky_solve(Matrix(2, 3), Matrix(2, 1), 0.0), std::invalid_argument);
  EXPECT_THROW(cholesky_solve(Matrix(2, 2), Matrix(3, 1), 0.0), std::invalid_argument);
}

TEST(Cholesky, MultipleRightHandSides) {
  const Matrix m = from_rows({{4, 2}, {2, 10}});
  const Matrix b = from_rows({{6, 4}, {22, 2}});
  const Matrix x = cholesky_solve(m, b, 0.0);
  const Matrix back = matmul(m, x);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_NEAR(back.data()[i], b.data()[i], 1e-10);
  }
}

// ---- bit-identity against the textbook factor and solve ----------------
//
// A verbatim copy of the solver as it first shipped: left-looking Cholesky
// (each L(i, j) one dot-product chain) and row-by-row substitution over all
// right-hand sides at once. cholesky_solve reorders the work (right-looking
// panels, column blocks, the compute pool) but never an element's chain of
// operations, so it must match this bit for bit.

bool textbook_factor(Matrix& m, double damping) {
  const std::size_t n = m.rows();
  for (std::size_t i = 0; i < n; ++i) m(i, i) += damping;
  for (std::size_t j = 0; j < n; ++j) {
    double diag = m(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= m(j, k) * m(j, k);
    if (diag <= 0.0) return false;
    const double ljj = std::sqrt(diag);
    m(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = m(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= m(i, k) * m(j, k);
      m(i, j) = v / ljj;
    }
  }
  return true;
}

/// The textbook solve; `attempts` reports how many factorisations it took.
Matrix textbook_solve(const Matrix& m, const Matrix& b, double damping, int& attempts) {
  const std::size_t n = m.rows();
  Matrix l;
  double d = damping;
  bool ok = false;
  for (attempts = 1; attempts <= 8; ++attempts) {
    l = m;
    if (textbook_factor(l, d)) {
      ok = true;
      break;
    }
    d = (d == 0.0) ? 1e-8 : d * 10.0;
  }
  if (!ok) throw std::runtime_error("textbook_solve: not positive definite");
  Matrix x = b;
  const std::size_t cols = b.cols();
  for (std::size_t i = 0; i < n; ++i) {
    double* xi = x.data() + i * cols;
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = l(i, k);
      const double* xk = x.data() + k * cols;
      for (std::size_t c = 0; c < cols; ++c) xi[c] -= lik * xk[c];
    }
    const double diag = l(i, i);
    for (std::size_t c = 0; c < cols; ++c) xi[c] /= diag;
  }
  for (std::size_t i = n; i-- > 0;) {
    double* xi = x.data() + i * cols;
    for (std::size_t k = i + 1; k < n; ++k) {
      const double lki = l(k, i);
      const double* xk = x.data() + k * cols;
      for (std::size_t c = 0; c < cols; ++c) xi[c] -= lki * xk[c];
    }
    const double diag = l(i, i);
    for (std::size_t c = 0; c < cols; ++c) xi[c] /= diag;
  }
  return x;
}

std::size_t bit_mismatches(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return a.size() + b.size() + 1;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(double)) != 0) ++bad;
  }
  return bad;
}

Matrix random_normal(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal(0.0, 1.0);
  return m;
}

TEST(Cholesky, BitIdenticalToTextbookSolve) {
  // Orders on both sides of every edge of the factorisation's register
  // tiles (4 rows x 8 columns) and of its 32-pivot panels, up to K-FAC's
  // 256/257.
  util::Rng rng(17);
  std::vector<std::size_t> orders;
  for (std::size_t n = 1; n <= 9; ++n) orders.push_back(n);
  for (const std::size_t n : {31u, 32u, 33u, 63u, 64u, 65u, 255u, 256u, 257u}) {
    orders.push_back(n);
  }
  for (const std::size_t n : orders) {
    // A well-conditioned SPD matrix (Gram of a tall random matrix, as
    // K-FAC's factors are), solved in one attempt...
    const Matrix x_tall = random_normal(n + 40, n, rng);
    const Matrix spd = matmul_tn(x_tall, x_tall);
    // ...and an indefinite one (rank n / 2 minus 1e-4 I): the factorisation
    // fails until the damping has grown past 1e-4.
    const Matrix x_wide = random_normal(std::max<std::size_t>(1, n / 2), n, rng);
    Matrix indefinite = matmul_tn(x_wide, x_wide);
    for (std::size_t i = 0; i < n; ++i) indefinite(i, i) -= 1e-4;

    for (const std::size_t rhs : {1u, 5u, 256u}) {
      if (rhs == 256u && n < 255u) continue;
      const Matrix b = random_normal(n, rhs, rng);
      int attempts = 0;
      const Matrix expected_spd = textbook_solve(spd, b, 0.01, attempts);
      EXPECT_EQ(attempts, 1) << "order " << n;
      const Matrix expected_retry = textbook_solve(indefinite, b, 0.0, attempts);
      if (n > 1) {
        EXPECT_GT(attempts, 2) << "order " << n << ": no damping retry";
      }
      for (const std::size_t threads : {1u, 4u}) {
        ComputeThreadsGuard guard(threads);
        EXPECT_EQ(bit_mismatches(cholesky_solve(spd, b, 0.01), expected_spd), 0u)
            << "order " << n << ", " << rhs << " rhs, " << threads << " threads";
        EXPECT_EQ(bit_mismatches(cholesky_solve(indefinite, b, 0.0), expected_retry), 0u)
            << "order " << n << ", " << rhs << " rhs (damping retry), " << threads
            << " threads";
      }
    }
  }
}

TEST(Cholesky, RightSolveBitIdenticalToTransposedSolve) {
  // X (L L^T)^-1 row by row must equal ((L L^T)^-1 X^T)^T, the transposes
  // K-FAC's step used to make, bit for bit: each row of X is solved with
  // exactly its column's operations. Row counts straddle the 16-row
  // substitution blocks; order 520 takes the path past the stack block.
  util::Rng rng(23);
  for (const std::size_t n : {1u, 5u, 21u, 256u, 257u, 520u}) {
    const Matrix x_tall = random_normal(n + 40, n, rng);
    const Matrix spd = matmul_tn(x_tall, x_tall);
    Matrix l;
    cholesky_factor(l, spd, 0.01);
    for (const std::size_t rows : {1u, 15u, 17u, 257u}) {
      if (n == 520u && rows == 257u) continue;
      const Matrix b = random_normal(rows, n, rng);
      const Matrix expected = transpose(cholesky_solve(spd, transpose(b), 0.01));
      for (const std::size_t threads : {1u, 4u}) {
        ComputeThreadsGuard guard(threads);
        Matrix x = b;
        cholesky_substitute_right(l, x);
        EXPECT_EQ(bit_mismatches(x, expected), 0u)
            << "order " << n << ", " << rows << " rows, " << threads << " threads";
      }
    }
  }
  Matrix l;
  cholesky_factor(l, Matrix::identity(3), 0.0);
  Matrix wrong(2, 4);
  EXPECT_THROW(cholesky_substitute_right(l, wrong), std::invalid_argument);
}

TEST(Cholesky, LargeSystemBitIdenticalToTextbookSolve) {
  // Past 1024 unknowns the column blocks are solved in place rather than in
  // a stack copy, with leftover columns one at a time.
  util::Rng rng(19);
  const std::size_t n = 1030;
  Matrix m = random_normal(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) m(i, j) = m(j, i) = 0.01 * m(i, j);
    m(i, i) = 2.0 + std::abs(m(i, i));
  }
  const Matrix b = random_normal(n, 9, rng);
  int attempts = 0;
  const Matrix expected = textbook_solve(m, b, 0.0, attempts);
  ComputeThreadsGuard guard(2);
  EXPECT_EQ(bit_mismatches(cholesky_solve(m, b, 0.0), expected), 0u);
}

TEST(Cholesky, SolveIntoReusesWorkspaces) {
  util::Rng rng(18);
  const Matrix x_tall = random_normal(40, 9, rng);
  const Matrix m = matmul_tn(x_tall, x_tall);
  Matrix x;
  Matrix l;
  for (const std::size_t rhs : {3u, 11u, 3u}) {
    const Matrix b = random_normal(9, rhs, rng);
    cholesky_solve_into(x, l, m, b, 0.1);
    EXPECT_EQ(bit_mismatches(x, cholesky_solve(m, b, 0.1)), 0u) << rhs << " rhs";
  }
  const Matrix b = random_normal(9, 2, rng);
  EXPECT_THROW(cholesky_solve_into(l, l, m, b, 0.1), std::invalid_argument);
}

}  // namespace
}  // namespace dosc::nn
