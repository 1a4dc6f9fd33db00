// Tests for the tiled GEMM kernels behind the Matrix API.
//
// The kernels promise more than approximate correctness: every output
// element is reduced over k in ascending order by a single accumulator, so
// tiled results are BIT-IDENTICAL to the naive reference kernels (compiled
// at the same ISA level) and invariant under the compute-thread count.
// These tests therefore use exact floating-point equality throughout.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "nn/gemm.hpp"
#include "nn/matrix.hpp"
#include "nn/parallel.hpp"
#include "util/rng.hpp"

namespace dosc::nn {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal(0.0, 1.0);
  return m;
}

/// Number of elements that are not bit-identical (counts, so a systematic
/// failure reports one number instead of thousands of EXPECT lines).
std::size_t mismatches(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return a.size() + b.size() + 1;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(double)) != 0) ++bad;
  }
  return bad;
}

// Shapes straddling every edge case of the 4x8 register tile and the packed
// panels: below/at/above the tile in each dimension, odd remainders, and a
// couple of sizes large enough to hit the multi-tile loops.
const std::size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 17, 31, 33};

TEST(Gemm, TiledMatchesReferenceExhaustively) {
  ComputeThreadsGuard guard(1);
  util::Rng rng(42);
  for (std::size_t m : kSizes) {
    for (std::size_t n : kSizes) {
      for (std::size_t k : kSizes) {
        const Matrix a = random_matrix(m, k, rng);
        const Matrix b = random_matrix(k, n, rng);
        EXPECT_EQ(mismatches(matmul(a, b), matmul_reference(a, b)), 0u)
            << "nn " << m << "x" << n << "x" << k;

        const Matrix at = random_matrix(k, m, rng);
        EXPECT_EQ(mismatches(matmul_tn(at, b), matmul_tn_reference(at, b)), 0u)
            << "tn " << m << "x" << n << "x" << k;

        const Matrix bt = random_matrix(n, k, rng);
        EXPECT_EQ(mismatches(matmul_nt(a, bt), matmul_nt_reference(a, bt)), 0u)
            << "nt " << m << "x" << n << "x" << k;
      }
    }
  }
}

TEST(Gemm, ThreadCountInvariance) {
  util::Rng rng(43);
  const std::size_t shapes[][3] = {{67, 45, 33}, {128, 64, 96}, {257, 129, 65}};
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s[0], s[2], rng);
    const Matrix b = random_matrix(s[2], s[1], rng);
    const Matrix at = random_matrix(s[2], s[0], rng);
    const Matrix bt = random_matrix(s[1], s[2], rng);
    Matrix c1, c4, tn1, tn4, nt1, nt4;
    {
      ComputeThreadsGuard guard(1);
      matmul_into(c1, a, b);
      matmul_tn_into(tn1, at, b);
      matmul_nt_into(nt1, a, bt);
    }
    {
      ComputeThreadsGuard guard(4);
      matmul_into(c4, a, b);
      matmul_tn_into(tn4, at, b);
      matmul_nt_into(nt4, a, bt);
    }
    EXPECT_EQ(mismatches(c1, c4), 0u) << "nn " << s[0] << "x" << s[1] << "x" << s[2];
    EXPECT_EQ(mismatches(tn1, tn4), 0u) << "tn " << s[0] << "x" << s[1] << "x" << s[2];
    EXPECT_EQ(mismatches(nt1, nt4), 0u) << "nt " << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(Gemm, GramMatchesFullTransposeProduct) {
  util::Rng rng(44);
  std::vector<std::pair<std::size_t, std::size_t>> shapes = {{257, 2500}};
  for (std::size_t m : {1u, 5u, 8u, 13u, 33u, 64u}) {
    for (std::size_t k : {1u, 7u, 32u, 101u}) shapes.emplace_back(m, k);
  }
  for (const auto& [m, k] : shapes) {
    const Matrix a = random_matrix(k, m, rng);
    Matrix c(m, m);
    gemm::gram(m, k, a.data(), a.cols(), c.data(), c.cols());
    // Full triangle (mirror included) must be bit-identical to the
    // unrestricted A^T A.
    EXPECT_EQ(mismatches(c, matmul_tn(a, a)), 0u) << "gram " << m << "x" << k;
  }
}

// The tn/gram path packs A^T in blocks of kTnBlockK k-steps and carries the
// partial sums between blocks: probe both sides of every block edge, with
// row counts off the 4-row tile and wide enough for several row and column
// blocks.
const std::size_t kBlockEdgeKs[] = {gemm::kTnBlockK - 1, gemm::kTnBlockK, gemm::kTnBlockK + 1,
                                    2 * gemm::kTnBlockK + 3, 2500};

TEST(Gemm, TnAndGramMatchReferenceAcrossKBlocks) {
  util::Rng rng(49);
  const std::pair<std::size_t, std::size_t> shapes[] = {{7, 9}, {67, 45}, {130, 261}};
  for (const std::size_t k : kBlockEdgeKs) {
    for (const auto& [m, n] : shapes) {
      const Matrix a = random_matrix(k, m, rng);
      const Matrix b = random_matrix(k, n, rng);
      const Matrix expected = matmul_tn_reference(a, b);
      for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
        ComputeThreadsGuard guard(threads);
        EXPECT_EQ(mismatches(matmul_tn(a, b), expected), 0u)
            << "tn " << m << "x" << n << "x" << k << " threads " << threads;
      }
    }
    for (const std::size_t m : {7u, 69u, 257u}) {
      const Matrix a = random_matrix(k, m, rng);
      const Matrix expected = matmul_tn_reference(a, a);
      for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
        ComputeThreadsGuard guard(threads);
        Matrix c(m, m);
        gemm::gram(m, k, a.data(), a.cols(), c.data(), c.cols());
        EXPECT_EQ(mismatches(c, expected), 0u)
            << "gram " << m << "x" << k << " threads " << threads;
      }
    }
  }
}

TEST(Gemm, AccumulateEqualsProductPlusAddition) {
  util::Rng rng(45);
  // One k-block, and several (the product is still added to C once, after
  // its last block).
  for (const std::size_t k : {std::size_t{29}, 2 * gemm::kTnBlockK + 3}) {
    const Matrix a = random_matrix(k, 11, rng);
    const Matrix b = random_matrix(k, 19, rng);
    Matrix c = random_matrix(11, 19, rng);
    Matrix expected = c;
    const Matrix product = matmul_tn(a, b);
    for (std::size_t i = 0; i < expected.size(); ++i) expected.data()[i] += product.data()[i];
    matmul_tn_acc(c, a, b);
    EXPECT_EQ(mismatches(c, expected), 0u) << "k " << k;
  }
}

TEST(Gemm, IntoReusesDestinationAcrossShapes) {
  util::Rng rng(46);
  Matrix c;
  // Grow, shrink, regrow: the destination is reshaped in place each time
  // and the result must match a freshly allocated product.
  for (const auto& s : {std::pair<std::size_t, std::size_t>{24, 16}, {8, 4}, {33, 17}}) {
    const Matrix a = random_matrix(s.first, 21, rng);
    const Matrix b = random_matrix(21, s.second, rng);
    matmul_into(c, a, b);
    ASSERT_EQ(c.rows(), s.first);
    ASSERT_EQ(c.cols(), s.second);
    EXPECT_EQ(mismatches(c, matmul_reference(a, b)), 0u);
  }
}

TEST(Gemm, ShapeAndAliasErrors) {
  util::Rng rng(47);
  Matrix a = random_matrix(4, 3, rng);
  Matrix b = random_matrix(3, 5, rng);
  Matrix wrong = random_matrix(4, 5, rng);
  Matrix c;
  EXPECT_THROW(matmul_into(c, a, wrong), std::invalid_argument);
  EXPECT_THROW(matmul_tn_into(c, a, b), std::invalid_argument);
  EXPECT_THROW(matmul_nt_into(c, a, b), std::invalid_argument);
  EXPECT_THROW(matmul_into(a, a, b), std::invalid_argument);  // c aliases a
  Matrix acc(3, 4);  // wrong destination shape for tn_acc (wants 3x5)
  EXPECT_THROW(matmul_tn_acc(acc, a, b), std::invalid_argument);
}

TEST(Gemm, FlopCounterAdvances) {
  util::Rng rng(48);
  const Matrix a = random_matrix(16, 24, rng);
  const Matrix b = random_matrix(24, 8, rng);
  const std::uint64_t flops0 = gemm::flop_count();
  const std::uint64_t calls0 = gemm::call_count();
  (void)matmul(a, b);
  EXPECT_EQ(gemm::flop_count() - flops0, 2ull * 16 * 8 * 24);
  EXPECT_EQ(gemm::call_count() - calls0, 1u);
  EXPECT_TRUE(gemm::isa_name() != nullptr);
}

TEST(Parallel, ChunksCoverEveryIndexExactlyOnce) {
  ComputeThreadsGuard guard(4);
  for (std::size_t n : {0u, 1u, 3u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    parallel_chunks(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "n=" << n;
  }
}

TEST(Parallel, BackToBackTinyJobsRunEveryChunkOnce) {
  // Tiny jobs finish before some workers wake up. A worker that woke late
  // used to be admitted to the finished job, take a ticket of the next job
  // and run a chunk twice; the next caller then waited forever on a
  // pending-chunk count driven below zero. (Here that showed as a hang in
  // about one run in three of 250k jobs.)
  ComputeThreadsGuard guard(4);
  std::vector<std::atomic<int>> hits(64);
  std::size_t wrong = 0;
  for (int round = 0; round < 20000; ++round) {
    for (const std::size_t n : {1u, 3u, 7u, 2u, 64u}) {
      for (std::size_t i = 0; i < n; ++i) hits[i].store(0);
      parallel_chunks(n, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) wrong += hits[i].load() != 1;
    }
  }
  EXPECT_EQ(wrong, 0u);
}

TEST(Parallel, NestedRegionInCallerChunkRunsInline) {
  // A chunk that opens its own region runs it inline on its own thread,
  // whether the caller or a pool worker runs that chunk. For the caller's
  // own chunks this used to retry the pool's caller mutex, which that very
  // thread holds.
  ComputeThreadsGuard guard(4);
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 8;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> foreign_inner{0};
  std::atomic<int> caller_chunks{0};
  for (int round = 0; round < 200; ++round) {
    for (auto& h : hits) h.store(0);
    parallel_chunks(kOuter, [&](std::size_t o) {
      const std::thread::id outer = std::this_thread::get_id();
      if (outer == caller) caller_chunks.fetch_add(1);
      EXPECT_TRUE(detail::on_worker_thread());
      parallel_chunks(kInner, [&](std::size_t i) {
        if (std::this_thread::get_id() != outer) foreign_inner.fetch_add(1);
        hits[o * kInner + i].fetch_add(1);
      });
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
  EXPECT_EQ(foreign_inner.load(), 0);
  EXPECT_GT(caller_chunks.load(), 0);  // the caller ran outer chunks itself
  EXPECT_FALSE(detail::on_worker_thread());  // and left the region after
}

/// Burn roughly `us` microseconds on the calling thread.
void busy_for(std::chrono::microseconds us) {
  const auto end = std::chrono::steady_clock::now() + us;
  while (std::chrono::steady_clock::now() < end) {
  }
}

TEST(Parallel, SpacedJobsRunEveryChunkOnce) {
  // Jobs back to back (helpers never stop spinning), half a spin window
  // apart (helpers still spinning) and two windows apart (helpers parked
  // and woken): tiny jobs and forward-sized ones (four ~20 us chunks).
  ComputeThreadsGuard guard(4);
  const std::chrono::microseconds gaps[] = {std::chrono::microseconds(0),
                                            detail::kSpinWindow / 2, detail::kSpinWindow * 2};
  std::vector<std::atomic<int>> hits(16);
  std::size_t wrong = 0;
  for (const auto gap : gaps) {
    for (const bool forward_sized : {false, true}) {
      const std::size_t n = forward_sized ? 4 : 16;
      const int jobs = gap.count() == 0 ? 2000 : 25;
      for (int j = 0; j < jobs; ++j) {
        for (std::size_t i = 0; i < n; ++i) hits[i].store(0);
        parallel_chunks(n, [&](std::size_t i) {
          if (forward_sized) busy_for(std::chrono::microseconds(20));
          hits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < n; ++i) wrong += hits[i].load() != 1;
        if (gap.count() > 0) std::this_thread::sleep_for(gap);
      }
    }
  }
  EXPECT_EQ(wrong, 0u);
}

TEST(Parallel, PoolShutsDownWhileHelpersSpinOrPark) {
  struct Job {
    std::atomic<int> hits[4];
  };
  const detail::ChunkFn fn = [](void* ctx, std::size_t i) {
    static_cast<Job*>(ctx)->hits[i].fetch_add(1);
  };
  for (const bool parked : {false, true}) {
    const std::uint64_t parks0 = pool_stats().parks;
    Job job{};
    {
      detail::Pool pool;
      ASSERT_TRUE(pool.try_run(4, fn, &job, 4));
        // Wait, within reason, until the helpers have outlasted their spin
      // window and parked.
      for (int i = 0; parked && i < 400 && pool_stats().parks - parks0 < 3; ++i) {
        std::this_thread::sleep_for(detail::kSpinWindow * 5);
      }
    }  // joins three helpers, spinning or parked
    for (const auto& h : job.hits) EXPECT_EQ(h.load(), 1);
    if (parked) {
      EXPECT_GE(pool_stats().parks - parks0, 3u);
    }
  }
}

TEST(Parallel, ForRowsPartitionIsAlignedAndComplete) {
  ComputeThreadsGuard guard(3);
  const std::size_t rows = 103;
  std::vector<std::atomic<int>> hits(rows);
  for (auto& h : hits) h.store(0);
  parallel_for_rows(rows, /*min_rows_per_chunk=*/4, /*align=*/4,
                    [&](std::size_t row0, std::size_t row1) {
                      EXPECT_EQ(row0 % 4, 0u);  // chunk starts stay tile-aligned
                      for (std::size_t r = row0; r < row1; ++r) hits[r].fetch_add(1);
                    });
  for (std::size_t r = 0; r < rows; ++r) EXPECT_EQ(hits[r].load(), 1) << "row " << r;
}

TEST(Parallel, GuardRestoresThreadCount) {
  const std::size_t before = compute_threads();
  {
    ComputeThreadsGuard guard(2);
    EXPECT_EQ(compute_threads(), 2u);
    {
      ComputeThreadsGuard inner(1);
      EXPECT_EQ(compute_threads(), 1u);
    }
    EXPECT_EQ(compute_threads(), 2u);
  }
  EXPECT_EQ(compute_threads(), before);
}

}  // namespace
}  // namespace dosc::nn
