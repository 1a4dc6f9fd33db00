#include "nn/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "nn/parallel.hpp"
#include "telemetry/registry.hpp"

// Kernel bodies are included once per ISA level. The baseline instantiation
// uses whatever the project-wide flags allow; the AVX2+FMA instantiation is
// compiled with a function-level target override and selected at runtime via
// cpuid, so the shipped binary stays portable while hot loops use FMA.
#define DOSC_GEMM_NAMESPACE gemm_baseline
#include "nn/gemm_kernels.inc"
#undef DOSC_GEMM_NAMESPACE

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define DOSC_GEMM_HAVE_AVX2 1
#pragma GCC push_options
#pragma GCC target("avx2,fma")
#define DOSC_GEMM_NAMESPACE gemm_avx2
#define DOSC_GEMM_FMA 1
#include "nn/gemm_kernels.inc"
#undef DOSC_GEMM_FMA
#undef DOSC_GEMM_NAMESPACE
#pragma GCC pop_options
#endif

namespace dosc::nn::gemm {

// packed_b_size() quotes the baseline tile width, and the TN workspace the
// baseline block sizes, for every dispatch level.
#ifdef DOSC_GEMM_HAVE_AVX2
static_assert(gemm_avx2::kNr == gemm_baseline::kNr);
static_assert(gemm_avx2::kTnWork == gemm_baseline::kTnWork);
#endif

namespace {

using RowsFn = void (*)(std::size_t row0, std::size_t row1, std::size_t n, std::size_t kc,
                        const double* a, std::size_t a_rs, std::size_t a_ks, const double* b,
                        std::size_t ldb, double* c, std::size_t ldc, bool accumulate,
                        double* panel);
using RefFn = void (*)(std::size_t m, std::size_t n, std::size_t kc, const double* a,
                       std::size_t lda, const double* b, std::size_t ldb, double* c,
                       std::size_t ldc, bool accumulate);
using PackedRowsFn = void (*)(std::size_t row0, std::size_t row1, std::size_t n,
                              std::size_t kc, const double* a, std::size_t a_rs,
                              std::size_t a_ks, const double* bp_all, double* c,
                              std::size_t ldc, bool accumulate);
using PackBFn = void (*)(std::size_t kc, std::size_t n, const double* b, std::size_t ldb,
                         double* bp);
using TnRowsFn = void (*)(std::size_t row0, std::size_t row1, std::size_t n, std::size_t k,
                          const double* a, std::size_t lda, const double* b, std::size_t ldb,
                          double* c, std::size_t ldc, bool accumulate, bool upper_only,
                          double* work);

struct KernelSet {
  RowsFn rows;
  TnRowsFn tn_rows;
  PackedRowsFn rows_packed;
  PackBFn pack_b;
  RefFn ref_nn;
  RefFn ref_tn;
  RefFn ref_nt;
  std::size_t mr;
  std::size_t tn_mr;
  const char* isa;
};

const KernelSet& kernels() {
  static const KernelSet set = [] {
#ifdef DOSC_GEMM_HAVE_AVX2
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return KernelSet{&gemm_avx2::gemm_rows, &gemm_avx2::gemm_tn_rows,
                       &gemm_avx2::gemm_rows_packed,
                       &gemm_avx2::pack_b_slab, &gemm_avx2::ref_nn, &gemm_avx2::ref_tn,
                       &gemm_avx2::ref_nt, gemm_avx2::kMr, gemm_avx2::kTnMr, "avx2+fma"};
    }
#endif
    return KernelSet{&gemm_baseline::gemm_rows, &gemm_baseline::gemm_tn_rows,
                     &gemm_baseline::gemm_rows_packed,
                     &gemm_baseline::pack_b_slab, &gemm_baseline::ref_nn, &gemm_baseline::ref_tn,
                     &gemm_baseline::ref_nt, gemm_baseline::kMr, gemm_baseline::kTnMr,
                     "baseline"};
  }();
  return set;
}

std::atomic<std::uint64_t> g_flops{0};
std::atomic<std::uint64_t> g_calls{0};

void record(std::size_t m, std::size_t n, std::size_t k) {
  const std::uint64_t flops = 2ULL * m * n * k;
  g_flops.fetch_add(flops, std::memory_order_relaxed);
  g_calls.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    static telemetry::Counter& flop_counter =
        telemetry::MetricsRegistry::global().counter("nn.gemm.flops");
    static telemetry::Counter& call_counter =
        telemetry::MetricsRegistry::global().counter("nn.gemm.calls");
    flop_counter.add(flops);
    call_counter.add(1);
  }
}

/// Packed B panel for products with k too large for ThreadWork.
std::vector<double>& panel_buffer() {
  thread_local std::vector<double> buf;
  return buf;
}

/// nt()'s packed B^T slab.
std::vector<double>& slab_buffer() {
  thread_local std::vector<double> buf;
  return buf;
}

/// Per-thread kernel workspace: the TN path's packed blocks, or the packed
/// B panel (k x kNr) of the other paths when it fits, which it does for
/// every k up to ~5k. Fixed size, so a pool worker never allocates it,
/// whichever chunks it happens to claim.
struct alignas(64) ThreadWork {
  double d[gemm_baseline::kTnWork];
};
thread_local ThreadWork t_work;

void run_tiled(std::size_t m, std::size_t n, std::size_t k, const double* a, std::size_t a_rs,
               std::size_t a_ks, const double* b, std::size_t ldb, double* c, std::size_t ldc,
               bool accumulate) {
  if (m == 0 || n == 0) return;
  const KernelSet& ks = kernels();
  const std::size_t per_row_macs = std::max<std::size_t>(1, n * k);
  const std::size_t min_rows = (kMinMacsPerChunk + per_row_macs - 1) / per_row_macs;
  parallel_for_rows(m, std::max(min_rows, ks.mr), ks.mr,
                    [&](std::size_t row0, std::size_t row1) {
                      double* panel = t_work.d;
                      if (k * gemm_baseline::kNr > gemm_baseline::kTnWork) {
                        std::vector<double>& buf = panel_buffer();
                        if (buf.size() < k * gemm_baseline::kNr) {
                          buf.resize(k * gemm_baseline::kNr);
                        }
                        panel = buf.data();
                      }
                      ks.rows(row0, row1, n, k, a, a_rs, a_ks, b, ldb, c, ldc, accumulate,
                              panel);
                    });
}

/// Row boundaries that split the upper triangle of an m x m product into at
/// most `chunks` row ranges of about equal work, aligned to strips of `mr`
/// rows. The strip at row r0 computes the nr-wide column panels from r0 / nr
/// on, so equal row ranges would give the first range most of the work.
/// Returns the number of ranges; range i is [bounds[i], bounds[i + 1]).
std::size_t triangle_bounds(std::size_t m, std::size_t mr, std::size_t nr, std::size_t chunks,
                            std::size_t* bounds) {
  const std::size_t panels = (m + nr - 1) / nr;
  const auto strip_work = [&](std::size_t r0) { return panels - r0 / nr; };
  std::size_t total = 0;
  for (std::size_t r0 = 0; r0 < m; r0 += mr) total += strip_work(r0);
  std::size_t count = 0;
  std::size_t done = 0;
  bounds[0] = 0;
  for (std::size_t r0 = 0; r0 < m; r0 += mr) {
    done += strip_work(r0);
    // Cut once this range holds its share of the total work.
    if (done * chunks >= total * (count + 1) && count + 1 < chunks) {
      bounds[++count] = std::min(m, r0 + mr);
    }
  }
  if (bounds[count] < m) bounds[++count] = m;
  return count;
}

/// C = A^T B (A stored [k x m]) through the packed-A, k-blocked path, rows
/// split across the pool; with `upper_only` only the upper triangle (C must
/// then be square), split into balanced triangle ranges.
void run_tn(std::size_t m, std::size_t n, std::size_t k, const double* a, std::size_t lda,
            const double* b, std::size_t ldb, double* c, std::size_t ldc, bool accumulate,
            bool upper_only) {
  if (m == 0 || n == 0) return;
  const KernelSet& ks = kernels();
  const auto rows = [&](std::size_t row0, std::size_t row1) {
    ks.tn_rows(row0, row1, n, k, a, lda, b, ldb, c, ldc, accumulate, upper_only,
               t_work.d);
  };
  const std::size_t per_row_macs = std::max<std::size_t>(1, n * k);
  const std::size_t min_rows = (kMinMacsPerChunk + per_row_macs - 1) / per_row_macs;
  if (!upper_only && m < n) {
    // Wide and short (the first layer's weight gradient, m = 20): split
    // the columns, so each chunk reads only its columns of B. Every chunk
    // packs all of A^T; each element's reduction is unchanged.
    const std::size_t per_col_macs = std::max<std::size_t>(1, m * k);
    const std::size_t min_cols = (kMinMacsPerChunk + per_col_macs - 1) / per_col_macs;
    const std::size_t nr = gemm_baseline::kNr;
    parallel_for_rows(n, std::max(min_cols, nr), nr, [&](std::size_t j0, std::size_t j1) {
      ks.tn_rows(0, m, j1 - j0, k, a, lda, b + j0, ldb, c + j0, ldc, accumulate,
                 /*upper_only=*/false, t_work.d);
    });
    return;
  }
  if (!upper_only) {
    parallel_for_rows(m, std::max(min_rows, ks.tn_mr), ks.tn_mr, rows);
    return;
  }
  // The triangle holds half the work, so it needs twice the rows per chunk.
  const std::size_t min_chunk_rows = 2 * std::max(min_rows, ks.tn_mr);
  const std::size_t chunks =
      std::min(compute_threads(), std::max<std::size_t>(1, m / min_chunk_rows));
  std::size_t bounds[kMaxComputeThreads + 1];
  const std::size_t ranges = triangle_bounds(m, ks.tn_mr, gemm_baseline::kNr, chunks, bounds);
  parallel_chunks(ranges, [&](std::size_t i) { rows(bounds[i], bounds[i + 1]); });
}

}  // namespace

void nn(std::size_t m, std::size_t n, std::size_t k, const double* a, std::size_t lda,
        const double* b, std::size_t ldb, double* c, std::size_t ldc, bool accumulate) {
  record(m, n, k);
  run_tiled(m, n, k, a, lda, 1, b, ldb, c, ldc, accumulate);
}

std::size_t packed_b_size(std::size_t k, std::size_t n) noexcept {
  // Both ISA instantiations share kNr (static_asserted above), so the slab
  // size is dispatch-independent.
  return ((n + gemm_baseline::kNr - 1) / gemm_baseline::kNr) * k * gemm_baseline::kNr;
}

void pack_b(std::size_t k, std::size_t n, const double* b, std::size_t ldb, double* bp) {
  kernels().pack_b(k, n, b, ldb, bp);
}

void nn_packed(std::size_t m, std::size_t n, std::size_t k, const double* a,
               std::size_t lda, const double* bp, double* c, std::size_t ldc,
               bool accumulate) {
  record(m, n, k);
  if (m == 0 || n == 0) return;
  const KernelSet& ks = kernels();
  const std::size_t per_row_macs = std::max<std::size_t>(1, n * k);
  const std::size_t min_rows = (kMinMacsPerChunk + per_row_macs - 1) / per_row_macs;
  parallel_for_rows(m, std::max(min_rows, ks.mr), ks.mr,
                    [&](std::size_t row0, std::size_t row1) {
                      ks.rows_packed(row0, row1, n, k, a, lda, 1, bp, c, ldc, accumulate);
                    });
}

void pack_bt(std::size_t k, std::size_t n, const double* bt, std::size_t ldbt, double* bp) {
  // Panel j0 / kNr holds B[p][j0 + jj] = bt[j0 + jj][p] at p * kNr + jj,
  // zero-padded past n: the layout of pack_b_slab.
  constexpr std::size_t kNr = gemm_baseline::kNr;
  for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
    const std::size_t nc = std::min(kNr, n - j0);
    double* panel = bp + (j0 / kNr) * k * kNr;
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t jj = 0; jj < nc; ++jj) panel[p * kNr + jj] = bt[(j0 + jj) * ldbt + p];
      for (std::size_t jj = nc; jj < kNr; ++jj) panel[p * kNr + jj] = 0.0;
    }
  }
}

void tn(std::size_t m, std::size_t n, std::size_t k, const double* a, std::size_t lda,
        const double* b, std::size_t ldb, double* c, std::size_t ldc, bool accumulate) {
  record(m, n, k);
  run_tn(m, n, k, a, lda, b, ldb, c, ldc, accumulate, /*upper_only=*/false);
}

void nt(std::size_t m, std::size_t n, std::size_t k, const double* a, std::size_t lda,
        const double* b, std::size_t ldb, double* c, std::size_t ldc, bool accumulate) {
  if (m == 0 || n == 0) {
    record(m, n, k);
    return;
  }
  // B^T is packed once, straight from B's rows, into per-thread scratch
  // (O(n*k), negligible next to the O(m*n*k) product); the packed NN path
  // then runs over it. The panels are the ones nn() would pack from an
  // explicit B^T, so each element's reduction (ascending k, one
  // accumulator) is unchanged.
  std::vector<double>& slab = slab_buffer();
  if (slab.size() < packed_b_size(k, n)) slab.resize(packed_b_size(k, n));
  pack_bt(k, n, b, ldb, slab.data());
  nn_packed(m, n, k, a, lda, slab.data(), c, ldc, accumulate);
}

void gram(std::size_t m, std::size_t k, const double* a, std::size_t lda, double* c,
          std::size_t ldc) {
  // The flop count records the algorithmic 2*m*m*k even though symmetry
  // halves the arithmetic actually executed (standard SYRK accounting).
  record(m, m, k);
  run_tn(m, m, k, a, lda, a, lda, c, ldc, /*accumulate=*/false, /*upper_only=*/true);
  // Mirror the strictly-lower triangle. x*y == y*x exactly in IEEE
  // arithmetic, so the copied element is bit-identical to what a full
  // product would have computed there.
  for (std::size_t i = 1; i < m; ++i) {
    for (std::size_t j = 0; j < i; ++j) c[i * ldc + j] = c[j * ldc + i];
  }
}

void nn_reference(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb, double* c,
                  std::size_t ldc) {
  record(m, n, k);
  kernels().ref_nn(m, n, k, a, lda, b, ldb, c, ldc, false);
}

void tn_reference(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb, double* c,
                  std::size_t ldc) {
  record(m, n, k);
  kernels().ref_tn(m, n, k, a, lda, b, ldb, c, ldc, false);
}

void nt_reference(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb, double* c,
                  std::size_t ldc) {
  record(m, n, k);
  kernels().ref_nt(m, n, k, a, lda, b, ldb, c, ldc, false);
}

const char* isa_name() noexcept { return kernels().isa; }

std::uint64_t flop_count() noexcept { return g_flops.load(std::memory_order_relaxed); }
std::uint64_t call_count() noexcept { return g_calls.load(std::memory_order_relaxed); }

}  // namespace dosc::nn::gemm
