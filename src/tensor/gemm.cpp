#include "tensor/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/microkernel.hpp"
#include "tensor/pack.hpp"

namespace hetsgd::tensor {

namespace {

// GEMM is the hottest function in the process: the tiny Hogwild products
// (m=1) run millions of times, so they must never touch the tracer. Only
// products at least this many flops emit a span; the counter below is a
// sharded atomic and is always cheap enough to keep.
constexpr double kTraceFlopThreshold = 1e7;

obs::Counter& gemm_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("hetsgd_host_gemms_total");
  return c;
}

// Products that took the zero-skipping path for sparse inputs (below); the
// ones that come through gemm() also count in hetsgd_host_gemms_total.
obs::Counter& sparse_gemm_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("hetsgd_sparse_gemms_total");
  return c;
}

using detail::kKC;
using detail::kMC;
using detail::kMR;
using detail::kNC;
using detail::kNR;

}  // namespace

GemmDims check_gemm_shapes(Trans ta, Trans tb, ConstMatrixView a,
                           ConstMatrixView b, ConstMatrixView c) {
  Index m = ta == Trans::kNo ? a.rows() : a.cols();
  Index ka = ta == Trans::kNo ? a.cols() : a.rows();
  Index kb = tb == Trans::kNo ? b.rows() : b.cols();
  Index n = tb == Trans::kNo ? b.cols() : b.rows();
  HETSGD_ASSERT(ka == kb, "gemm inner dimensions mismatch");
  HETSGD_ASSERT(c.rows() == m && c.cols() == n, "gemm output shape mismatch");
  return GemmDims{m, n, ka};
}

namespace {

// One fully-described packed-GEMM problem. Raw pointers + leading
// dimensions rather than views so parallel workers can address disjoint
// row/column ranges of C directly.
struct PackedGemm {
  const Scalar* a;
  Index lda;
  bool ta;
  const Scalar* b;
  Index ldb;
  bool tb;
  Scalar* c;
  Index ldc;
  Index k;
  Scalar alpha;
  // Fused epilogue (gemm_bias_act): applied during the final k-block
  // write-back. bias == nullptr means plain accumulate.
  const Scalar* bias;
  Epilogue epilogue;
};

// Per-thread packing scratch: reused across calls (no steady-state
// allocation) and never shared between parallel workers.
thread_local detail::PackBuffer tl_pack_a;
thread_local detail::PackBuffer tl_pack_b;

// Serial pack-and-microkernel GEMM over C[m0:m1, n0:n1]. C must already
// hold beta * C_in (or zeros); every k block accumulates with +=, and the
// final k block applies the fused epilogue if one is set. The loop nest is
// jc -> pc -> ic (BLIS-style): the packed B block is reused across all row
// blocks, and for a fixed jc the last pc iteration finalizes every C tile
// in the column block, which is what makes epilogue fusion a pure
// write-back property.
void gemm_packed_range(const PackedGemm& g, Index m0, Index m1, Index n0,
                       Index n1) {
  Scalar* pa = tl_pack_a.ensure(static_cast<std::size_t>(kMC * kKC));
  Scalar* pb = tl_pack_b.ensure(static_cast<std::size_t>(kNC * kKC));
  for (Index jc = n0; jc < n1; jc += kNC) {
    const Index nc = std::min(kNC, n1 - jc);
    for (Index pc = 0; pc < g.k; pc += kKC) {
      const Index kc = std::min(kKC, g.k - pc);
      const bool last_k = pc + kc == g.k;
      detail::pack_b(g.b, g.ldb, g.tb, pc, kc, jc, nc, pb);
      for (Index ic = m0; ic < m1; ic += kMC) {
        const Index mc = std::min(kMC, m1 - ic);
        detail::pack_a(g.a, g.lda, g.ta, ic, mc, pc, kc, pa);
        for (Index jr = 0; jr < nc; jr += kNR) {
          const Index nrem = std::min(kNR, nc - jr);
          const Scalar* bpanel = pb + (jr / kNR) * (kNR * kc);
          for (Index ir = 0; ir < mc; ir += kMR) {
            const Index mrem = std::min(kMR, mc - ir);
            const Scalar* apanel = pa + (ir / kMR) * (kMR * kc);
            Scalar acc[kMR * kNR];
            detail::micro_kernel(kc, apanel, bpanel, acc);
            Scalar* ctile = g.c + (ic + ir) * g.ldc + (jc + jr);
            detail::store_tile(acc, g.alpha, ctile, g.ldc, mrem, nrem);
          }
        }
        if (g.bias != nullptr && last_k) {
          // All C rows of this (ic, jc) block are final: apply the fused
          // epilogue while they are still cache-hot, in nc-wide row passes
          // (amortizes the activation dispatch far better than per-tile).
          for (Index r = 0; r < mc; ++r) {
            detail::epilogue_row(g.epilogue, g.c + (ic + r) * g.ldc + jc,
                                 g.bias + jc, nc);
          }
        }
      }
    }
  }
}

// Skinny-m fast path. For m below the register-tile scale, packing B
// costs O(n*k) — the same order as the whole product — so the packed
// engine loses to direct streaming kernels (the m=1 Hogwild case pays ~3x
// for packing). Both skinny kernels stream contiguous rows, vectorize via
// omp simd, and support the fused epilogue. Only ta == kNo shapes take
// this path: the skinny-m products in training (forward x*W^T, delta
// propagation delta*W) are untransposed in A, while op(A)-transposed
// products (dW = delta^T*prev) have m = layer width, never skinny.
constexpr Index kSkinnyM = 8;

// NT: C(i,j) += alpha * dot(A row i, B row j) — both rows contiguous.
// The fused epilogue runs as a separate pass over the finished rows (at
// most 7, still in L1), after the row loop rather than inside it: with
// the bias test inside, gcc 12 at -O3 -march=native gave the bias-free
// product a scalar dot loop for every row after the first (5x slower at
// m = 2..7).
void skinny_nt_range(const PackedGemm& g, Index m, Index j0, Index j1) {
  for (Index i = 0; i < m; ++i) {
    const Scalar* HETSGD_RESTRICT arow = g.a + i * g.lda;
    Scalar* HETSGD_RESTRICT crow = g.c + i * g.ldc;
    for (Index j = j0; j < j1; ++j) {
      const Scalar* HETSGD_RESTRICT brow = g.b + j * g.ldb;
      Scalar acc = 0;
#pragma omp simd reduction(+ : acc)
      for (Index k = 0; k < g.k; ++k) acc += arow[k] * brow[k];
      crow[j] += g.alpha * acc;
    }
  }
  if (g.bias == nullptr) return;
  for (Index i = 0; i < m; ++i) {
    detail::epilogue_row(g.epilogue, g.c + i * g.ldc + j0, g.bias + j0,
                         j1 - j0);
  }
}

// NN: stream B rows, C row stays L1-resident across k. The fused epilogue
// needs the completed sum, so it runs as a final pass over the (cached)
// C row rather than inside the k loop.
void skinny_nn_range(const PackedGemm& g, Index m, Index j0, Index j1) {
  for (Index i = 0; i < m; ++i) {
    const Scalar* HETSGD_RESTRICT arow = g.a + i * g.lda;
    Scalar* HETSGD_RESTRICT crow = g.c + i * g.ldc;
    for (Index k = 0; k < g.k; ++k) {
      const Scalar aik = g.alpha * arow[k];
      const Scalar* HETSGD_RESTRICT brow = g.b + k * g.ldb;
#pragma omp simd
      for (Index j = j0; j < j1; ++j) crow[j] += aik * brow[j];
    }
    if (g.bias != nullptr) {
      detail::epilogue_row(g.epilogue, crow + j0, g.bias + j0, j1 - j0);
    }
  }
}

// Rank-1 path for k == 1: C[i][j] += alpha * (a_i * b_j) over C rows
// [i0, i1), C already scaled by beta. This is every 1-row batch's weight
// gradient delta^T * h, which the packed engine would reach only after
// packing both operands to form one outer product. It rounds as that
// engine does: the micro-kernel's accumulator starts at +0, so the product
// is taken as 0 + a_i * b_j (a zero product keeps the sign the packed path
// gives it), then added into C as store_tile adds its tile. Skinny-m
// shapes (ta == kNo, m < kSkinnyM) keep their kernels: skinny NN rounds
// (alpha * a) * b, so routing them here would change bits.
void rank1_rows(const PackedGemm& g, Index i0, Index i1, Index n) {
  const Scalar alpha = g.alpha;
  const Index a_step = g.ta ? 1 : g.lda;  // op(A) is m x 1
  const Index b_step = g.tb ? g.ldb : 1;  // op(B) is 1 x n
  const Scalar* HETSGD_RESTRICT b = g.b;
  for (Index i = i0; i < i1; ++i) {
    const Scalar ai = g.a[i * a_step];
    Scalar* HETSGD_RESTRICT crow = g.c + i * g.ldc;
    if (b_step == 1) {
#pragma omp simd
      for (Index j = 0; j < n; ++j) {
        crow[j] += alpha * (Scalar{0} + ai * b[j]);
      }
    } else {
      for (Index j = 0; j < n; ++j) {
        crow[j] += alpha * (Scalar{0} + ai * b[j * b_step]);
      }
    }
  }
}

// Threads worth waking for `flops` of work split into at most `parts`
// pieces: each thread must be worth its fork/join (and, for the packed
// engine, its redundant packing of the unsplit operand), ~256 kflop each.
int worth_threads(double flops, Index parts) {
  int max_threads = 1;
#ifdef _OPENMP
  max_threads = omp_get_max_threads();
#endif
  const double by_work = std::max(1.0, flops / 262144.0);
  const int threads = static_cast<int>(std::min<double>(max_threads, by_work));
  return std::max(1, std::min(threads, static_cast<int>(
                                           std::min<Index>(parts, 1024))));
}

// Shape-aware schedule: which C dimension to partition across threads, and
// how many threads are worth waking.
struct Schedule {
  bool split_n;
  int threads;
};

Schedule plan_schedule(Index m, Index n, Index k) {
  const Index m_tiles = (m + kMR - 1) / kMR;
  const Index n_tiles = (n + kNR - 1) / kNR;
  // Partition the dimension with more register tiles: rows for tall
  // GPU-style batches, columns (the layer width) for the skinny-m shapes
  // the CPU Hogbatch workers run — which the seed kernel's
  // `if (m >= 2 * blockM)` gate left permanently serial.
  const bool split_n = n_tiles > m_tiles;
  const Index tiles = split_n ? n_tiles : m_tiles;
  return Schedule{split_n, worth_threads(gemm_flops(m, n, k), tiles)};
}

// Runs fn(tid, nth) once on each thread of a team of `threads` OpenMP
// threads (nth may come out smaller), or once serially.
template <typename Fn>
void parallel_team(int threads, const Fn& fn) {
#ifdef _OPENMP
  if (threads > 1) {
#pragma omp parallel num_threads(threads)
    fn(Index{omp_get_thread_num()}, Index{omp_get_num_threads()});
    return;
  }
#endif
  fn(Index{0}, Index{1});
}

struct Range {
  Index lo, hi;
};

// Thread tid's contiguous share of [0, extent) among nth threads, with
// bounds on multiples of `align` (except at extent).
Range thread_range(Index tid, Index nth, Index extent, Index align) {
  const Index tiles = (extent + align - 1) / align;
  return {tiles * tid / nth * align,
          std::min(extent, tiles * (tid + 1) / nth * align)};
}

// Calls fn(lo, hi) with each thread's share of [0, extent). Every range is
// owned by exactly one thread, so a kernel whose result for an element
// does not depend on the range bounds is bit-identical for any thread
// count.
template <typename Fn>
void parallel_ranges(int threads, Index extent, Index align, const Fn& fn) {
  parallel_team(threads, [&](Index tid, Index nth) {
    const Range r = thread_range(tid, nth, extent, align);
    if (r.lo < r.hi) fn(r.lo, r.hi);
  });
}

// Runs the skinny engine, partitioning columns across threads (the only
// dimension with parallelism when m is tiny — the seed kernel ran these
// shapes serial). Elements are computed independently, so the result is
// bit-identical for any thread count.
void run_skinny(const PackedGemm& g, bool nt, Index m, Index n) {
  const Schedule s = plan_schedule(m, n, g.k);
  parallel_ranges(s.threads, n, kNR, [&](Index j0, Index j1) {
    if (nt) {
      skinny_nt_range(g, m, j0, j1);
    } else {
      skinny_nn_range(g, m, j0, j1);
    }
  });
}

// Runs the rank-1 path, partitioning rows across threads. Elements are
// computed independently, so the result is bit-identical for any thread
// count.
void run_rank1(const PackedGemm& g, Index m, Index n) {
  parallel_ranges(worth_threads(gemm_flops(m, n, 1), m), m, 1,
                  [&](Index i0, Index i1) { rank1_rows(g, i0, i1, n); });
}

// Runs the packed engine over the whole of C with the planned partition.
// Every C tile is owned by exactly one thread and k-blocks are reduced in
// a fixed order, so the result is bit-identical for any thread count.
void run_packed(const PackedGemm& g, Index m, Index n) {
  const Schedule s = plan_schedule(m, n, g.k);
  if (s.split_n) {
    parallel_ranges(s.threads, n, kNR, [&](Index lo, Index hi) {
      gemm_packed_range(g, 0, m, lo, hi);
    });
  } else {
    parallel_ranges(s.threads, m, kMR, [&](Index lo, Index hi) {
      gemm_packed_range(g, lo, hi, 0, n);
    });
  }
}

// Applies beta to C so the k-blocked accumulation can always use +=.
void scale_c(MatrixView c, Index m, Index n, Scalar beta) {
  if (beta == Scalar{0}) {
    for (Index i = 0; i < m; ++i) {
      std::fill(c.row(i), c.row(i) + n, Scalar{0});
    }
  } else if (beta != Scalar{1}) {
    for (Index i = 0; i < m; ++i) {
      Scalar* HETSGD_RESTRICT crow = c.row(i);
#pragma omp simd
      for (Index j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
}

// ---------------------------------------------------------------------------
// Zero-skipping path for a sparse input x.
//
// Sparse datasets reach the first layer stored dense (real-sim is ~1%
// nonzero), so the two products that take the input x as an operand spend
// nearly all their multiplies on zeros. When x is sparse enough they visit
// only its nonzeros:
//   forward   C = x * op(W)  (gemm_bias_act, ta == kNo):
//             C row i += alpha * x[i,p] * op(W) row p, per nonzero x[i,p];
//   gradient  C = d^T * x    (gemm, ta == kYes, tb == kNo):
//             C col p += alpha * x[r,p] * d row r,     per nonzero x[r,p].
// op(W) rows come from a transposed copy of W when tb == kYes, and gradient
// columns build up in a transposed scratch, so both inner loops are
// contiguous axpys.
//
// The path is taken when x has at least kSkinnyM rows and kSparseMinWidth
// columns (the Hogwild lanes' 1-row products keep their kernels), at most
// kSparseMaxDensity of its entries are nonzero, and the other operand is
// finite: skipping x's zeros would drop the 0 * NaN terms that make the
// dense result NaN. Each call first counts the nonzeros of kSampleRows
// evenly spaced rows of x, serially; a sample over the density limit keeps
// the dense kernel right away. A dense input, such as a hidden layer's
// activations, thus costs a scan of three rows and never forks a team.
//
// An input that passes the sample is read once by one OpenMP team: each
// thread gathers the nonzero offsets of its part of x (its C rows, or its
// C column range across all rows) while counting them, and, unless its own
// count is already over the limit, checks its share of the other operand
// for NaN/Inf. After a barrier every thread reaches the same verdict from
// the shared tallies; only then is scratch allocated and W transposed. On
// a dense verdict the caller runs the dense kernel.
//
// Each C element is summed by one thread, over x's rows (gradient) or
// nonzeros (forward) in ascending order, so results are bit-identical for
// any thread count.

// Highest fraction of nonzeros in x at which skipping zeros still beats
// the packed kernel: the low end of the lowest crossover in bench/micro_gemm's
// density sweep (bench_results/BENCH_gemm.json "sparse_crossover") over the
// first-layer products of real-sim (2963 inputs) and delicious (500
// inputs) into 48 units. On a 4-vCPU AVX-512 host that is real-sim's
// forward product, 0.137 to 0.175 over four sweeps.
constexpr double kSparseMaxDensity = 0.14;
// Narrower inputs keep the dense kernel without a scan: the hidden layers
// of the bench MLPs (48 units of dense tanh activations) never pay for it.
constexpr Index kSparseMinWidth = 64;
// Rows of x the serial pre-check samples (kSkinnyM-row inputs: every row).
constexpr Index kSampleRows = 16;

// The density rule's override (detail::set_sparse_path), per thread.
thread_local detail::SparsePath tl_sparse_path = detail::SparsePath::kAuto;

// Nonzeros of one thread's part of x, row by row: `counts` holds each
// scanned row's nonzero count, `offsets` their nonzero column offsets,
// back to back. One per thread, reused across calls.
struct NonzeroRows {
  std::vector<Index> counts;
  std::vector<Index> offsets;
};
thread_local NonzeroRows tl_rows;

// The calling thread's transposed W (forward) or gradient accumulator,
// shared by the OpenMP team it forks.
thread_local detail::PackBuffer tl_sparse;

bool sparse_shape(Index rows, Index cols) {
  return rows >= kSkinnyM && cols >= kSparseMinWidth &&
         tl_sparse_path != detail::SparsePath::kDense;
}

// Most nonzeros `rows` rows of x (`cols` wide) may hold and still take the
// path.
Index nonzero_limit(Index rows, Index cols) {
  const double max_density =
      tl_sparse_path == detail::SparsePath::kSparse ? 1.0 : kSparseMaxDensity;
  return static_cast<Index>(max_density * static_cast<double>(rows) *
                            static_cast<double>(cols));
}

// The serial pre-check: true when kSampleRows evenly spaced rows of x
// (rows x cols, rows >= kSkinnyM) hold at most the density limit of
// nonzeros. Stops at the first sampled row that takes the count over it.
bool sample_within_limit(const Scalar* x, Index ldx, Index rows, Index cols) {
  const Index samples = std::min(rows, kSampleRows);
  const Index limit = nonzero_limit(samples, cols);
  Index count = 0;
  for (Index s = 0; s < samples && count <= limit; ++s) {
    const Scalar* HETSGD_RESTRICT row = x + s * rows / samples * ldx;
#pragma omp simd reduction(+ : count)
    for (Index c = 0; c < cols; ++c) count += row[c] != Scalar{0};
  }
  return count <= limit;
}

// Writes the offsets c in [c0, c1) where row[c] != 0 to nz, ascending, and
// returns how many there are. Branch-free: every offset is written, and
// only nonzero ones advance the count, so nz needs room for c1 - c0.
Index gather_nonzeros(const Scalar* HETSGD_RESTRICT row, Index c0, Index c1,
                      Index* HETSGD_RESTRICT nz) {
  Index count = 0;
  for (Index c = c0; c < c1; ++c) {
    nz[count] = c;
    count += row[c] != Scalar{0};
  }
  return count;
}

// Gathers x[r, c0:c1) for r in [r0, r1) into `rows` and returns the
// nonzero count, stopping after the row that takes it past `limit`.
Index gather_rows(const Scalar* x, Index ldx, Index r0, Index r1, Index c0,
                  Index c1, Index limit, NonzeroRows& rows) {
  const auto width = static_cast<std::size_t>(c1 - c0);
  rows.counts.clear();
  Index total = 0;
  for (Index r = r0; r < r1 && total <= limit; ++r) {
    const std::size_t used = static_cast<std::size_t>(total);
    if (rows.offsets.size() < used + width) {
      rows.offsets.resize(std::max(used + width, 2 * rows.offsets.size()));
    }
    const Index count =
        gather_nonzeros(x + r * ldx, c0, c1, rows.offsets.data() + used);
    rows.counts.push_back(count);
    total += count;
  }
  return total;
}

// True when no element is NaN or Inf: 0 * v is NaN exactly for those, so
// one vectorizable sum finds both.
bool all_finite(const Scalar* p, Index ld, Index rows, Index cols) {
  Scalar probe = 0;
  for (Index r = 0; r < rows; ++r) {
    const Scalar* HETSGD_RESTRICT row = p + r * ld;
#pragma omp simd reduction(+ : probe)
    for (Index c = 0; c < cols; ++c) probe += row[c] * Scalar{0};
  }
  return probe == Scalar{0};
}

// Rows [p0, p1) of wt (k x n) = columns [p0, p1) of w (n x k), copied in
// blocks of kTransposeBlock columns so the strided writes stay within that
// many cache lines however wide n is.
constexpr Index kTransposeBlock = 16;
void transpose_cols(const Scalar* w, Index ldw, Index n, Index p0, Index p1,
                    Scalar* HETSGD_RESTRICT wt) {
  for (Index pb = p0; pb < p1; pb += kTransposeBlock) {
    const Index pe = std::min(p1, pb + kTransposeBlock);
    for (Index j = 0; j < n; ++j) {
      const Scalar* HETSGD_RESTRICT row = w + j * ldw;
      for (Index p = pb; p < pe; ++p) wt[p * n + j] = row[p];
    }
  }
}

inline void axpy_row(Scalar a, const Scalar* HETSGD_RESTRICT x,
                     Scalar* HETSGD_RESTRICT y, Index n) {
#pragma omp simd
  for (Index j = 0; j < n; ++j) y[j] += a * x[j];
}

// Both kernels below stay out of line: inlined into the OpenMP team's body,
// gcc 12 spills the axpy loop's pointers, and the gradient kernel runs
// 10-20% slower at 10-15% density (bench/micro_gemm BM_SparseInputGradient).

// Forward rows [i0, i0 + rows.counts.size()): C row i = epilogue(sum over
// nonzero x[i,p] of alpha * x[i,p] * B row p, + bias), with x = g.a and
// B = g.b stored k x n untransposed. C is zero on entry.
HETSGD_NOINLINE void sparse_forward_rows(const PackedGemm& g, Index n,
                                         Index i0, const NonzeroRows& rows) {
  const Index* nz = rows.offsets.data();
  for (std::size_t q = 0; q < rows.counts.size(); ++q) {
    const Index i = i0 + static_cast<Index>(q);
    const Scalar* HETSGD_RESTRICT xrow = g.a + i * g.lda;
    Scalar* HETSGD_RESTRICT crow = g.c + i * g.ldc;
    const Index* const end = nz + rows.counts[q];
    for (; nz != end; ++nz) {
      axpy_row(g.alpha * xrow[*nz], g.b + *nz * g.ldb, crow, n);
    }
    if (g.bias != nullptr) detail::epilogue_row(g.epilogue, crow, g.bias, n);
  }
}

// Gradient columns [j0, j1) of C (m x n): C col j += alpha * sum over
// nonzero x[r,j] of x[r,j] * d row r, with d = g.a (k x m) and x = g.b
// (k x n) gathered row by row in `rows`. Column j builds up in ct row j so
// the inner loop is a contiguous axpy over d's row; the final pass adds it
// into C.
HETSGD_NOINLINE void sparse_gradient_cols(const PackedGemm& g, Index m,
                                          Index j0, Index j1,
                                          const NonzeroRows& rows,
                                          Scalar* ct) {
  std::fill(ct + j0 * m, ct + j1 * m, Scalar{0});
  const Index* nz = rows.offsets.data();
  for (Index r = 0; r < g.k; ++r) {
    const Scalar* HETSGD_RESTRICT xrow = g.b + r * g.ldb;
    const Scalar* HETSGD_RESTRICT drow = g.a + r * g.lda;
    const Index* const end = nz + rows.counts[static_cast<std::size_t>(r)];
    for (; nz != end; ++nz) axpy_row(xrow[*nz], drow, ct + *nz * m, m);
  }
  for (Index i = 0; i < m; ++i) {
    Scalar* HETSGD_RESTRICT crow = g.c + i * g.ldc;
    for (Index j = j0; j < j1; ++j) crow[j] += g.alpha * ct[j * m + i];
  }
}

// Per-thread findings of the shared pass, and the verdict every thread
// (and the caller) draws from them once the team has synchronized.
struct SparseTally {
  Index limit;
  std::vector<Index> nonzeros;
  std::vector<char> finite;

  SparseTally(Index max_nonzeros, int threads)
      : limit(max_nonzeros),
        nonzeros(static_cast<std::size_t>(threads), 0),
        finite(static_cast<std::size_t>(threads), 1) {}

  bool sparse() const {
    Index total = 0;
    for (Index count : nonzeros) total += count;
    return total <= limit &&
           std::all_of(finite.begin(), finite.end(), [](char f) { return f; });
  }
};

// Thread-count estimate for the path on x (rows x cols) into `out_width`
// outputs: the scan of x plus the multiplies at the most nonzeros it may
// hold. Erring high costs a few idle threads; erring low serializes it.
double sparse_work(Index rows, Index cols, Index limit, Index out_width) {
  return static_cast<double>(rows) * static_cast<double>(cols) +
         gemm_flops(limit, out_width, 1);
}

// The scratch both paths need once the verdict is in. Thread 0 of an
// OpenMP team is the thread that forked it, so it takes its own
// tl_sparse; the barrier publishes the pointer to the team.
Scalar* team_scratch(Index tid, std::size_t count, Scalar*& shared) {
  if (tid == 0) shared = tl_sparse.ensure(count);
#pragma omp barrier
  return shared;
}

// C = epilogue(alpha * x * op(W) + bias) through the zero-skipping path,
// x = g.a (m x k). Returns false, with C untouched, when the selection
// keeps the dense kernel.
bool try_sparse_forward(const PackedGemm& g, Index m, Index n) {
  if (g.ta || !sparse_shape(m, g.k) ||
      !sample_within_limit(g.a, g.lda, m, g.k)) {
    return false;
  }
  const Index limit = nonzero_limit(m, g.k);
  const int threads = worth_threads(sparse_work(m, g.k, limit, n), m);
  SparseTally tally(limit, threads);
  const Index w_rows = g.tb ? n : g.k;  // W as stored
  Scalar* wt = nullptr;
  parallel_team(threads, [&](Index tid, Index nth) {
    const auto t = static_cast<std::size_t>(tid);
    const Range rows = thread_range(tid, nth, m, 1);
    tally.nonzeros[t] =
        gather_rows(g.a, g.lda, rows.lo, rows.hi, 0, g.k, tally.limit, tl_rows);
    const Range w = thread_range(tid, nth, w_rows, 1);
    tally.finite[t] = tally.nonzeros[t] > tally.limit ||
                      all_finite(g.b + w.lo * g.ldb, g.ldb, w.hi - w.lo,
                                 g.tb ? g.k : n);
#pragma omp barrier
    if (!tally.sparse()) return;
    PackedGemm s = g;  // s.b: op(W) as k x n rows
    if (g.tb) {
      s.b = team_scratch(tid, static_cast<std::size_t>(g.k * n), wt);
      s.ldb = n;
      const Range p = thread_range(tid, nth, g.k, kTransposeBlock);
      transpose_cols(g.b, g.ldb, n, p.lo, p.hi, wt);
#pragma omp barrier
    }
    sparse_forward_rows(s, n, rows.lo, tl_rows);
  });
  if (!tally.sparse()) return false;
  sparse_gemm_counter().inc();
  return true;
}

// C += alpha * d^T * x through the zero-skipping path, d = g.a (k x m),
// x = g.b (k x n). Returns false, with C untouched, when the selection
// keeps the dense kernel.
bool try_sparse_gradient(const PackedGemm& g, Index m, Index n) {
  if (!g.ta || g.tb || !sparse_shape(g.k, n) ||
      !sample_within_limit(g.b, g.ldb, g.k, n)) {
    return false;
  }
  const Index limit = nonzero_limit(g.k, n);
  const int threads =
      worth_threads(sparse_work(g.k, n, limit, m), (n + kNR - 1) / kNR);
  SparseTally tally(limit, threads);
  Scalar* ct = nullptr;
  parallel_team(threads, [&](Index tid, Index nth) {
    const auto t = static_cast<std::size_t>(tid);
    const Range cols = thread_range(tid, nth, n, kNR);
    tally.nonzeros[t] = gather_rows(g.b, g.ldb, 0, g.k, cols.lo, cols.hi,
                                    tally.limit, tl_rows);
    const Range d = thread_range(tid, nth, g.k, 1);
    tally.finite[t] = tally.nonzeros[t] > tally.limit ||
                      all_finite(g.a + d.lo * g.lda, g.lda, d.hi - d.lo, m);
#pragma omp barrier
    if (!tally.sparse()) return;
    Scalar* scratch = team_scratch(tid, static_cast<std::size_t>(n * m), ct);
    sparse_gradient_cols(g, m, cols.lo, cols.hi, tl_rows, scratch);
  });
  if (!tally.sparse()) return false;
  sparse_gemm_counter().inc();
  return true;
}

}  // namespace

detail::SparsePath detail::set_sparse_path(SparsePath path) {
  return std::exchange(tl_sparse_path, path);
}

void gemm(Trans ta, Trans tb, Scalar alpha, ConstMatrixView a,
          ConstMatrixView b, Scalar beta, MatrixView c) {
  GemmDims d = check_gemm_shapes(ta, tb, a, b, c);
  scale_c(c, d.m, d.n, beta);
  if (d.k == 0 || d.m == 0 || d.n == 0 || alpha == Scalar{0}) return;
  PackedGemm g{a.data(), a.cols(), ta == Trans::kYes,
               b.data(), b.cols(), tb == Trans::kYes,
               c.data(), c.cols(), d.k,    alpha,
               nullptr,  Epilogue::kBias};
  gemm_counter().inc();
  HETSGD_TRACE_SPAN(span, "tensor",
                    gemm_flops(d.m, d.n, d.k) >= kTraceFlopThreshold
                        ? "packed_gemm"
                        : nullptr);
  if (ta == Trans::kNo && d.m < kSkinnyM) {
    run_skinny(g, tb == Trans::kYes, d.m, d.n);
  } else if (d.k == 1) {
    run_rank1(g, d.m, d.n);
  } else if (!try_sparse_gradient(g, d.m, d.n)) {
    run_packed(g, d.m, d.n);
  }
}

void gemm_bias_act(Trans ta, Trans tb, Scalar alpha, ConstMatrixView a,
                   ConstMatrixView b, MatrixView c, ConstMatrixView bias,
                   Epilogue epilogue) {
  GemmDims d = check_gemm_shapes(ta, tb, a, b, c);
  HETSGD_ASSERT(bias.rows() == 1 && bias.cols() == d.n,
                "gemm_bias_act bias shape mismatch");
  scale_c(c, d.m, d.n, Scalar{0});
  if (d.m == 0 || d.n == 0) return;
  if (d.k == 0 || alpha == Scalar{0}) {
    // Degenerate product: Z = 0, epilogue still applies.
    const Scalar* bv = bias.data();
    for (Index i = 0; i < d.m; ++i) {
      Scalar* crow = c.row(i);
      for (Index j = 0; j < d.n; ++j) {
        crow[j] = detail::epilogue_apply(epilogue, bv[j]);
      }
    }
    return;
  }
  PackedGemm g{a.data(), a.cols(), ta == Trans::kYes,
               b.data(), b.cols(), tb == Trans::kYes,
               c.data(), c.cols(), d.k,    alpha,
               bias.data(), epilogue};
  if (ta == Trans::kNo && d.m < kSkinnyM) {
    run_skinny(g, tb == Trans::kYes, d.m, d.n);
  } else if (!try_sparse_forward(g, d.m, d.n)) {
    run_packed(g, d.m, d.n);
  }
}

void matmul_tn(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  gemm(Trans::kYes, Trans::kNo, Scalar{1}, a, b, Scalar{0}, out);
}

void matmul_nn(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  gemm(Trans::kNo, Trans::kNo, Scalar{1}, a, b, Scalar{0}, out);
}

double gemm_flops(Index m, Index n, Index k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace hetsgd::tensor
