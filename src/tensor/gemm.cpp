#include "tensor/gemm.hpp"

#include <algorithm>

#include "common/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/microkernel.hpp"
#include "tensor/pack.hpp"
#include "tensor/parallel.hpp"

namespace hetsgd::tensor {

namespace {

using detail::gemm_counter;
using detail::kKC;
using detail::kMC;
using detail::kMR;
using detail::kNC;
using detail::kNR;
using detail::kTraceFlopThreshold;
using detail::parallel_ranges;
using detail::parallel_team;
using detail::Range;
using detail::scale_c;
using detail::thread_range;
using detail::worth_threads;

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

}  // namespace

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
  } else {
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
  } else {
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
