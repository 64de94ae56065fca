// General matrix-matrix multiply — the host-side replacement for the MKL
// GEMM the paper calls from its CPU worker.
//
// C = alpha * op(A) * op(B) + beta * C, row-major, with op ∈ {identity,
// transpose}. The production path is a pack-and-microkernel GEMM
// (pack.hpp / microkernel.hpp): operands are packed per cache block into
// contiguous zero-padded panels (all four Trans combinations resolved at
// pack time), multiplied by a register-blocked vectorized micro-kernel,
// and scheduled shape-aware — the parallel partition runs over rows when
// the batch dimension m is large (GPU-style batches) and over columns
// (layer width n) when m is small, the CPU Hogbatch-worker case that the
// seed kernel left serial. `gemm_naive` is the O(n^3) reference oracle
// used by the test suite.
#pragma once

#include "tensor/matrix.hpp"
#include "tensor/microkernel.hpp"  // Epilogue

namespace hetsgd::tensor {

enum class Trans { kNo, kYes };

struct GemmDims {
  Index m;  // rows of op(A) and C
  Index n;  // cols of op(B) and C
  Index k;  // cols of op(A) == rows of op(B)
};

// Validates shapes and returns the (m, n, k) of the product. Aborts on
// mismatch — shape errors are programming bugs, not runtime conditions.
GemmDims check_gemm_shapes(Trans ta, Trans tb, ConstMatrixView a,
                           ConstMatrixView b, ConstMatrixView c);

// Reference implementation (single-threaded, no blocking).
void gemm_naive(Trans ta, Trans tb, Scalar alpha, ConstMatrixView a,
                ConstMatrixView b, Scalar beta, MatrixView c);

// Production implementation: packed panels + register-blocked micro-kernel,
// OpenMP-parallel with a shape-aware partition (rows when m is large,
// columns when m is small). Deterministic: the result is bit-identical for
// any thread count, including serial.
//
// Sparse inputs: the weight-gradient product C = alpha * A^T * B + beta * C
// (ta == kYes, tb == kNo) treats B as the layer input x. When x has at
// least 8 rows and 64 columns, at most kSparseMaxDensity (gemm.cpp) of its
// entries are nonzero, both in a 16-row sample and overall, and A holds no
// NaN or Inf, the call visits only x's nonzeros instead of running the
// packed kernel. A dense x fails the sample after a scan of three rows. The
// result matches the dense kernel to rounding, keeps NaN/Inf where the
// dense kernel has them, and stays bit-identical for any thread count
// (DESIGN.md §8).
void gemm(Trans ta, Trans tb, Scalar alpha, ConstMatrixView a,
          ConstMatrixView b, Scalar beta, MatrixView c);

// Fused forward-layer kernel: C = epilogue(alpha * op(A) * op(B) + bias),
// with `bias` a 1 x n row vector broadcast over rows and the epilogue
// (bias add + optional activation, see microkernel.hpp) applied during the
// final C write-back while the tile is still in registers — replacing the
// gemm -> add_row_bias -> activation_forward sequence and its two extra
// full passes over C. Matches the unfused sequence to rounding (within
// 1e-12 in the equivalence suite; FP contraction and the zero-skipping
// path's summation order may differ by ulps). With ta == kNo, A is the
// layer input x and takes the zero-skipping path under the same rule as
// gemm's (B must then be free of NaN and Inf).
void gemm_bias_act(Trans ta, Trans tb, Scalar alpha, ConstMatrixView a,
                   ConstMatrixView b, MatrixView c, ConstMatrixView bias,
                   Epilogue epilogue);

// Convenience wrappers matching the three products in MLP training.
// out(BxN) = x(BxK) * w(NxK)^T
void matmul_nt(ConstMatrixView x, ConstMatrixView w, MatrixView out);
// out(MxN) = a(KxM)^T * b(KxN)
void matmul_tn(ConstMatrixView a, ConstMatrixView b, MatrixView out);
// out(MxN) = a(MxK) * b(KxN)
void matmul_nn(ConstMatrixView a, ConstMatrixView b, MatrixView out);

// Number of floating point operations a GEMM of these dimensions performs
// (2*m*n*k); used by the gpusim perf model to charge virtual time.
double gemm_flops(Index m, Index n, Index k);

namespace detail {

// Override of the zero-skipping path's density rule on the calling thread,
// so tests and bench/micro_gemm's density sweep can run both kernels on the
// same operands. kAuto (the default, and what every caller runs) applies
// the rule; kDense never takes the path; kSparse takes it at any density.
// The shape and NaN/Inf rules apply in every mode. Returns the previous
// setting.
enum class SparsePath { kAuto, kDense, kSparse };
SparsePath set_sparse_path(SparsePath path);

}  // namespace detail

}  // namespace hetsgd::tensor
