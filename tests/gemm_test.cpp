#include "tensor/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "reference_gemm.hpp"
#include "tensor/csr.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::tensor {
namespace {

using ref::gemm_naive;

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  fill_normal(m.view(), rng, 0, 1);
  return m;
}

// A random matrix in which each entry is nonzero with probability
// `density`. Below density 1 it mimics a sparse input batch: row 0 is
// fully dense (one dense row among sparse ones) and row 1 is empty.
Matrix sparse_matrix(Index rows, Index cols, double density, Rng& rng) {
  Matrix m = random_matrix(rows, cols, rng);
  if (density >= 1.0) return m;
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      if (i == 1 || (i != 0 && !rng.bernoulli(density))) m(i, j) = 0;
    }
  }
  return m;
}

// CSR input products run so far (process-wide).
std::uint64_t sparse_gemms() {
  return obs::MetricsRegistry::instance()
      .counter("hetsgd_sparse_gemms_total")
      .value();
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(Scalar)) == 0;
}

TEST(GemmNaive, TinyKnownProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c(2, 2);
  gemm_naive(Trans::kNo, Trans::kNo, 1, a.view(), b.view(), 0, c.view());
  EXPECT_EQ(c(0, 0), 19);
  EXPECT_EQ(c(0, 1), 22);
  EXPECT_EQ(c(1, 0), 43);
  EXPECT_EQ(c(1, 1), 50);
}

TEST(GemmNaive, TransposeA) {
  Matrix a{{1, 3}, {2, 4}};  // a^T = [[1,2],[3,4]]
  Matrix b{{5, 6}, {7, 8}};
  Matrix c(2, 2);
  gemm_naive(Trans::kYes, Trans::kNo, 1, a.view(), b.view(), 0, c.view());
  EXPECT_EQ(c(0, 0), 19);
  EXPECT_EQ(c(1, 1), 50);
}

TEST(GemmNaive, AlphaBeta) {
  Matrix a{{1, 0}, {0, 1}};
  Matrix b{{2, 0}, {0, 2}};
  Matrix c{{1, 1}, {1, 1}};
  gemm_naive(Trans::kNo, Trans::kNo, 3, a.view(), b.view(), 10, c.view());
  EXPECT_EQ(c(0, 0), 16);  // 3*2 + 10*1
  EXPECT_EQ(c(0, 1), 10);
}

struct GemmCase {
  Index m, n, k;
  Trans ta, tb;
  Scalar alpha, beta;
  // Fraction of nonzero entries in both operands (see sparse_matrix): the
  // dense kernels on a sparse input stored dense.
  double density = 1.0;
};

class GemmMatchesNaive : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmMatchesNaive, AllShapes) {
  const GemmCase& p = GetParam();
  Rng rng(p.m * 1000003 + p.n * 131 + p.k);
  Matrix a = p.ta == Trans::kNo ? sparse_matrix(p.m, p.k, p.density, rng)
                                : sparse_matrix(p.k, p.m, p.density, rng);
  Matrix b = p.tb == Trans::kNo ? sparse_matrix(p.k, p.n, p.density, rng)
                                : sparse_matrix(p.n, p.k, p.density, rng);
  Matrix c_ref = random_matrix(p.m, p.n, rng);
  Matrix c_fast = c_ref;
  gemm_naive(p.ta, p.tb, p.alpha, a.view(), b.view(), p.beta, c_ref.view());
  gemm(p.ta, p.tb, p.alpha, a.view(), b.view(), p.beta, c_fast.view());
  EXPECT_LT(max_abs_diff(c_ref.view(), c_fast.view()),
            1e-10 * static_cast<Scalar>(p.k + 1));
}

std::vector<GemmCase> gemm_cases() {
  std::vector<GemmCase> cases;
  const Trans kT[] = {Trans::kNo, Trans::kYes};
  // Ragged shapes straddling every boundary of the packed kernel: the
  // 4x16 register tile, the 64/256/256 cache blocks, the skinny-m
  // fast-path threshold (m < 8), and degenerate 1-row/1-col shapes
  // (matrix-vector, the Hogwild hot path).
  const std::tuple<Index, Index, Index> shapes[] = {
      {1, 1, 1},      {1, 7, 5},      {5, 1, 3},      {3, 4, 1},
      {3, 7, 5},      {4, 16, 8},     {7, 33, 12},    {8, 16, 4},
      {17, 19, 23},   {17, 129, 63},  {64, 64, 64},   {65, 63, 130},
      {5, 300, 260},  {63, 257, 300}, {128, 32, 200}, {200, 130, 64},
  };
  for (auto [m, n, k] : shapes) {
    for (Trans ta : kT) {
      for (Trans tb : kT) {
        cases.push_back({m, n, k, ta, tb, Scalar{1}, Scalar{0}});
      }
    }
  }
  // Full alpha/beta grid {0, 1, -0.5}^2 on two ragged shapes (one inside
  // the skinny fast path, one exercising the packed path across blocks),
  // all four Trans combinations.
  const Scalar kAlphaBeta[] = {Scalar{0}, Scalar{1}, Scalar{-0.5}};
  const std::tuple<Index, Index, Index> ab_shapes[] = {{3, 7, 5},
                                                       {17, 129, 63}};
  for (auto [m, n, k] : ab_shapes) {
    for (Trans ta : kT) {
      for (Trans tb : kT) {
        for (Scalar alpha : kAlphaBeta) {
          for (Scalar beta : kAlphaBeta) {
            cases.push_back({m, n, k, ta, tb, alpha, beta});
          }
        }
      }
    }
  }
  // k = 1, the rank-1 path (and, for m < 8 with ta == kNo, the skinny
  // path): alpha in {1, -0.5}, beta in {0, 0.5, 1}, ragged m and n up to
  // the bench MLPs' 805 x 48 and 48 x 500 weight gradients.
  const std::tuple<Index, Index> rank1_shapes[] = {
      {3, 7}, {9, 33}, {130, 17}, {48, 500}, {805, 48}};
  for (auto [m, n] : rank1_shapes) {
    for (Trans ta : kT) {
      for (Trans tb : kT) {
        for (Scalar alpha : {Scalar{1}, Scalar{-0.5}}) {
          for (Scalar beta : {Scalar{0}, Scalar{0.5}, Scalar{1}}) {
            cases.push_back({m, n, 1, ta, tb, alpha, beta});
          }
        }
      }
    }
  }
  // Off-grid alpha/beta variants on one mid-size shape.
  cases.push_back({70, 40, 90, Trans::kNo, Trans::kNo, Scalar{2.5},
                   Scalar{-0.5}});
  cases.push_back({70, 40, 90, Trans::kYes, Trans::kYes, Scalar{-1},
                   Scalar{1}});
  cases.push_back({70, 40, 90, Trans::kNo, Trans::kYes, Scalar{0.1},
                   Scalar{3}});
  // Input-density sweep from all zeros to dense, on narrow and wide,
  // short and tall shapes; all four Trans combinations run on each.
  const double kDensities[] = {0.0, 0.005, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0};
  const std::tuple<Index, Index, Index> sparse_shapes[] = {
      {16, 63, 40}, {16, 64, 40}, {12, 100, 7},
      {12, 100, 8}, {48, 300, 130}, {33, 517, 64},
  };
  for (auto [m, n, k] : sparse_shapes) {
    for (double density : kDensities) {
      for (Trans ta : kT) {
        for (Trans tb : kT) {
          cases.push_back({m, n, k, ta, tb, Scalar{1}, Scalar{0}, density});
        }
      }
    }
  }
  // The alpha/beta grid on a sparse input.
  for (Scalar alpha : kAlphaBeta) {
    for (Scalar beta : kAlphaBeta) {
      for (double density : {0.02, 1.0}) {
        cases.push_back(
            {20, 150, 40, Trans::kYes, Trans::kNo, alpha, beta, density});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GemmMatchesNaive,
                         ::testing::ValuesIn(gemm_cases()));

// Local reference for the fused epilogues, written out independently of
// detail::epilogue_apply (tensor tests cannot use nn::activation).
Scalar ref_act(Epilogue e, Scalar z) {
  switch (e) {
    case Epilogue::kBias:
      return z;
    case Epilogue::kBiasSigmoid:
      return Scalar{1} / (Scalar{1} + std::exp(-z));
    case Epilogue::kBiasTanh:
      return std::tanh(z);
    case Epilogue::kBiasRelu:
      return z > Scalar{0} ? z : Scalar{0};
  }
  return z;
}

const char* epilogue_name(Epilogue e) {
  switch (e) {
    case Epilogue::kBias:        return "bias";
    case Epilogue::kBiasSigmoid: return "sigmoid";
    case Epilogue::kBiasTanh:    return "tanh";
    case Epilogue::kBiasRelu:    return "relu";
  }
  return "?";
}

// gemm_bias_act must equal the unfused gemm -> bias add -> activation
// sequence within 1e-12 (they share the arithmetic; only FP contraction in
// the fused write-back may differ) across epilogues, Trans combinations,
// input densities, and shapes hitting the skinny fast path, exact register
// tiles and ragged multi-block edges.
TEST(GemmBiasAct, MatchesUnfusedSequence) {
  const Trans kT[] = {Trans::kNo, Trans::kYes};
  const Epilogue kEps[] = {Epilogue::kBias, Epilogue::kBiasSigmoid,
                           Epilogue::kBiasTanh, Epilogue::kBiasRelu};
  const std::tuple<Index, Index, Index, double> shapes[] = {
      {1, 1, 1, 1.0},    {1, 7, 5, 1.0},      {3, 7, 5, 1.0},
      {4, 16, 8, 1.0},   {7, 33, 12, 1.0},    {17, 129, 63, 1.0},
      {70, 40, 90, 1.0}, {7, 48, 200, 0.02},  {8, 48, 63, 0.02},
      {8, 48, 64, 0.0},  {8, 48, 64, 0.02},   {70, 40, 90, 0.05},
      {40, 48, 300, 0.2}, {40, 48, 300, 0.5},
  };
  std::uint64_t seed = 9000;
  for (auto [m, n, k, density] : shapes) {
    for (Trans ta : kT) {
      for (Trans tb : kT) {
        Rng rng(++seed);
        Matrix a = ta == Trans::kNo ? sparse_matrix(m, k, density, rng)
                                    : sparse_matrix(k, m, density, rng);
        Matrix b = tb == Trans::kNo ? random_matrix(k, n, rng)
                                    : random_matrix(n, k, rng);
        Matrix bias = random_matrix(1, n, rng);
        for (Epilogue e : kEps) {
          // Garbage in C: gemm_bias_act must overwrite, not accumulate.
          Matrix fused = random_matrix(m, n, rng);
          gemm_bias_act(ta, tb, Scalar{1}, a.view(), b.view(), fused.view(),
                        bias.view(), e);
          Matrix ref(m, n);
          gemm(ta, tb, Scalar{1}, a.view(), b.view(), Scalar{0}, ref.view());
          for (Index i = 0; i < m; ++i) {
            for (Index j = 0; j < n; ++j) {
              ref(i, j) = ref_act(e, ref(i, j) + bias(0, j));
            }
          }
          EXPECT_LT(max_abs_diff(ref.view(), fused.view()), 1e-12)
              << "m=" << m << " n=" << n << " k=" << k
              << " density=" << density << " ta=" << (ta == Trans::kYes)
              << " tb=" << (tb == Trans::kYes)
              << " epilogue=" << epilogue_name(e);
        }
      }
    }
  }
}

// alpha = 0 must still run the epilogue: C = act(bias) broadcast per row.
TEST(GemmBiasAct, AlphaZeroAppliesEpilogueToBias) {
  const Index m = 3, n = 20, k = 4;
  Rng rng(41);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix bias = random_matrix(1, n, rng);
  Matrix c = random_matrix(m, n, rng);
  gemm_bias_act(Trans::kNo, Trans::kNo, Scalar{0}, a.view(), b.view(),
                c.view(), bias.view(), Epilogue::kBiasSigmoid);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(c(i, j), ref_act(Epilogue::kBiasSigmoid, bias(0, j)));
    }
  }
}

// The scaled fused product: C = act(alpha * A * B^T + bias), on 17 dense
// inputs and 200 sparse ones.
TEST(GemmBiasAct, RespectsAlpha) {
  const Index m = 9, n = 33;
  const Scalar alpha = -0.5;
  Rng rng(42);
  for (auto [k, density] : {std::pair<Index, double>{17, 1.0}, {200, 0.02}}) {
    Matrix a = sparse_matrix(m, k, density, rng);
    Matrix b = random_matrix(n, k, rng);
    Matrix bias = random_matrix(1, n, rng);
    Matrix fused(m, n);
    gemm_bias_act(Trans::kNo, Trans::kYes, alpha, a.view(), b.view(),
                  fused.view(), bias.view(), Epilogue::kBiasTanh);
    Matrix ref(m, n);
    gemm_naive(Trans::kNo, Trans::kYes, alpha, a.view(), b.view(), Scalar{0},
               ref.view());
    for (Index i = 0; i < m; ++i) {
      for (Index j = 0; j < n; ++j) {
        ref(i, j) = ref_act(Epilogue::kBiasTanh, ref(i, j) + bias(0, j));
      }
    }
    EXPECT_LT(max_abs_diff(ref.view(), fused.view()), 1e-12) << "k=" << k;
  }
}

// A NaN weight poisons the tanh forward on every engine that runs it: the
// packed kernel, both skinny kernels and the CSR forward (whose NaN reaches
// the rows storing its column; a NaN input poisons its row). Every output
// the NaN reaches stays NaN through tanh, and the rest stay finite: a tanh
// that turned NaN into +-1 would hide a diverged model from the divergence
// guard.
TEST(GemmBiasAct, NaNWeightPoisonsTanhOnEveryEngine) {
  const Scalar kNaN = std::numeric_limits<Scalar>::quiet_NaN();
  struct Engine {
    const char* name;
    Index m, k;
    Trans tb;
    double density;
  };
  const Engine engines[] = {
      {"packed NT", 16, 40, Trans::kYes, 1.0},
      {"packed NN", 16, 40, Trans::kNo, 1.0},
      {"skinny NT", 3, 40, Trans::kYes, 1.0},
      {"skinny NN", 3, 40, Trans::kNo, 1.0},
  };
  const Index n = 24, unit = 5, input = 7;
  Rng rng(66);
  for (const Engine& e : engines) {
    SCOPED_TRACE(e.name);
    Matrix x = sparse_matrix(e.m, e.k, e.density, rng);
    Matrix w = e.tb == Trans::kYes ? random_matrix(n, e.k, rng)
                                   : random_matrix(e.k, n, rng);
    (e.tb == Trans::kYes ? w(unit, input) : w(input, unit)) = kNaN;
    Matrix bias = random_matrix(1, n, rng);
    Matrix out(e.m, n);
    gemm_bias_act(Trans::kNo, e.tb, Scalar{1}, x.view(), w.view(),
                  out.view(), bias.view(), Epilogue::kBiasTanh);
    for (Index i = 0; i < e.m; ++i) {
      for (Index j = 0; j < n; ++j) {
        ASSERT_EQ(std::isnan(out(i, j)), j == unit)
            << "(" << i << ", " << j << ") = " << out(i, j);
      }
    }
  }
  // The CSR forward, poisoned through its input and through a weight in a
  // column that rows 3 and 50 store.
  Matrix x = sparse_matrix(64, 300, 0.01, rng);
  x(9, 40) = kNaN;
  for (Index i = 0; i < 64; ++i) x(i, input) = 0;
  x(3, input) = 0.5;
  x(50, input) = -2.0;
  const CsrMatrix csr = CsrMatrix::from_dense(x.view());
  Matrix w = random_matrix(n, 300, rng);
  w(unit, input) = kNaN;
  Matrix bias = random_matrix(1, n, rng);
  Matrix out(64, n);
  const std::uint64_t before = sparse_gemms();
  csr_bias_act(csr.view(), w.view(), out.view(), bias.view(),
               Epilogue::kBiasTanh);
  EXPECT_EQ(sparse_gemms() - before, 1u);
  for (Index i = 0; i < 64; ++i) {
    for (Index j = 0; j < n; ++j) {
      const bool reached = i == 9 || (j == unit && (i == 3 || i == 50));
      ASSERT_EQ(std::isnan(out(i, j)), reached)
          << "(" << i << ", " << j << ")";
    }
  }
}

// --- CSR input products ------------------------------------------------------

// The forward's documented sum, written out: each output from +0 over the
// row's stored entries in ascending column order, then the fused epilogue.
Matrix csr_forward_reference(const CsrMatrix& x, const Matrix& w,
                             const Matrix& bias, Epilogue e) {
  const CsrView v = x.view();
  Matrix out(v.rows(), w.rows());
  for (Index i = 0; i < v.rows(); ++i) {
    for (Index j = 0; j < w.rows(); ++j) {
      Scalar acc = 0;
      for (Index q = v.row_ptr()[i]; q < v.row_ptr()[i + 1]; ++q) {
        acc += v.val()[q] * w(j, v.col()[q]);
      }
      out(i, j) = acc;
    }
    detail::epilogue_row(e, out.row(i), bias.data(), w.rows());
  }
  return out;
}

// The gradient's documented sum: C = beta * C, then each C[i][p] plus
// alpha times the sum from +0 over the rows storing column p, ascending.
Matrix csr_gradient_reference(Scalar alpha, const Matrix& d,
                              const CsrMatrix& x, Scalar beta, Matrix c) {
  const CsrView v = x.view();
  for (Index i = 0; i < c.rows(); ++i) {
    for (Index p = 0; p < c.cols(); ++p) {
      if (beta == Scalar{0}) {
        c(i, p) = 0;
      } else if (beta != Scalar{1}) {
        c(i, p) *= beta;
      }
      Scalar acc = 0;
      bool stored = false;
      for (Index r = 0; r < v.rows(); ++r) {
        for (Index q = v.row_ptr()[r]; q < v.row_ptr()[r + 1]; ++q) {
          if (v.col()[q] != p) continue;
          acc += v.val()[q] * d(r, i);
          stored = true;
        }
      }
      if (stored) c(i, p) += alpha * acc;
    }
  }
  return c;
}

// got == the documented sum written out here, bit for bit. Built with FMA
// (the -DHETSGD_NATIVE=ON build), the compiler may contract a * b + c into
// one rounding in the kernel and not here, or the other way round, so
// there the two agree to rounding instead.
bool matches_documented_sum(const Matrix& got, const Matrix& want) {
#ifdef __FMA__
  return max_abs_diff(got.view(), want.view()) < 1e-12;
#else
  return bitwise_equal(got, want);
#endif
}

// Both CSR products against their documented sums bit for bit, and against
// ref::gemm_naive on the densified input to rounding: 1 to 70 rows (row 0
// dense, row 1 empty, the rest ragged), inputs 64 and 300 wide, densities
// 0 to 0.3, and both gradient forms (alpha = 1, beta = 0; alpha = -0.5,
// beta = 1).
TEST(CsrInput, ProductsMatchTheirDocumentedSums) {
  Rng rng(71);
  const Epilogue kEps[] = {Epilogue::kBias, Epilogue::kBiasTanh,
                           Epilogue::kBiasRelu};
  for (Index m : {1, 2, 7, 8, 70}) {
    for (Index k : {64, 300}) {
      for (double density : {0.0, 0.01, 0.1, 0.3}) {
        SCOPED_TRACE(testing::Message() << "m=" << m << " k=" << k
                                        << " density=" << density);
        const Matrix dense = sparse_matrix(m, k, density, rng);
        const CsrMatrix x = CsrMatrix::from_dense(dense.view());
        const Index n = 13;
        const Matrix w = random_matrix(n, k, rng);
        const Matrix bias = random_matrix(1, n, rng);
        for (Epilogue e : kEps) {
          Matrix out = random_matrix(m, n, rng);  // overwritten
          csr_bias_act(x.view(), w.view(), out.view(), bias.view(), e);
          EXPECT_TRUE(matches_documented_sum(
              out, csr_forward_reference(x, w, bias, e)));
        }
        Matrix product(m, n);
        gemm_naive(Trans::kNo, Trans::kYes, 1, dense.view(), w.view(), 0,
                   product.view());
        Matrix out(m, n);
        csr_bias_act(x.view(), w.view(), out.view(), bias.view(),
                     Epilogue::kBias);
        for (Index i = 0; i < m; ++i) {
          for (Index j = 0; j < n; ++j) product(i, j) += bias(0, j);
        }
        EXPECT_LT(max_abs_diff(out.view(), product.view()), 1e-12);

        const Matrix d = random_matrix(m, n, rng);
        for (auto [alpha, beta] : {std::pair<Scalar, Scalar>{1, 0},
                                   {Scalar{-0.5}, Scalar{1}}}) {
          const Matrix start = random_matrix(n, k, rng);
          Matrix grad = start;
          csr_gemm_tn(alpha, d.view(), x.view(), beta, grad.view());
          EXPECT_TRUE(matches_documented_sum(
              grad, csr_gradient_reference(alpha, d, x, beta, start)));
          Matrix want = start;
          gemm_naive(Trans::kYes, Trans::kNo, alpha, d.view(), dense.view(),
                     beta, want.view());
          EXPECT_LT(max_abs_diff(grad.view(), want.view()), 1e-12);
        }
      }
    }
  }
}

// A one-row batch (a Hogwild lane's step) rounds as the dense kernels'
// k = 1 path does: the same bits as gemm on the densified row.
TEST(CsrInput, OneRowGradientMatchesTheDenseRankOne) {
  Rng rng(72);
  for (double density : {0.02, 0.12, 0.5}) {
    const Matrix dense = sparse_matrix(1, 500, density, rng);
    const CsrMatrix x = CsrMatrix::from_dense(dense.view());
    const Matrix d = random_matrix(1, 48, rng);
    for (auto [alpha, beta] : {std::pair<Scalar, Scalar>{1, 0},
                               {Scalar{-1e-3}, Scalar{1}}}) {
      const Matrix start = random_matrix(48, 500, rng);
      Matrix got = start;
      Matrix want = start;
      csr_gemm_tn(alpha, d.view(), x.view(), beta, got.view());
      gemm(Trans::kYes, Trans::kNo, alpha, d.view(), dense.view(), beta,
           want.view());
      EXPECT_TRUE(bitwise_equal(got, want)) << density;
    }
  }
}

// The forward's one-row form (a lane's step, which reads W's columns with
// stride) and its batch form (about 6 entries per column: W transposed)
// agree bit for bit, row by row.
TEST(CsrInput, ForwardRowByRowMatchesTheBatch) {
  Rng rng(73);
  for (Index k : {500, 2963}) {
    const Index m = 64, n = 48;
    const CsrMatrix x =
        CsrMatrix::from_dense(sparse_matrix(m, k, 0.1, rng).view());
    const Matrix w = random_matrix(n, k, rng);
    const Matrix bias = random_matrix(1, n, rng);
    Matrix batch(m, n);
    csr_bias_act(x.view(), w.view(), batch.view(), bias.view(),
                 Epilogue::kBiasTanh);
    for (Index i = 0; i < m; ++i) {
      Matrix row(1, n);
      csr_bias_act(x.rows_view(i, 1), w.view(), row.view(), bias.view(),
                   Epilogue::kBiasTanh);
      ASSERT_EQ(std::memcmp(row.data(), batch.row(i), n * sizeof(Scalar)), 0)
          << "k=" << k << " row " << i;
    }
  }
}

// The contract of skipping x's zeros: a NaN or Inf in W (forward) or in
// the delta (gradient) reaches only outputs that a stored entry of x
// touches, and a NaN or Inf in x poisons its row (forward) or column
// (gradient).
TEST(CsrInput, NonFiniteValuesPropagateFromTouchedEntriesOnly) {
  const Scalar kNaN = std::numeric_limits<Scalar>::quiet_NaN();
  const Scalar kInf = std::numeric_limits<Scalar>::infinity();
  Rng rng(74);
  const Index rows = 40, width = 300, units = 24;
  Matrix dense = sparse_matrix(rows, width, 0.01, rng);
  for (Index i = 0; i < rows; ++i) {
    dense(i, 7) = 0;   // column 7: stored by no row
    dense(i, 11) = 0;  // column 11: stored by row 5 only
  }
  dense(5, 11) = 1.5;
  const CsrMatrix x = CsrMatrix::from_dense(dense.view());
  const Matrix bias = random_matrix(1, units, rng);
  for (Scalar poison : {kNaN, kInf}) {
    SCOPED_TRACE(poison);
    Matrix w = random_matrix(units, width, rng);
    w(3, 7) = poison;
    Matrix out(rows, units);
    csr_bias_act(x.view(), w.view(), out.view(), bias.view(), Epilogue::kBias);
    for (Index i = 0; i < rows; ++i) {
      for (Index j = 0; j < units; ++j) ASSERT_TRUE(std::isfinite(out(i, j)));
    }
    w(4, 11) = poison;
    csr_bias_act(x.view(), w.view(), out.view(), bias.view(), Epilogue::kBias);
    for (Index i = 0; i < rows; ++i) {
      for (Index j = 0; j < units; ++j) {
        ASSERT_EQ(std::isfinite(out(i, j)), !(i == 5 && j == 4))
            << "(" << i << ", " << j << ")";
      }
    }

    Matrix d = random_matrix(rows, units, rng);
    d(5, 2) = poison;  // row 5 stores its random columns and column 11
    Matrix grad(units, width);
    csr_gemm_tn(Scalar{1}, d.view(), x.view(), Scalar{0}, grad.view());
    for (Index i = 0; i < units; ++i) {
      for (Index p = 0; p < width; ++p) {
        ASSERT_EQ(std::isfinite(grad(i, p)), !(i == 2 && dense(5, p) != 0))
            << "(" << i << ", " << p << ")";
      }
    }
  }
  // NaN in x: its row of the forward and its column of the gradient.
  dense(9, 40) = kNaN;
  const CsrMatrix poisoned = CsrMatrix::from_dense(dense.view());
  const Matrix w = random_matrix(units, width, rng);
  Matrix out(rows, units);
  csr_bias_act(poisoned.view(), w.view(), out.view(), bias.view(),
               Epilogue::kBias);
  const Matrix d = random_matrix(rows, units, rng);
  Matrix grad(units, width);
  csr_gemm_tn(Scalar{1}, d.view(), poisoned.view(), Scalar{0}, grad.view());
  for (Index j = 0; j < units; ++j) {
    EXPECT_TRUE(std::isnan(out(9, j)));
    EXPECT_TRUE(std::isfinite(out(8, j)));
    EXPECT_TRUE(std::isnan(grad(j, 40)));
    EXPECT_TRUE(std::isfinite(grad(j, 41)));
  }
}

TEST(Gemm, MatmulWrappers) {
  Rng rng(77);
  const Index b = 13, in = 9, out = 11;
  Matrix x = random_matrix(b, in, rng);
  Matrix w = random_matrix(out, in, rng);
  Matrix d = random_matrix(b, out, rng);
  Matrix gw(out, in);
  matmul_tn(d.view(), x.view(), gw.view());
  Matrix gw_ref(out, in);
  gemm_naive(Trans::kYes, Trans::kNo, 1, d.view(), x.view(), 0, gw_ref.view());
  EXPECT_LT(max_abs_diff(gw.view(), gw_ref.view()), 1e-12);

  Matrix dx(b, in);
  matmul_nn(d.view(), w.view(), dx.view());
  Matrix dx_ref(b, in);
  gemm_naive(Trans::kNo, Trans::kNo, 1, d.view(), w.view(), 0, dx_ref.view());
  EXPECT_LT(max_abs_diff(dx.view(), dx_ref.view()), 1e-12);
}

TEST(Gemm, ShapeMismatchDies) {
  Matrix a(2, 3), b(4, 2), c(2, 2);
  EXPECT_DEATH(gemm(Trans::kNo, Trans::kNo, 1, a.view(), b.view(), 0, c.view()),
               "inner dimensions");
  Matrix b2(3, 5);
  EXPECT_DEATH(gemm(Trans::kNo, Trans::kNo, 1, a.view(), b2.view(), 0,
                    c.view()),
               "output shape");
}

TEST(Gemm, FlopsFormula) {
  EXPECT_DOUBLE_EQ(gemm_flops(2, 3, 4), 48.0);
  EXPECT_DOUBLE_EQ(gemm_flops(1, 1, 1), 2.0);
}

// A NaN or Inf in either operand of a k = 1 product poisons C as the
// dense kernel does: a NaN its whole row or column, an Inf every output
// but those it meets a zero in, which go NaN.
TEST(Gemm, RankOnePoisonsLikeTheDenseKernel) {
  const Scalar kNaN = std::numeric_limits<Scalar>::quiet_NaN();
  const Scalar kInf = std::numeric_limits<Scalar>::infinity();
  const Trans kT[] = {Trans::kNo, Trans::kYes};
  const Index m = 19, n = 37;
  Rng rng(64);
  for (Trans ta : kT) {
    for (Trans tb : kT) {
      Matrix a = ta == Trans::kNo ? random_matrix(m, 1, rng)
                                  : random_matrix(1, m, rng);
      Matrix b = tb == Trans::kNo ? random_matrix(1, n, rng)
                                  : random_matrix(n, 1, rng);
      a.data()[2] = kNaN;
      a.data()[11] = kInf;
      b.data()[5] = 0;
      b.data()[9] = -kInf;
      b.data()[30] = kNaN;
      for (Scalar beta : {Scalar{0}, Scalar{1}}) {
        Matrix want = random_matrix(m, n, rng);
        Matrix got = want;
        gemm_naive(ta, tb, Scalar{-0.5}, a.view(), b.view(), beta,
                   want.view());
        gemm(ta, tb, Scalar{-0.5}, a.view(), b.view(), beta, got.view());
        EXPECT_TRUE(std::isnan(got(2, 0)));
        EXPECT_TRUE(std::isnan(got(11, 5)));   // Inf * 0
        EXPECT_TRUE(std::isinf(got(11, 9)));   // Inf * -Inf
        EXPECT_TRUE(std::isnan(got(0, 30)));
        for (Index i = 0; i < m; ++i) {
          for (Index j = 0; j < n; ++j) {
            ASSERT_EQ(std::isnan(got(i, j)), std::isnan(want(i, j)))
                << "(" << i << ", " << j << ") ta=" << (ta == Trans::kYes)
                << " tb=" << (tb == Trans::kYes) << " beta=" << beta;
            if (!std::isnan(want(i, j))) {
              EXPECT_DOUBLE_EQ(got(i, j), want(i, j));
            }
          }
        }
      }
    }
  }
}

#ifdef _OPENMP
// A rank-1 product large enough to fork a team splits C by rows, each
// element computed once: 1 thread and N threads agree bit for bit.
TEST(Gemm, RankOneBitIdenticalForAnyThreadCount) {
  Rng rng(65);
  const Index m = 1500, n = 900;
  Matrix a = random_matrix(1, m, rng);
  Matrix b = random_matrix(1, n, rng);
  Matrix start = random_matrix(m, n, rng);
  const auto run = [&](int threads) {
    const int previous = omp_get_max_threads();
    omp_set_num_threads(threads);
    Matrix c = start;
    gemm(Trans::kYes, Trans::kNo, Scalar{-0.25}, a.view(), b.view(),
         Scalar{1}, c.view());
    omp_set_num_threads(previous);
    return c;
  };
  const Matrix one = run(1);
  for (int threads : {2, 3, std::max(4, omp_get_num_procs())}) {
    EXPECT_TRUE(bitwise_equal(run(threads), one)) << threads << " threads";
  }
}

// The CSR kernels split x among threads by C rows (forward) and C column
// ranges (gradient); either way each output is summed by one thread in a
// fixed order, so 1 thread and N threads agree bit for bit. The shape is
// large enough for every thread the host offers.
TEST(CsrInput, BitIdenticalForAnyThreadCount) {
  Rng rng(63);
  const Index rows = 512, width = 2100, units = 48;
  const CsrMatrix x =
      CsrMatrix::from_dense(sparse_matrix(rows, width, 0.01, rng).view());
  Matrix w = random_matrix(units, width, rng);
  Matrix bias = random_matrix(1, units, rng);
  Matrix d = random_matrix(rows, units, rng);
  const auto run = [&](int threads, Matrix& out, Matrix& grad) {
    const int previous = omp_get_max_threads();
    omp_set_num_threads(threads);
    const std::uint64_t before = sparse_gemms();
    csr_bias_act(x.view(), w.view(), out.view(), bias.view(),
                 Epilogue::kBiasTanh);
    csr_gemm_tn(Scalar{1}, d.view(), x.view(), Scalar{0}, grad.view());
    EXPECT_EQ(sparse_gemms() - before, 2u);
    omp_set_num_threads(previous);
  };
  Matrix out1(rows, units), grad1(units, width);
  run(1, out1, grad1);
  for (int threads : {2, 3, std::max(4, omp_get_num_procs())}) {
    Matrix out(rows, units), grad(units, width);
    run(threads, out, grad);
    EXPECT_TRUE(bitwise_equal(out, out1)) << threads << " threads";
    EXPECT_TRUE(bitwise_equal(grad, grad1)) << threads << " threads";
  }
}
#endif

TEST(Gemm, CheckShapesReturnsDims) {
  Matrix a(5, 7), b(9, 7), c(5, 9);
  GemmDims d = check_gemm_shapes(Trans::kNo, Trans::kYes, a.view(), b.view(),
                                 c.view());
  EXPECT_EQ(d.m, 5);
  EXPECT_EQ(d.n, 9);
  EXPECT_EQ(d.k, 7);
}

}  // namespace
}  // namespace hetsgd::tensor
