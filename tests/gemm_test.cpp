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
#include "tensor/ops.hpp"

namespace hetsgd::tensor {
namespace {

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

// Products that took the zero-skipping path so far (process-wide).
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

// Runs `fn` with the density rule of the zero-skipping path overridden.
template <typename Fn>
void with_sparse_path(detail::SparsePath path, const Fn& fn) {
  const detail::SparsePath previous = detail::set_sparse_path(path);
  fn();
  detail::set_sparse_path(previous);
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
  // Fraction of nonzero entries in both operands (see sparse_matrix). In
  // the weight-gradient product d^T * x (ta == kYes, tb == kNo) B is the
  // input x, whose sparsity selects the zero-skipping path.
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
  // Off-grid alpha/beta variants on one mid-size shape.
  cases.push_back({70, 40, 90, Trans::kNo, Trans::kNo, Scalar{2.5},
                   Scalar{-0.5}});
  cases.push_back({70, 40, 90, Trans::kYes, Trans::kYes, Scalar{-1},
                   Scalar{1}});
  cases.push_back({70, 40, 90, Trans::kNo, Trans::kYes, Scalar{0.1},
                   Scalar{3}});
  // Input-density sweep from all zeros to dense. Shapes straddle the
  // zero-skipping path's shape rule for the weight-gradient product: x
  // width n (= 63 / 64 columns) and x batch k (= 7 / 8 rows), plus wider
  // multi-range shapes; all four Trans combinations run on each.
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
  // The alpha/beta grid through the zero-skipping path.
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

// gemm_bias_act must equal the unfused gemm -> add_row_bias -> activation
// sequence within 1e-12 (they share the arithmetic; only FP contraction in
// the fused write-back and the zero-skipping path's summation order may
// differ) across epilogues, Trans combinations, input densities, and
// shapes hitting the skinny fast path, exact register tiles, ragged
// multi-block edges, and both sides of the zero-skipping path's shape
// rule (x at least 8 rows by 64 columns).
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
          add_row_bias(bias.view(), ref.view());
          for (Index i = 0; i < m; ++i) {
            for (Index j = 0; j < n; ++j) ref(i, j) = ref_act(e, ref(i, j));
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

// The scaled fused product: C = act(alpha * A * B^T + bias), on the packed
// kernel (17 dense inputs) and on the zero-skipping path (200 sparse ones).
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
    add_row_bias(bias.view(), ref.view());
    for (Index i = 0; i < m; ++i) {
      for (Index j = 0; j < n; ++j) {
        ref(i, j) = ref_act(Epilogue::kBiasTanh, ref(i, j));
      }
    }
    EXPECT_LT(max_abs_diff(ref.view(), fused.view()), 1e-12) << "k=" << k;
  }
}

TEST(Gemm, MatmulWrappers) {
  Rng rng(77);
  const Index b = 13, in = 9, out = 11;
  Matrix x = random_matrix(b, in, rng);
  Matrix w = random_matrix(out, in, rng);
  Matrix y(b, out);
  matmul_nt(x.view(), w.view(), y.view());
  Matrix y_ref(b, out);
  gemm_naive(Trans::kNo, Trans::kYes, 1, x.view(), w.view(), 0, y_ref.view());
  EXPECT_LT(max_abs_diff(y.view(), y_ref.view()), 1e-12);

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

// The zero-skipping path engages exactly when the rule in gemm.cpp says:
// x at least 8 rows by 64 columns and sparse, in a sample of its rows and
// overall. Each shape bound is probed from both sides with a sparse x; a
// dense x never takes the path.
TEST(SparseInput, PathFollowsShapeAndDensity) {
  Rng rng(61);
  const auto forward_takes_path = [&](const Matrix& x) {
    Matrix w = random_matrix(16, x.cols(), rng);
    Matrix bias = random_matrix(1, 16, rng);
    Matrix out(x.rows(), 16);
    const std::uint64_t before = sparse_gemms();
    gemm_bias_act(Trans::kNo, Trans::kYes, Scalar{1}, x.view(), w.view(),
                  out.view(), bias.view(), Epilogue::kBiasRelu);
    return sparse_gemms() - before;
  };
  const auto gradient_takes_path = [&](const Matrix& x) {
    Matrix d = random_matrix(x.rows(), 16, rng);
    Matrix grad(16, x.cols());
    const std::uint64_t before = sparse_gemms();
    matmul_tn(d.view(), x.view(), grad.view());
    return sparse_gemms() - before;
  };
  const auto check_bounds = [&](const auto& takes_path) {
    EXPECT_EQ(takes_path(sparse_matrix(200, 64, 0.01, rng)), 1u);
    EXPECT_EQ(takes_path(sparse_matrix(200, 63, 0.01, rng)), 0u);
    Matrix rows8(8, 640), rows7(7, 640);  // one nonzero each
    rows8(3, 5) = 1;
    rows7(3, 5) = 1;
    EXPECT_EQ(takes_path(rows8), 1u);
    EXPECT_EQ(takes_path(rows7), 0u);  // forward: the skinny kernel
    EXPECT_EQ(takes_path(random_matrix(200, 640, rng)), 0u);
    // Both stages of the density rule: the 16 sampled rows (every 16th of
    // 256) and the whole of x must each be sparse enough.
    Matrix sampled_dense(256, 640);
    Matrix sampled_empty = random_matrix(256, 640, rng);
    for (Index i = 0; i < 256; i += 16) {
      for (Index j = 0; j < 640; ++j) {
        sampled_dense(i, j) = 1;  // x is 1/16 dense
        sampled_empty(i, j) = 0;  // x is 15/16 dense
      }
    }
    EXPECT_EQ(takes_path(sampled_dense), 0u);
    EXPECT_EQ(takes_path(sampled_empty), 0u);
  };
  check_bounds(forward_takes_path);
  check_bounds(gradient_takes_path);
  // The matrix-matrix products that do not take x as an operand keep the
  // packed kernel whatever the density.
  Matrix a = sparse_matrix(200, 640, 0.01, rng);
  Matrix b = random_matrix(640, 32, rng);
  Matrix c(200, 32);
  const std::uint64_t before = sparse_gemms();
  matmul_nn(a.view(), b.view(), c.view());
  EXPECT_EQ(sparse_gemms() - before, 0u);
}

bool same_nonfinite_positions(const Matrix& a, const Matrix& b) {
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < a.cols(); ++j) {
      if (std::isfinite(a(i, j)) != std::isfinite(b(i, j))) return false;
    }
  }
  return true;
}

// A NaN or Inf in W (forward) or delta (gradient) must poison the same
// outputs as on the dense kernel, which multiplies it by x's zeros too:
// the call keeps the dense kernel, and the divergence guard sees the NaN.
// A NaN in x itself is a nonzero, so the path keeps it.
TEST(SparseInput, NonFiniteOperandsPoisonLikeTheDenseKernel) {
  const Scalar kNaN = std::numeric_limits<Scalar>::quiet_NaN();
  const Scalar kInf = std::numeric_limits<Scalar>::infinity();
  Rng rng(62);
  const Index rows = 64, width = 300, units = 24;
  Matrix x = sparse_matrix(rows, width, 0.01, rng);  // row 1 is empty
  Matrix bias = random_matrix(1, units, rng);
  for (Scalar poison : {kNaN, kInf}) {
    SCOPED_TRACE(poison);
    Matrix w = random_matrix(units, width, rng);
    w(3, 7) = poison;
    Matrix fast(rows, units), dense(rows, units);
    const std::uint64_t before = sparse_gemms();
    gemm_bias_act(Trans::kNo, Trans::kYes, Scalar{1}, x.view(), w.view(),
                  fast.view(), bias.view(), Epilogue::kBias);
    EXPECT_EQ(sparse_gemms() - before, 0u);
    with_sparse_path(detail::SparsePath::kDense, [&] {
      gemm_bias_act(Trans::kNo, Trans::kYes, Scalar{1}, x.view(), w.view(),
                    dense.view(), bias.view(), Epilogue::kBias);
    });
    EXPECT_FALSE(std::isfinite(fast(1, 3)));  // 0 * poison, kept
    EXPECT_TRUE(same_nonfinite_positions(fast, dense));

    Matrix d = random_matrix(rows, units, rng);
    d(5, 2) = poison;
    Matrix grad_fast(units, width), grad_dense(units, width);
    matmul_tn(d.view(), x.view(), grad_fast.view());
    with_sparse_path(detail::SparsePath::kDense, [&] {
      matmul_tn(d.view(), x.view(), grad_dense.view());
    });
    EXPECT_FALSE(std::isfinite(grad_fast(2, 0)));
    EXPECT_TRUE(same_nonfinite_positions(grad_fast, grad_dense));
  }
  // NaN in x: the path still runs and poisons that row (forward) and the
  // NaN's column (gradient), as the dense kernel does.
  x(9, 40) = kNaN;
  Matrix w = random_matrix(units, width, rng);
  Matrix fast(rows, units), dense(rows, units);
  const std::uint64_t before = sparse_gemms();
  gemm_bias_act(Trans::kNo, Trans::kYes, Scalar{1}, x.view(), w.view(),
                fast.view(), bias.view(), Epilogue::kBias);
  EXPECT_EQ(sparse_gemms() - before, 1u);
  with_sparse_path(detail::SparsePath::kDense, [&] {
    gemm_bias_act(Trans::kNo, Trans::kYes, Scalar{1}, x.view(), w.view(),
                  dense.view(), bias.view(), Epilogue::kBias);
  });
  EXPECT_TRUE(std::isnan(fast(9, 0)));
  EXPECT_TRUE(same_nonfinite_positions(fast, dense));
  Matrix d = random_matrix(rows, units, rng);
  Matrix grad_fast(units, width), grad_dense(units, width);
  matmul_tn(d.view(), x.view(), grad_fast.view());
  with_sparse_path(detail::SparsePath::kDense, [&] {
    matmul_tn(d.view(), x.view(), grad_dense.view());
  });
  EXPECT_TRUE(std::isnan(grad_fast(0, 40)));
  EXPECT_TRUE(same_nonfinite_positions(grad_fast, grad_dense));
}

#ifdef _OPENMP
// The zero-skipping path splits x among threads by C rows (forward) and C
// column ranges (gradient); either way each output is summed by one thread
// in a fixed order, so 1 thread and N threads agree bit for bit. The shape
// is large enough for every thread the host offers.
TEST(SparseInput, BitIdenticalForAnyThreadCount) {
  Rng rng(63);
  const Index rows = 512, width = 2100, units = 48;
  Matrix x = sparse_matrix(rows, width, 0.01, rng);
  Matrix w = random_matrix(units, width, rng);
  Matrix bias = random_matrix(1, units, rng);
  Matrix d = random_matrix(rows, units, rng);
  const auto run = [&](int threads, Matrix& out, Matrix& grad) {
    const int previous = omp_get_max_threads();
    omp_set_num_threads(threads);
    const std::uint64_t before = sparse_gemms();
    gemm_bias_act(Trans::kNo, Trans::kYes, Scalar{1}, x.view(), w.view(),
                  out.view(), bias.view(), Epilogue::kBiasTanh);
    matmul_tn(d.view(), x.view(), grad.view());
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
