// Microbenchmark — host GEMM throughput (the MKL-replacement kernel).
//
// Benchmarks the production pack-and-microkernel GEMM against `seed_gemm`,
// a frozen copy of the pre-packing cache-blocked kernel this repo shipped
// with, compiled with identical flags in this binary so the comparison
// isolates kernel structure. Shapes follow the paper's training hot path:
// skinny batches m ∈ {1, 4, 16} are what the CPU Hogbatch workers run,
// wide batches m ∈ {256, 1024} are GPU-style minibatches, and the k = 1
// products are the Hogwild lanes' 1-row weight updates. Input-density
// benchmarks on first-layer shapes time the dense kernels against the CSR
// kernel pair on the same operands, and check the dataset's storage rule.
// BM_EpilogueTanh times the fused epilogue's tanh pass against the
// std::tanh row loop it replaced.
//
// scripts/bench_smoke.sh runs this binary (in a -DHETSGD_NATIVE=ON build)
// and distills the GFLOP/s (and tanh Gelem/s) counters into
// BENCH_gemm.json;
// scripts/check_bench_regression.py gates changes against the checked-in
// baseline on each variant's best repetition.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/macros.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "obs/clock.hpp"
#include "tensor/csr.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace hetsgd;
using tensor::ConstMatrixView;
using tensor::Index;
using tensor::Matrix;
using tensor::MatrixView;
using tensor::Scalar;
using tensor::Trans;

// ---------------------------------------------------------------------------
// Frozen seed kernel (pre-PR `tensor::gemm`): per-element MatrixView block
// kernels, OpenMP gate `m >= 2 * kBlockM` (never parallel for skinny m).
// Kept verbatim as the benchmark baseline; do not optimize. block_tn was
// added for the k = 1 weight-update points, in block_nn's style.
namespace seed {

constexpr Index kBlockM = 64;
constexpr Index kBlockN = 64;
constexpr Index kBlockK = 128;

void block_nn(Scalar alpha, ConstMatrixView a, ConstMatrixView b, MatrixView c,
              Index i0, Index i1, Index j0, Index j1, Index k0, Index k1) {
  for (Index i = i0; i < i1; ++i) {
    Scalar* crow = c.row(i);
    const Scalar* arow = a.row(i);
    for (Index k = k0; k < k1; ++k) {
      const Scalar aik = alpha * arow[k];
      const Scalar* brow = b.row(k);
      for (Index j = j0; j < j1; ++j) {
        crow[j] += aik * brow[j];
      }
    }
  }
}

void block_nt(Scalar alpha, ConstMatrixView a, ConstMatrixView b, MatrixView c,
              Index i0, Index i1, Index j0, Index j1, Index k0, Index k1) {
  for (Index i = i0; i < i1; ++i) {
    const Scalar* arow = a.row(i);
    Scalar* crow = c.row(i);
    for (Index j = j0; j < j1; ++j) {
      const Scalar* brow = b.row(j);
      Scalar acc = 0;
      for (Index k = k0; k < k1; ++k) {
        acc += arow[k] * brow[k];
      }
      crow[j] += alpha * acc;
    }
  }
}

void block_tn(Scalar alpha, ConstMatrixView a, ConstMatrixView b, MatrixView c,
              Index i0, Index i1, Index j0, Index j1, Index k0, Index k1) {
  for (Index i = i0; i < i1; ++i) {
    Scalar* crow = c.row(i);
    for (Index k = k0; k < k1; ++k) {
      const Scalar aki = alpha * a(k, i);
      const Scalar* brow = b.row(k);
      for (Index j = j0; j < j1; ++j) {
        crow[j] += aki * brow[j];
      }
    }
  }
}

void seed_gemm(Trans ta, Trans tb, Scalar alpha, ConstMatrixView a,
               ConstMatrixView b, Scalar beta, MatrixView c) {
  tensor::GemmDims d = tensor::check_gemm_shapes(ta, tb, a, b, c);
  if (beta == Scalar{0}) {
    for (Index i = 0; i < d.m; ++i) {
      std::fill(c.row(i), c.row(i) + d.n, Scalar{0});
    }
  } else if (beta != Scalar{1}) {
    for (Index i = 0; i < d.m; ++i) {
      Scalar* crow = c.row(i);
      for (Index j = 0; j < d.n; ++j) crow[j] *= beta;
    }
  }
#pragma omp parallel for schedule(static) if (d.m >= 2 * kBlockM)
  for (Index i0 = 0; i0 < d.m; i0 += kBlockM) {
    const Index i1 = std::min(i0 + kBlockM, d.m);
    for (Index k0 = 0; k0 < d.k; k0 += kBlockK) {
      const Index k1 = std::min(k0 + kBlockK, d.k);
      for (Index j0 = 0; j0 < d.n; j0 += kBlockN) {
        const Index j1 = std::min(j0 + kBlockN, d.n);
        if (ta == Trans::kNo && tb == Trans::kNo) {
          block_nn(alpha, a, b, c, i0, i1, j0, j1, k0, k1);
        } else if (ta == Trans::kNo && tb == Trans::kYes) {
          block_nt(alpha, a, b, c, i0, i1, j0, j1, k0, k1);
        } else if (ta == Trans::kYes && tb == Trans::kNo) {
          block_tn(alpha, a, b, c, i0, i1, j0, j1, k0, k1);
        }
        // (TT omitted: the bench shapes below never transpose both.)
      }
    }
  }
}

// The tanh epilogue row pass before the vectorized kernel: one glibc
// std::tanh call per element.
void tanh_row(Scalar* HETSGD_RESTRICT c, const Scalar* HETSGD_RESTRICT bias,
              Index n) {
  for (Index j = 0; j < n; ++j) {
    const Scalar z = c[j] + bias[j];
    c[j] = std::tanh(z);
  }
}

}  // namespace seed
// ---------------------------------------------------------------------------

void set_gflops(benchmark::State& state, Index m, Index n, Index k) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      tensor::gemm_flops(m, n, k) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}

// Square NN product: n x n x n.
void BM_GemmNN(benchmark::State& state) {
  const Index n = state.range(0);
  const bool use_seed = state.range(1) != 0;
  Rng rng(1);
  Matrix a(n, n), b(n, n), c(n, n);
  tensor::fill_normal(a.view(), rng, 0, 1);
  tensor::fill_normal(b.view(), rng, 0, 1);
  for (auto _ : state) {
    if (use_seed) {
      seed::seed_gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), b.view(), 0.0,
                      c.view());
    } else {
      tensor::gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), b.view(), 0.0,
                   c.view());
    }
    benchmark::DoNotOptimize(c.data());
  }
  set_gflops(state, n, n, n);
}
BENCHMARK(BM_GemmNN)
    ->ArgsProduct({{64, 128, 256}, {0, 1}})
    ->ArgNames({"n", "seed"});

// batch x 512 times (512 x 512)^T: the paper's dominant layer shape.
// m ∈ {1, 4, 16} are CPU Hogbatch-worker batches; {256, 1024} GPU batches.
void BM_GemmNT_MlpForwardShape(benchmark::State& state) {
  const Index batch = state.range(0);
  const bool use_seed = state.range(1) != 0;
  Rng rng(2);
  Matrix x(batch, 512), w(512, 512), out(batch, 512);
  tensor::fill_normal(x.view(), rng, 0, 1);
  tensor::fill_normal(w.view(), rng, 0, 1);
  for (auto _ : state) {
    if (use_seed) {
      seed::seed_gemm(Trans::kNo, Trans::kYes, 1.0, x.view(), w.view(), 0.0,
                      out.view());
    } else {
      tensor::gemm(Trans::kNo, Trans::kYes, 1.0, x.view(), w.view(), 0.0,
                   out.view());
    }
    benchmark::DoNotOptimize(out.data());
  }
  set_gflops(state, batch, 512, 512);
}
BENCHMARK(BM_GemmNT_MlpForwardShape)
    ->ArgsProduct({{1, 4, 16, 64, 256, 1024}, {0, 1}})
    ->ArgNames({"m", "seed"});

// The Hogwild lanes' k = 1 products: a 1-row batch's weight update
// W += -eta * delta^T * h (out x in, A transposed) on the delicious bench
// MLP's output (805 x 48), first (48 x 500) and hidden (48 x 48) layers.
void BM_GemmTN_Rank1(benchmark::State& state) {
  const Index m = state.range(0), n = state.range(1);
  const bool use_seed = state.range(2) != 0;
  Rng rng(3);
  Matrix delta(1, m), h(1, n), w(m, n);
  tensor::fill_normal(delta.view(), rng, 0, 1);
  tensor::fill_normal(h.view(), rng, 0, 1);
  tensor::fill_normal(w.view(), rng, 0, 1);
  for (auto _ : state) {
    if (use_seed) {
      seed::seed_gemm(Trans::kYes, Trans::kNo, -1e-4, delta.view(), h.view(),
                      1.0, w.view());
    } else {
      tensor::gemm(Trans::kYes, Trans::kNo, -1e-4, delta.view(), h.view(),
                   1.0, w.view());
    }
    benchmark::DoNotOptimize(w.data());
  }
  set_gflops(state, m, n, 1);
}
BENCHMARK(BM_GemmTN_Rank1)
    ->ArgsProduct({{805}, {48}, {0, 1}})
    ->ArgsProduct({{48}, {500, 48}, {0, 1}})
    ->ArgNames({"m", "n", "seed"});

// The tanh epilogue pass alone, c = tanh(c + bias), as gemm_bias_act runs
// it on each row of a finished product: the bench MLPs' 48-unit hidden
// rows and the paper's 512. The new arm is the fused epilogue's row pass
// (tensor::detail::epilogue_row), the seed arm the std::tanh loop it
// replaced. Pre-activations are N(0, 0.7^2), about as spread as covtype's
// (63% below 0.625). Each iteration copies the next 16 rows of a 512 KB
// pool into place first, in both arms: a training pass never sees the
// same values twice, and on a short repeating input the branch predictor
// learns glibc tanh's branches.
// Counts tanh evaluations per second (Gelem/s).
void BM_EpilogueTanh(benchmark::State& state) {
  const Index n = state.range(0);
  const bool use_seed = state.range(1) != 0;
  const Index rows = 16;
  const Index pool_rows = (Index{1} << 16) / n;
  Rng rng(8);
  Matrix pool(pool_rows, n), c(rows, n), bias(1, n);
  tensor::fill_normal(pool.view(), rng, 0, 0.7);
  tensor::fill_normal(bias.view(), rng, 0, 0.1);
  Index next = 0;
  for (auto _ : state) {
    std::memcpy(c.data(), pool.row(next),
                static_cast<std::size_t>(c.size()) * sizeof(Scalar));
    next = next + 2 * rows <= pool_rows ? next + rows : 0;
    for (Index r = 0; r < rows; ++r) {
      if (use_seed) {
        seed::tanh_row(c.row(r), bias.data(), n);
      } else {
        tensor::detail::epilogue_row(tensor::Epilogue::kBiasTanh, c.row(r),
                                     bias.data(), n);
      }
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["Gelem/s"] = benchmark::Counter(
      static_cast<double>(rows * n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EpilogueTanh)
    ->ArgsProduct({{48, 512}, {0, 1}})
    ->ArgNames({"n", "seed"});

// The three passes gemm_bias_act fuses: out = tanh(x * W^T + bias) as the
// product, then a pass adding the bias, then a pass applying tanh.
void forward_layer_unfused(ConstMatrixView x, ConstMatrixView w,
                           ConstMatrixView bias, MatrixView out) {
  tensor::gemm(Trans::kNo, Trans::kYes, 1.0, x, w, 0.0, out);
  const Scalar* HETSGD_RESTRICT b = bias.data();
  for (Index r = 0; r < out.rows(); ++r) {
    Scalar* HETSGD_RESTRICT row = out.row(r);
#pragma omp simd
    for (Index c = 0; c < out.cols(); ++c) {
      row[c] += b[c];
    }
  }
  Scalar* d = out.data();
  for (Index i = 0; i < out.size(); ++i) d[i] = std::tanh(d[i]);
}

// Fused forward layer (gemm_bias_act) vs the unfused three-pass sequence,
// on the tanh hidden-layer shape the figure benches train.
void BM_ForwardLayerFused(benchmark::State& state) {
  const Index batch = state.range(0);
  const bool fused = state.range(1) != 0;
  Rng rng(5);
  Matrix x(batch, 512), w(512, 512), bias(1, 512), out(batch, 512);
  tensor::fill_normal(x.view(), rng, 0, 1);
  tensor::fill_normal(w.view(), rng, 0, 1);
  tensor::fill_normal(bias.view(), rng, 0, 1);
  for (auto _ : state) {
    if (fused) {
      tensor::gemm_bias_act(Trans::kNo, Trans::kYes, 1.0, x.view(), w.view(),
                            out.view(), bias.view(),
                            tensor::Epilogue::kBiasTanh);
    } else {
      forward_layer_unfused(x.view(), w.view(), bias.view(), out.view());
    }
    benchmark::DoNotOptimize(out.data());
  }
  set_gflops(state, batch, 512, 512);
}
BENCHMARK(BM_ForwardLayerFused)
    ->ArgsProduct({{4, 256}, {0, 1}})
    ->ArgNames({"m", "fused"});

// Input-density benchmarks for the CSR kernel pair (tensor/gemm.hpp) on
// the two products that take the layer input x as an operand: the forward
// act(x * W^T + b) and the weight product delta^T * x, for an m-row batch
// of width-wide inputs into `units` units, entries nonzero with probability
// permille / 1000. A one-row batch runs the product as a Hogwild lane's
// in-place step does (W += -1e-4 * delta^T * x); larger ones as the
// replica's gradient (beta = 0). Every iteration runs the dense kernel on
// x stored dense and the CSR kernel on the same x stored CSR, in
// alternating order, timing each, so host drift hits both alike. Both
// GFLOP/s counters count the dense flops, so their ratio is the time ratio.
//
// BM_CsrInput*: dense kernel (dense_GFLOP/s) vs CSR kernel (csr_GFLOP/s),
// swept over density on the first layers of real-sim (2963 inputs) and
// delicious (500 inputs) at bench scale into 48 units: at m = 1 (a lane
// step) and m = 512 (the eval chunk and the GPU batch). The lowest density
// where the ratio crosses 1 is data::kCsrMaxDensity.
//
// BM_StoredInput*: the kernel the storage rule selects for x
// (data::stores_csr; stored_GFLOP/s) vs the other one (other_GFLOP/s), on
// inputs on either side of the rule at m = 1 and 512: the first layers of
// real-sim (1%), delicious (12%) and w8a (300 wide, 15%), stored CSR, and
// 50%-dense inputs, stored dense. Between the weight product's crossover
// (the rule's threshold) and the forward's, the rule keeps dense rows
// though the forward alone would run faster on CSR; no dataset here
// falls there.
Matrix sparse_input(Index rows, Index cols, double density, Rng& rng) {
  Matrix x(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      if (rng.bernoulli(density)) x(i, j) = rng.normal(0.0, 1.0);
    }
  }
  return x;
}

// Times `dense` and `csr` alternately, reporting each as GFLOP/s of `flops`
// under the counter names given.
template <typename Dense, typename Csr>
void time_both(benchmark::State& state, double flops, const char* dense_name,
               const char* csr_name, const Dense& dense, const Csr& csr) {
  std::uint64_t dense_ns = 0;
  std::uint64_t csr_ns = 0;
  bool dense_first = true;
  for (auto _ : state) {
    for (int arm = 0; arm < 2; ++arm) {
      const bool run_dense = (arm == 0) == dense_first;
      const std::uint64_t t0 = obs::wall_now_ns();
      if (run_dense) {
        dense();
      } else {
        csr();
      }
      (run_dense ? dense_ns : csr_ns) += obs::wall_now_ns() - t0;
    }
    dense_first = !dense_first;  // neither kernel always runs warm
  }
  const double total = flops * static_cast<double>(state.iterations());
  state.counters[dense_name] = total / static_cast<double>(dense_ns);
  state.counters[csr_name] = total / static_cast<double>(csr_ns);
}

// Counter names for the dense and CSR arms of an input with these Args:
// the kernels', or, with `stored`, which of the two the storage rule picks
// for a dataset of that density.
std::pair<const char*, const char*> arm_names(const benchmark::State& state,
                                              bool stored) {
  if (!stored) return {"dense_GFLOP/s", "csr_GFLOP/s"};
  const Index m = state.range(0), width = state.range(1);
  const auto nonzeros = static_cast<Index>(
      static_cast<double>(state.range(3)) / 1000.0 * static_cast<double>(m) *
      static_cast<double>(width));
  if (data::stores_csr(m, width, nonzeros)) {
    return {"other_GFLOP/s", "stored_GFLOP/s"};
  }
  return {"stored_GFLOP/s", "other_GFLOP/s"};
}

// Args: m, width, units, permille.
void input_forward(benchmark::State& state, bool stored) {
  const Index m = state.range(0), width = state.range(1),
              units = state.range(2);
  Rng rng(6);
  const Matrix x = sparse_input(
      m, width, static_cast<double>(state.range(3)) / 1000.0, rng);
  const tensor::CsrMatrix x_csr = tensor::CsrMatrix::from_dense(x.view());
  Matrix w(units, width), bias(1, units), out(m, units);
  tensor::fill_normal(w.view(), rng, 0, 1);
  tensor::fill_normal(bias.view(), rng, 0, 1);
  const auto [dense_name, csr_name] = arm_names(state, stored);
  time_both(
      state, tensor::gemm_flops(m, units, width), dense_name, csr_name,
      [&] {
        tensor::gemm_bias_act(Trans::kNo, Trans::kYes, 1.0, x.view(), w.view(),
                              out.view(), bias.view(),
                              tensor::Epilogue::kBiasTanh);
        benchmark::DoNotOptimize(out.data());
      },
      [&] {
        tensor::csr_bias_act(x_csr.view(), w.view(), out.view(), bias.view(),
                             tensor::Epilogue::kBiasTanh);
        benchmark::DoNotOptimize(out.data());
      });
}

void input_gradient(benchmark::State& state, bool stored) {
  const Index m = state.range(0), width = state.range(1),
              units = state.range(2);
  Rng rng(7);
  const Matrix x = sparse_input(
      m, width, static_cast<double>(state.range(3)) / 1000.0, rng);
  const tensor::CsrMatrix x_csr = tensor::CsrMatrix::from_dense(x.view());
  Matrix delta(m, units), grad(units, width);
  tensor::fill_normal(delta.view(), rng, 0, 1);
  // A lane's one-row in-place step, or the replica's gradient.
  const Scalar alpha = m == 1 ? -1e-4 : 1.0;
  const Scalar beta = m == 1 ? 1.0 : 0.0;
  const auto [dense_name, csr_name] = arm_names(state, stored);
  time_both(
      state, tensor::gemm_flops(units, width, m), dense_name, csr_name,
      [&] {
        tensor::gemm(Trans::kYes, Trans::kNo, alpha, delta.view(), x.view(),
                     beta, grad.view());
        benchmark::DoNotOptimize(grad.data());
      },
      [&] {
        tensor::csr_gemm_tn(alpha, delta.view(), x_csr.view(), beta,
                            grad.view());
        benchmark::DoNotOptimize(grad.data());
      });
}

void BM_CsrInputForward(benchmark::State& state) {
  input_forward(state, false);
}
void BM_CsrInputGradient(benchmark::State& state) {
  input_gradient(state, false);
}
void BM_StoredInputForward(benchmark::State& state) {
  input_forward(state, true);
}
void BM_StoredInputGradient(benchmark::State& state) {
  input_gradient(state, true);
}

void sweep_densities(benchmark::internal::Benchmark* b) {
  for (int m : {1, 512}) {
    for (int width : {2963, 500}) {
      for (int permille :
           {0, 10, 50, 100, 120, 150, 200, 300, 500, 750, 1000}) {
        b->Args({m, width, 48, permille});
      }
    }
  }
  b->ArgNames({"m", "width", "units", "permille"});
}
BENCHMARK(BM_CsrInputForward)->Apply(sweep_densities);
BENCHMARK(BM_CsrInputGradient)->Apply(sweep_densities);

void selection_inputs(benchmark::internal::Benchmark* b) {
  for (int m : {1, 512}) {
    b->Args({m, 2963, 48, 10});   // real-sim: CSR
    b->Args({m, 500, 48, 120});   // delicious: CSR
    b->Args({m, 300, 48, 150});   // w8a: CSR
    b->Args({m, 300, 48, 500});   // past both crossovers: dense
    b->Args({m, 2963, 48, 500});  // dense
  }
  b->ArgNames({"m", "width", "units", "permille"});
  b->MinTime(1.0);  // gated by check_bench_regression.py: average out jitter
}
BENCHMARK(BM_StoredInputForward)->Apply(selection_inputs);
BENCHMARK(BM_StoredInputGradient)->Apply(selection_inputs);

void BM_Axpy(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(4);
  Matrix x(1, n), y(1, n);
  tensor::fill_normal(x.view(), rng, 0, 1);
  for (auto _ : state) {
    tensor::axpy(0.001, x.view(), y.view());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          2 * sizeof(tensor::Scalar));
}
BENCHMARK(BM_Axpy)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
