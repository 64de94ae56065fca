// Microbenchmark — host GEMM throughput (the MKL-replacement kernel).
//
// Benchmarks the production pack-and-microkernel GEMM against `seed_gemm`,
// a frozen copy of the pre-packing cache-blocked kernel this repo shipped
// with, compiled with identical flags in this binary so the comparison
// isolates kernel structure. Shapes follow the paper's training hot path:
// skinny batches m ∈ {1, 4, 16} are what the CPU Hogbatch workers run,
// wide batches m ∈ {256, 1024} are GPU-style minibatches. Input-density
// benchmarks on first-layer and hidden-layer shapes time the dense kernel
// against the zero-skipping path for sparse inputs and its selection rule.
//
// scripts/bench_smoke.sh runs this binary (in a -DHETSGD_NATIVE=ON build)
// and distills the GFLOP/s counters into BENCH_gemm.json;
// scripts/check_bench_regression.py gates changes against the checked-in
// baseline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "obs/clock.hpp"
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
// Kept verbatim as the benchmark baseline; do not optimize.
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
        }
        // (TN/TT omitted: the bench shapes below only exercise NN/NT.)
      }
    }
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
      tensor::matmul_nt(x.view(), w.view(), out.view());
    }
    benchmark::DoNotOptimize(out.data());
  }
  set_gflops(state, batch, 512, 512);
}
BENCHMARK(BM_GemmNT_MlpForwardShape)
    ->ArgsProduct({{1, 4, 16, 64, 256, 1024}, {0, 1}})
    ->ArgNames({"m", "seed"});

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
      tensor::matmul_nt(x.view(), w.view(), out.view());
      tensor::add_row_bias(bias.view(), out.view());
      nn::activation_forward(nn::Activation::kTanh, out.view());
    }
    benchmark::DoNotOptimize(out.data());
  }
  set_gflops(state, batch, 512, 512);
}
BENCHMARK(BM_ForwardLayerFused)
    ->ArgsProduct({{4, 256}, {0, 1}})
    ->ArgNames({"m", "fused"});

// Input-density benchmarks for the zero-skipping path (tensor/gemm.cpp) on
// the two products that take the layer input x as an operand: the forward
// act(x * W^T + b) and the weight gradient delta^T * x, for an m-row batch
// of width-wide inputs into `units` units, entries nonzero with probability
// permille / 1000. Every iteration runs the product once on the dense packed
// kernel and once on a second path (tensor::detail::set_sparse_path), in
// alternating order, timing each, so host drift hits both alike. Both
// GFLOP/s counters count the dense flops, so their ratio is the time ratio.
//
// BM_SparseInput*: dense kernel vs zero-skipping path (sparse_GFLOP/s),
// swept over density on the first layers of real-sim (2963 inputs) and
// delicious (500 inputs) at bench scale: 512 rows, the eval chunk and the
// GPU batch, into 48 units. The lowest density where the ratio crosses 1 is
// the selection constant in tensor/gemm.cpp.
//
// BM_AutoInput*: dense kernel vs the selection rule itself (auto_GFLOP/s)
// on inputs on either side of it: a dense hidden layer at the paper's 512
// units, at m = 16 and 512, and w8a's 300-wide 15%-dense first layer, which
// keep the dense kernel, so the ratio is what the density check costs them;
// and delicious's 12%-dense first layer, which takes the path.
using tensor::detail::SparsePath;

Matrix sparse_input(Index rows, Index cols, double density, Rng& rng) {
  Matrix x(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) {
      if (rng.bernoulli(density)) x(i, j) = rng.normal(0.0, 1.0);
    }
  }
  return x;
}

template <typename Product>
void time_against_dense(benchmark::State& state, SparsePath other,
                        const char* other_counter, double flops,
                        const Product& product) {
  std::uint64_t dense_ns = 0;
  std::uint64_t other_ns = 0;
  const SparsePath previous = tensor::detail::set_sparse_path(other);
  SparsePath order[] = {SparsePath::kDense, other};
  for (auto _ : state) {
    for (SparsePath path : order) {
      tensor::detail::set_sparse_path(path);
      const std::uint64_t t0 = obs::wall_now_ns();
      product();
      (path == SparsePath::kDense ? dense_ns : other_ns) +=
          obs::wall_now_ns() - t0;
    }
    std::swap(order[0], order[1]);  // neither path always runs warm
  }
  tensor::detail::set_sparse_path(previous);
  const double total = flops * static_cast<double>(state.iterations());
  state.counters["dense_GFLOP/s"] = total / static_cast<double>(dense_ns);
  state.counters[other_counter] = total / static_cast<double>(other_ns);
}

// Args: m, width, units, permille.
void input_forward(benchmark::State& state, SparsePath other,
                   const char* other_counter) {
  const Index m = state.range(0), width = state.range(1),
              units = state.range(2);
  Rng rng(6);
  Matrix x = sparse_input(m, width,
                          static_cast<double>(state.range(3)) / 1000.0, rng);
  Matrix w(units, width), bias(1, units), out(m, units);
  tensor::fill_normal(w.view(), rng, 0, 1);
  tensor::fill_normal(bias.view(), rng, 0, 1);
  time_against_dense(state, other, other_counter,
                     tensor::gemm_flops(m, units, width), [&] {
                       tensor::gemm_bias_act(Trans::kNo, Trans::kYes, 1.0,
                                             x.view(), w.view(), out.view(),
                                             bias.view(),
                                             tensor::Epilogue::kBiasTanh);
                       benchmark::DoNotOptimize(out.data());
                     });
}

void input_gradient(benchmark::State& state, SparsePath other,
                    const char* other_counter) {
  const Index m = state.range(0), width = state.range(1),
              units = state.range(2);
  Rng rng(7);
  Matrix x = sparse_input(m, width,
                          static_cast<double>(state.range(3)) / 1000.0, rng);
  Matrix delta(m, units), grad(units, width);
  tensor::fill_normal(delta.view(), rng, 0, 1);
  time_against_dense(state, other, other_counter,
                     tensor::gemm_flops(units, width, m), [&] {
                       tensor::matmul_tn(delta.view(), x.view(), grad.view());
                       benchmark::DoNotOptimize(grad.data());
                     });
}

void BM_SparseInputForward(benchmark::State& state) {
  input_forward(state, SparsePath::kSparse, "sparse_GFLOP/s");
}
void BM_SparseInputGradient(benchmark::State& state) {
  input_gradient(state, SparsePath::kSparse, "sparse_GFLOP/s");
}
void BM_AutoInputForward(benchmark::State& state) {
  input_forward(state, SparsePath::kAuto, "auto_GFLOP/s");
}
void BM_AutoInputGradient(benchmark::State& state) {
  input_gradient(state, SparsePath::kAuto, "auto_GFLOP/s");
}

void sweep_densities(benchmark::internal::Benchmark* b) {
  for (int width : {2963, 500}) {
    for (int permille :
         {0, 10, 50, 100, 120, 150, 200, 300, 500, 750, 1000}) {
      b->Args({512, width, 48, permille});
    }
  }
  b->ArgNames({"m", "width", "units", "permille"});
}
BENCHMARK(BM_SparseInputForward)->Apply(sweep_densities);
BENCHMARK(BM_SparseInputGradient)->Apply(sweep_densities);

void selection_inputs(benchmark::internal::Benchmark* b) {
  b->Args({16, 512, 512, 1000});
  b->Args({512, 512, 512, 1000});
  b->Args({512, 300, 48, 150});
  b->Args({512, 500, 48, 120});
  b->ArgNames({"m", "width", "units", "permille"});
  b->MinTime(1.0);  // gated by check_bench_regression.py: average out jitter
}
BENCHMARK(BM_AutoInputForward)->Apply(selection_inputs);
BENCHMARK(BM_AutoInputGradient)->Apply(selection_inputs);

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
