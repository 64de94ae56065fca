// Internals the dense GEMM engines (gemm.cpp) and the CSR input kernels
// (csr.cpp) share: the thread-team helpers and the products' metrics. The
// two live in separate translation units: with the CSR kernels compiled
// into gemm.cpp, covtype's dense replica products ran about 30% slower
// (CPU seconds) from code placement alone. Everything here is inline, so
// each file compiles it as its own code.
#pragma once

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>

#include "common/macros.hpp"
#include "obs/metrics.hpp"
#include "tensor/matrix.hpp"

namespace hetsgd::tensor::detail {

// GEMM is the hottest function in the process: the tiny Hogwild products
// (m=1) run millions of times, so they must never touch the tracer. Only
// products at least this many flops emit a span; the counter below is a
// sharded atomic and is always cheap enough to keep.
inline constexpr double kTraceFlopThreshold = 1e7;

// hetsgd_host_gemms_total: every gemm() call, and every CSR weight product,
// which stands in for one.
inline obs::Counter& gemm_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("hetsgd_host_gemms_total");
  return c;
}

// Threads worth waking for `flops` of work split into at most `parts`
// pieces: each thread must be worth its fork/join (and, for the packed
// engine, its redundant packing of the unsplit operand), ~256 kflop each.
inline int worth_threads(double flops, Index parts) {
  int max_threads = 1;
#ifdef _OPENMP
  max_threads = omp_get_max_threads();
#endif
  const double by_work = std::max(1.0, flops / 262144.0);
  const int threads = static_cast<int>(std::min<double>(max_threads, by_work));
  return std::max(1, std::min(threads, static_cast<int>(
                                           std::min<Index>(parts, 1024))));
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
inline Range thread_range(Index tid, Index nth, Index extent, Index align) {
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

// Applies beta to C so the k-blocked accumulation can always use +=.
inline void scale_c(MatrixView c, Index m, Index n, Scalar beta) {
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

}  // namespace hetsgd::tensor::detail
