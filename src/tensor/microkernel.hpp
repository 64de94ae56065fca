// Register-blocked GEMM micro-kernel and its C write-back epilogues.
//
// The micro-kernel multiplies one packed A row-panel (kMR rows, k-major)
// by one packed B column-panel (kNR cols, k-major) into a kMR x kNR
// accumulator tile that lives entirely in vector registers. Packing (see
// pack.hpp) guarantees both operands are contiguous and zero-padded to the
// full tile, so the kernel has no edge branches; ragged C edges are handled
// only at write-back. `#pragma omp simd` over the kNR accumulator columns
// keeps the kernel portable (any OpenMP-SIMD compiler) while vectorizing
// the fused multiply-adds.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/macros.hpp"
#include "tensor/types.hpp"

namespace hetsgd::tensor {

// Fused epilogue applied during the final-k-block write-back of
// gemm_bias_act: C = act(Z + bias) with Z the GEMM result. Mirrors
// nn::Activation; defined here because tensor cannot depend on nn.
enum class Epilogue {
  kBias,         // C = Z + bias (output/logit layers)
  kBiasSigmoid,  // C = 1 / (1 + exp(-(Z + bias)))
  kBiasTanh,     // C = tanh(Z + bias)
  kBiasRelu,     // C = max(Z + bias, 0)
};

namespace detail {

// Register tile. 4x16 doubles = 64 accumulators: 8 AVX-512 registers (16
// AVX2), leaving room for the B row and the A broadcasts; two vectors per
// accumulator row halves the broadcast pressure per FMA. (On baseline
// SSE2 the accumulators spill to L1, but the packed layout keeps even that
// case ahead of the seed kernel — measured in bench/micro_gemm.)
inline constexpr Index kMR = 4;
inline constexpr Index kNR = 16;

// Cache blocking (double precision, 32KB L1 / 256KB-1MB L2 class cores):
// one packed B block (kKC x kNC) streams by column panels of kKC*kNR*8 =
// 16KB (L1-resident), one packed A block (kMC x kKC) is 128KB
// (L2-resident). Correctness does not depend on these values; kMC and kNC
// are multiples of kMR/kNR so packed panels are never split.
inline constexpr Index kMC = 64;
inline constexpr Index kKC = 256;
inline constexpr Index kNC = 256;

// acc[kMR*kNR] = apanel * bpanel over the shared dimension kc.
// apanel: k-major, kMR contiguous rows per k. bpanel: k-major, kNR
// contiguous cols per k. Both zero-padded to the full tile by packing.
inline void micro_kernel(Index kc, const Scalar* HETSGD_RESTRICT apanel,
                         const Scalar* HETSGD_RESTRICT bpanel,
                         Scalar* HETSGD_RESTRICT acc) {
  for (Index i = 0; i < kMR * kNR; ++i) acc[i] = 0;
  for (Index k = 0; k < kc; ++k) {
    const Scalar* HETSGD_RESTRICT a = apanel + k * kMR;
    const Scalar* HETSGD_RESTRICT b = bpanel + k * kNR;
    for (Index r = 0; r < kMR; ++r) {
      const Scalar ar = a[r];
#pragma omp simd
      for (Index j = 0; j < kNR; ++j) {
        acc[r * kNR + j] += ar * b[j];
      }
    }
  }
}

// C[0:mrem, 0:nrem] += alpha * acc. mrem/nrem < full tile only on the
// ragged bottom/right edges of the matrix.
inline void store_tile(const Scalar* HETSGD_RESTRICT acc, Scalar alpha,
                       Scalar* HETSGD_RESTRICT c, Index ldc, Index mrem,
                       Index nrem) {
  for (Index r = 0; r < mrem; ++r) {
    Scalar* HETSGD_RESTRICT crow = c + r * ldc;
    const Scalar* HETSGD_RESTRICT arow = acc + r * kNR;
#pragma omp simd
    for (Index j = 0; j < nrem; ++j) {
      crow[j] += alpha * arow[j];
    }
  }
}

// Two doubles: the SSE2 register every x86-64 build has. The tanh kernel
// is written on GCC vector types, not as an `omp simd` loop: under the
// default -ftrapping-math gcc 12 keeps a simd loop with floating-point
// selects scalar. SSE2 has no 64-bit integer compare, so every select is
// a bit mask from a double compare.
using Vec2 = Scalar __attribute__((vector_size(16)));
using Bits2 = std::uint64_t __attribute__((vector_size(16)));

// A compare's result: all ones in each lane where it holds.
using Mask2 = decltype(Vec2{} < Vec2{});

inline Bits2 bits(Vec2 v) { return std::bit_cast<Bits2>(v); }
inline Vec2 from_bits(Bits2 b) { return std::bit_cast<Vec2>(b); }

// Lanes of `a` where `mask` holds, of `b` elsewhere.
inline Vec2 select(Mask2 mask, Vec2 a, Vec2 b) {
  const Bits2 m = std::bit_cast<Bits2>(mask);
  return from_bits((m & bits(a)) | (~m & bits(b)));
}

// tanh of both lanes, branch-free: each lane evaluates two forms on
// a = |x| and keeps one, then takes x's sign (so tanh(-0) = -0).
//   a < 0.625: Cephes' rational form a + a * z P(z) / Q(z), z = a^2.
//   a >= 0.625: 1 - 2 / (e^{2a} + 1). e^{2a} = 2^n e^r with
//     r = 2a - n ln 2 (Cody-Waite, ln 2 in two parts) and Cephes' Pade
//     form e^r = (Q + rP) / (Q - rP) in r^2. 2a is clamped at 44 (the
//     result rounds to 1 from 2a = 38.1 on), so +-inf give +-1 exactly.
// Both forms end in one quotient, so each lane divides once: z P / Q, or
// 2D / (2^n N + D) with N and D the Pade numerator and denominator. No
// compare holds for NaN, so a NaN takes the second form and stays NaN.
// At most 1.55 ulp from tanhl where glibc's std::tanh is 2.18 ulp off
// (activation_test's TanhKernel.NoLessAccurateThanLibm inputs).
inline Vec2 tanh2(Vec2 x) {
  const Bits2 sign = bits(x) & 0x8000000000000000ull;
  const Vec2 a = from_bits(bits(x) ^ sign);
  const Vec2 z = a * a;
  const Vec2 p = (-9.64399179425052238628e-1 * z - 9.92877231001918586564e1) *
                     z - 1.61468768441708447952e3;
  const Vec2 q = ((z + 1.12811678491632931402e2) * z +
                  2.23548839060100448583e3) * z + 4.84406305325125486048e3;
  const Vec2 t = select(a + a > 44.0, Vec2{44.0, 44.0}, a + a);
  // Adding 1.5 * 2^52 rounds t / ln 2 to the integer n, which lands in
  // the low mantissa bits; n is at most 63, so 2^n is those bits plus the
  // exponent bias, shifted into the exponent field.
  const Vec2 shifted = t * 1.44269504088896340736 + 0x1.8p52;
  const Vec2 n = shifted - 0x1.8p52;
  const Vec2 r = (t - n * 6.93145751953125e-1) - n * 1.42860682030941723212e-6;
  const Vec2 rr = r * r;
  const Vec2 rp = r * ((1.26177193074810590878e-4 * rr +
                        3.02994407707441961300e-2) * rr +
                       9.99999999999999999910e-1);
  const Vec2 rq = ((3.00198505138664455042e-6 * rr +
                    2.52448340349684104192e-3) * rr +
                   2.27265548208155028766e-1) * rr + 2.00000000000000000009e0;
  const Vec2 pow2n = from_bits((bits(shifted) + 1023) << 52);
  const Vec2 num = rq + rp;
  const Vec2 den = rq - rp;
  const Mask2 small = a < 0.625;
  const Vec2 w = select(small, z * p, den + den) /
                 select(small, q, pow2n * num + den);
  const Vec2 y = select(small, a + a * w, 1.0 - w);
  return from_bits(bits(y) | sign);
}

// The scalar form: lane 0 of the same kernel, so it matches the row pass
// bit for bit (the row tails and the k = 0 product use it).
inline Scalar tanh_scalar(Scalar x) { return tanh2(Vec2{x, x})[0]; }

inline Scalar epilogue_apply(Epilogue e, Scalar z) {
  switch (e) {
    case Epilogue::kBias:        return z;
    case Epilogue::kBiasSigmoid: return Scalar{1} / (Scalar{1} + std::exp(-z));
    case Epilogue::kBiasTanh:    return tanh_scalar(z);
    case Epilogue::kBiasRelu:    return z > 0 ? z : Scalar{0};
  }
  HETSGD_UNREACHABLE("unknown epilogue");
}

// c[0:n] = act(c[0:n] + bias[0:n]). The epilogue is a compile-time
// template parameter so the activation dispatch happens once per row, not
// once per element. Bias and relu vectorize as `omp simd` loops, tanh runs
// tanh2 two lanes at a time, and sigmoid stays a scalar std::exp loop (no
// bench MLP runs sigmoid).
template <Epilogue E>
inline void epilogue_row_impl(Scalar* HETSGD_RESTRICT c,
                              const Scalar* HETSGD_RESTRICT bias, Index n) {
  if constexpr (E == Epilogue::kBias || E == Epilogue::kBiasRelu) {
#pragma omp simd
    for (Index j = 0; j < n; ++j) {
      const Scalar z = c[j] + bias[j];
      if constexpr (E == Epilogue::kBias) {
        c[j] = z;
      } else {
        c[j] = z > 0 ? z : Scalar{0};
      }
    }
  } else if constexpr (E == Epilogue::kBiasSigmoid) {
    for (Index j = 0; j < n; ++j) {
      const Scalar z = c[j] + bias[j];
      c[j] = Scalar{1} / (Scalar{1} + std::exp(-z));
    }
  } else {
    Index j = 0;
    for (; j + 2 <= n; j += 2) {
      Vec2 z;
      Vec2 b;
      std::memcpy(&z, c + j, sizeof z);
      std::memcpy(&b, bias + j, sizeof b);
      z = tanh2(z + b);
      std::memcpy(c + j, &z, sizeof z);
    }
    if (j < n) c[j] = tanh_scalar(c[j] + bias[j]);
  }
}

inline void epilogue_row(Epilogue e, Scalar* HETSGD_RESTRICT c,
                         const Scalar* HETSGD_RESTRICT bias, Index n) {
  switch (e) {
    case Epilogue::kBias:
      return epilogue_row_impl<Epilogue::kBias>(c, bias, n);
    case Epilogue::kBiasSigmoid:
      return epilogue_row_impl<Epilogue::kBiasSigmoid>(c, bias, n);
    case Epilogue::kBiasTanh:
      return epilogue_row_impl<Epilogue::kBiasTanh>(c, bias, n);
    case Epilogue::kBiasRelu:
      return epilogue_row_impl<Epilogue::kBiasRelu>(c, bias, n);
  }
  HETSGD_UNREACHABLE("unknown epilogue");
}

}  // namespace detail
}  // namespace hetsgd::tensor
