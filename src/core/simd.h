/**
 * @file
 * Runtime-dispatched SIMD primitives under the compute-backend layer.
 *
 * One translation unit (simd.cc) holds every vector kernel, each
 * compiled for its ISA with per-function target attributes (AVX2,
 * AVX-512, NEON on aarch64) plus a scalar fallback, and dispatched at
 * runtime from the detected — or CTA_SIMD-forced — level. No TU-wide
 * -march is needed, so the same binary runs on any host and picks the
 * widest path it supports.
 *
 * Determinism contract (the part that makes vectorization safe here):
 * every primitive preserves the PER-ELEMENT operation sequence of its
 * scalar reference. Vector width only changes which independent
 * elements execute together, never the rounding sequence of any one
 * element:
 *
 *  - simdRowMax: max is exact (no rounding), so any scan order gives
 *    the same result for finite/-inf data.
 *  - simdScaleRow / simdAddRow: one multiply or one add per element
 *    — identical at every width.
 *  - The dot-product contract. Every GEMM, transposed-B GEMM, LSH
 *    projection, score and AV element is ONE k-ascending FP32 fused
 *    multiply-add chain, c = fma(a[k], b[k], c) from c = +0, rounded
 *    once per step. FMA rounds once, and scalar std::fmaf == AVX2
 *    vfmadd == AVX-512 vfmadd == NEON vfma for the same operands, so
 *    a chain gives the same bits whichever kernel runs it:
 *     - simdGemmRows: whatever the row block, column block, depth
 *       slice or thread partition (consecutive depth slices continue
 *       a chain through an exact fp32 store/load of its partial);
 *     - simdFmaRows: one chain per output column over n weighted
 *       rows, the accumulator held in a register between rows;
 *     - simdDotRows: one chain per row, ONE ROW PER LANE, never one
 *       k per lane, so no chain is split or reassociated. The
 *       in-register transpose only moves values. fma(a, b, c) ==
 *       fma(b, a, c) exactly, so which operand is the broadcast q
 *       does not matter either: the LSH projection (hashRows,
 *       cta/lsh.h) runs one direction or one token per lane and gets
 *       the same bits.
 *    NaiveBackend::gemm runs the same chain as plain scalar loops, so
 *    every backend, ISA level and thread count gives the same bits.
 *  - simdGeluRow: per element one fixed sequence of multiplies, adds,
 *    a max/min clamp and one divide, with tanh computed in-tree from
 *    exp(2u) (Cody-Waite reduction, polynomial, exponent-bit scale),
 *    never an FMA and never a libm call — so the scalar body, the
 *    scalar tail and every vector width round identically.
 *
 * Selection: resolved once from the CTA_SIMD environment variable
 * ("auto" by default; "off"/"scalar", "avx2", "avx512", "neon" force
 * a level, fatal when unsupported or unknown); tests override with
 * setSimdLevel().
 */

#pragma once

#include "core/types.h"

namespace cta::core {

class Matrix;

/** Vector ISA levels, ordered by preference within an architecture. */
enum class SimdLevel
{
    Scalar = 0, ///< portable scalar kernels (also the CTA_SIMD=off path)
    Avx2 = 1,   ///< 8-lane float AVX2 + FMA
    Avx512 = 2, ///< 16-lane float AVX-512F
    Neon = 3,   ///< 4-lane float NEON (aarch64)
};

/** Human-readable level name ("scalar", "avx2", ...). */
const char *simdLevelName(SimdLevel level);

/** Highest level the host CPU supports. */
SimdLevel detectSimdLevel();

/** True when the host can execute kernels of @p level. */
bool simdLevelSupported(SimdLevel level);

/**
 * The level every simd* primitive dispatches on, resolved once from
 * CTA_SIMD (fatal on unknown names or unsupported forced levels),
 * unless overridden by setSimdLevel().
 */
SimdLevel activeSimdLevel();

/**
 * Forces the active level (test hook for ISA A/B comparisons).
 * Returns the previously forced level setting. Fatal when @p level is
 * not supported by the host. Not thread-safe against concurrent
 * kernel dispatch — switch levels only between computations.
 */
SimdLevel setSimdLevel(SimdLevel level);

/**
 * Measures register-resident FMA throughput (GFLOP/s) at the active
 * level — the compute ceiling for the bench roofline table. Runs for
 * a few tens of milliseconds.
 */
double simdFmaPeakGflops();

/** max of x[0..n): exact (no rounding), order-independent for
 *  finite/-inf data. n must be >= 1. */
Real simdRowMax(const Real *x, Index n);

/** x[j] *= s for j in [0, n). */
void simdScaleRow(Real *x, Index n, Real s);

/** acc[j] += x[j] for j in [0, n). */
void simdAddRow(Real *acc, const Real *x, Index n);

/**
 * acc[t] = fma(w[j], rows[j][t], acc[t]) for j = 0..n-1 ascending and
 * t in [0, d) — the GEMM accumulation step (one rounding per element)
 * over n weighted rows, with the d-wide accumulator row kept in
 * registers across all n rows instead of loaded and stored once per
 * row.
 */
void simdFmaRows(Real *acc, const Real *const *rows, const Real *w,
                 Index n, Index d);

/**
 * out[j] = GELU(x[j]) for j in [0, n), tanh form:
 *   0.5 v (1 + tanh(sqrt(2/pi) (v + 0.044715 v^3))),
 * with tanh(u) = (e - 1) / (e + 1), e = exp(2u), u clamped to +-9
 * (where float tanh is exactly +-1) and exp computed in-tree. Bit-
 * identical at every ISA level and split of the row (see the file
 * contract); within 4e-7 * max(1, |y|) of the double-precision
 * formula, about what the libm-tanh formula reaches. ±0, ±inf, NaN
 * and the v^3 overflow give what the libm formula gives (or NaN
 * where it does). In place is allowed: with @p out == @p x every
 * element is read before it is written, at every level and in the
 * scalar tail, so the result has the out-of-place bits (nn::gelu
 * relies on it). Partial overlap is not allowed.
 */
void simdGeluRow(const Real *x, Index n, Real *out);

/** Rows per lane-per-row dot block: 8 float lanes per ymm. */
inline constexpr Index kSimdDotRows = 8;

/**
 * Lane-per-row dot products:
 *   out[j] = the FP32 chain acc = fma(q[k], rows[j][k], acc), k
 *            ascending from acc = +0,
 * for j in [0, n), each row being @p d floats at its own address —
 * bit for bit the element of matmul(q, B^T) with B's rows @p rows
 * (see the file contract). Rows are transposed in registers
 * kSimdDotRows at a time so each SIMD lane runs one row's chain.
 */
void simdDotRows(const Real *q, const Real *const *rows, Index n,
                 Index d, Real *out);

/**
 * Bound on |simdDotRows − the exact chain| / sum_k |q[k] rows[j][k]|
 * at d = 64, the head dimension of every preset, where the exact
 * chain is the same k-ascending sum in double. Each of the FP32
 * chain's 64 steps rounds once (relative error at most u = 2^-24), so
 * its error is at most gamma_64 = 64u / (1 - 64u) times
 * sum_k |q_k r_k|, the standard inner-product bound; the double
 * chain's own error, gamma_64 at u = 2^-53, adds under 1e-14 of the
 * same sum. Cancellation does not loosen it: the bound is relative to
 * the sum of magnitudes, not to the result.
 */
inline constexpr double kDotChainBound64 =
    64.0 * 0x1p-24 / (1.0 - 64.0 * 0x1p-24) +
    64.0 * 0x1p-53 / (1.0 - 64.0 * 0x1p-53);

/**
 * GEMM over output rows [row_begin, row_end) of C += A * B, reading
 * row-major B in place. Each output element is one k-ascending FMA
 * chain (see the file contract); results are a pure function of the
 * inputs — independent of the row partition, the ISA level and the
 * thread count.
 *
 * [@p k_begin, @p k_end) restricts the accumulation to a depth slice:
 * C += A[:, k_begin:k_end) * B[k_begin:k_end, :); k_end = -1 means
 * "through the last k". [@p j_begin, @p j_end) restricts it to a
 * column block of B and C; j_end = -1 means "through the last
 * column". SimdBackend loops column blocks and, inside each, depth
 * slices OUTSIDE its thread fan-out, so one kc x nc block of B stays
 * L2-resident across every row chunk instead of re-streaming B per
 * chunk. Slicing is bitwise-invisible: a column block only selects
 * which elements run, and consecutive depth slices continue each
 * element's k-ascending FMA chain through an exact store/load of the
 * fp32 partial — the same rounding sequence as one unbroken chain.
 */
void simdGemmRows(const Matrix &a, const Matrix &b, Matrix &c,
                  Index row_begin, Index row_end, Index k_begin = 0,
                  Index k_end = -1, Index j_begin = 0,
                  Index j_end = -1);

} // namespace cta::core
