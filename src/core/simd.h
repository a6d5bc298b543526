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
 *    — identical at every width. simdFmaRows / simdMulAddRows apply
 *    one fused multiply-add (or one multiply, then one add) per
 *    element for each row in ascending row order; holding the
 *    accumulator in a register between rows stores nothing that
 *    could round.
 *  - simdDotRows: per output ONE k-ascending
 *    chain in double (Wide), the reference transposed-B GEMM
 *    element (narrowed once at the store, or stored as Wide for the
 *    LSH projection). Vectors run one ROW per lane, never one k per
 *    lane, so no chain is split or reassociated: each lane performs
 *    exactly its row's scalar sequence. The chain's vector FMA equals the
 *    scalar multiply-then-add because the product of two widened
 *    floats (24-bit significands) fits a double's 53 bits exactly —
 *    fma(q, r, acc) and acc + q * r both round only the add. The
 *    in-register transpose only moves and widens values (both
 *    exact), so the result is bit-identical to the naive reference
 *    at every ISA level, block width and thread count.
 *  - simdGemmRows: per output element ONE k-ascending
 *    fused-multiply-add chain, whatever the row block, column block,
 *    depth slice or thread partition that computes it. FMA rounds
 *    once per step, and scalar std::fmaf == AVX2 vfmadd == AVX-512
 *    vfmadd == NEON vfma for the same operands, so the result is
 *    bit-identical across every ISA level and thread count — it
 *    differs from the naive (mul+add) reference chain only by the
 *    removed intermediate roundings.
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
 * t in [0, d) — the SimdBackend GEMM accumulation step (one rounding
 * per element) over n weighted rows, with the d-wide accumulator row
 * kept in registers across all n rows instead of loaded and stored
 * once per row.
 */
void simdFmaRows(Real *acc, const Real *const *rows, const Real *w,
                 Index n, Index d);

/** simdFmaRows with acc[t] += w[j] * rows[j][t] (multiply, then add —
 *  the reference GEMM accumulation step), in the same row order and
 *  with the same register-resident accumulator. */
void simdMulAddRows(Real *acc, const Real *const *rows, const Real *w,
                    Index n, Index d);

/** Rows per lane-per-row dot block: one double lane per row, 8 rows
 *  per zmm at AVX-512 and per ymm pair at AVX2. */
inline constexpr Index kSimdDotRows = 8;

/**
 * Lane-per-row dot products:
 *   out[j] = Real(sum over k ascending of Wide(q[k]) * Wide(rows[j][k]))
 * for j in [0, n), each row being @p d floats at its own address —
 * bit-identical to the reference transposed-B GEMM element (one Wide
 * accumulator per output, k ascending, one final narrowing). Rows are
 * transposed in registers kSimdDotRows at a time so each SIMD lane
 * runs one row's scalar chain; see the file contract for why that
 * cannot change a bit.
 */
void simdDotRows(const Real *q, const Real *const *rows, Index n,
                 Index d, Real *out);

/**
 * simdDotRows without the final narrowing: out[j] is row j's Wide
 * chain itself — the same loads, transposes and FMA steps, only the
 * store differs. This is the LSH projection of hashToken/hashTokens
 * (cta/lsh.h): one hash direction or one token per lane.
 */
void simdDotRows(const Real *q, const Real *const *rows, Index n,
                 Index d, Wide *out);

/**
 * GEMM over output rows [row_begin, row_end) of C += A * B, reading
 * row-major B in place. Each output element is one k-ascending FMA
 * chain (see the file contract); results are a pure function of the
 * inputs — independent of the row partition, the ISA level and the
 * thread count.
 *
 * [@p k_begin, @p k_end) restricts the accumulation to a depth slice:
 * C += A[:, k_begin:k_end) * B[k_begin:k_end, :); k_end = -1 means
 * "through the last k". SimdBackend loops depth slices OUTSIDE its
 * thread fan-out so each slice of B stays L2-resident across every
 * row chunk instead of re-streaming the full B per chunk. Slicing is
 * bitwise-invisible: consecutive slices continue each element's
 * k-ascending FMA chain through an exact store/load of the fp32
 * partial — the same rounding sequence as one unbroken chain.
 */
void simdGemmRows(const Matrix &a, const Matrix &b, Matrix &c,
                  Index row_begin, Index row_end, Index k_begin = 0,
                  Index k_end = -1);

} // namespace cta::core
