#include "core/simd.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "core/env.h"
#include "core/logging.h"
#include "core/matrix.h"

#if defined(__x86_64__) || defined(__i386__)
#define CTA_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define CTA_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace cta::core {

namespace {

/** Column-block width of the GEMM kernels: one row of a block is four
 *  zmm (AVX-512) vectors. */
constexpr Index kW = 64;

// ---------------------------------------------------------------
// Scalar reference kernels. Every vector kernel below reproduces
// these per-element operation sequences exactly (see simd.h).
// ---------------------------------------------------------------

Real
rowMaxScalar(const Real *x, Index n)
{
    Real m = x[0];
    for (Index j = 1; j < n; ++j)
        m = std::max(m, x[j]);
    return m;
}

void
scaleRowScalar(Real *x, Index n, Real s)
{
    for (Index j = 0; j < n; ++j)
        x[j] *= s;
}

void
addRowScalar(Real *acc, const Real *x, Index n)
{
    for (Index j = 0; j < n; ++j)
        acc[j] += x[j];
}

/** One output column's FMA chain: c += sum_k a[k] * b[k*ldb + t],
 *  rounded once per step — the element semantics of every GEMM level
 *  (simd.h). The vector levels run it for columns left over by their
 *  widest blocks. */
inline Real
fmaChain(const Real *a, const Real *b, Index ldb, Index t, Index depth,
         Real c)
{
    for (Index k = 0; k < depth; ++k)
        c = std::fmaf(a[k], b[k * ldb + t], c);
    return c;
}

/** ikj GEMM over rows [row_begin, row_end), the depth slice
 *  [k_begin, k_end) and the columns [j_begin, j_end): per output
 *  element one k-ascending fmaf chain. */
void
gemmRowsScalar(const Matrix &a, const Matrix &b, Matrix &c,
               Index row_begin, Index row_end, Index k_begin,
               Index k_end, Index j_begin, Index j_end)
{
    const Index width = b.cols();
    for (Index i = row_begin; i < row_end; ++i) {
        const Real *arow = a.data() + i * a.cols();
        Real *crow = c.data() + i * width;
        for (Index k = k_begin; k < k_end; ++k) {
            const Real aik = arow[k];
            const Real *brow = b.data() + k * width;
            for (Index j = j_begin; j < j_end; ++j)
                crow[j] = std::fmaf(aik, brow[j], crow[j]);
        }
    }
}

void
fmaRowsScalar(Real *acc, const Real *const *rows, const Real *w, Index n,
              Index d)
{
    for (Index j = 0; j < n; ++j)
        for (Index t = 0; t < d; ++t)
            acc[t] = std::fmaf(w[j], rows[j][t], acc[t]);
}

// Lane-per-row dot products (simd.h contract): each output is its
// row's own chain, so the scalar level runs them one row at a time.

void
dotRowsScalar(const Real *q, const Real *const *rows, Index n, Index d,
              Real *out)
{
    for (Index j = 0; j < n; ++j)
        out[j] = fmaChain(q, rows[j], 1, 0, d, 0.0f);
}

// GELU, tanh form: y = 0.5 v (1 + tanh(u)), u = c (v + 0.044715 v^3),
// with tanh(u) = (e - 1) / (e + 1), e = exp(2u). exp is Cody-Waite
// range reduction (2u = n ln2 + r, |r| <= ln2 / 2, ln2 split into an
// exact high part and a low correction), the cephes expf polynomial
// in r and a scale by 2^n built in the exponent bits. Every level
// runs this exact sequence of multiplies, adds and one divide (no
// FMA; the TU is -ffp-contract=off), so every level rounds alike.
namespace gelu {

constexpr Real kScale = 0.797884524f; ///< sqrt(2 / pi) in float
constexpr Real kCubic = 0.044715f;
/** |u| bound: past ~8.4, e +- 1 rounds to e and t is exactly +-1. */
constexpr Real kClamp = 9.0f;
constexpr Real kLog2e = 1.44269504f;
constexpr Real kLn2Hi = 0.693359375f; ///< 9 significant bits: n * hi is exact
constexpr Real kLn2Lo = -2.12194440e-4f;
/** 1.5 * 2^23: adding it rounds a |x| < 2^22 to the nearest integer,
 *  which then sits in the low mantissa bits. */
constexpr Real kRound = 12582912.0f;
/** bits(kRound) - 127: bits(rounded) - kBias is n's biased exponent. */
constexpr std::int32_t kBias = 0x4B400000 - 127;
constexpr Real kP0 = 1.9875691500e-4f;
constexpr Real kP1 = 1.3981999507e-3f;
constexpr Real kP2 = 8.3334519073e-3f;
constexpr Real kP3 = 4.1665795894e-2f;
constexpr Real kP4 = 1.6666665459e-1f;
constexpr Real kP5 = 5.0000001201e-1f;

} // namespace gelu

/** One GELU element — the sequence every vector level reproduces. The
 *  clamp is written as x86 max/min order (NaN u becomes -kClamp; only
 *  a NaN v gives a NaN u, and v's NaN reaches the result anyway). */
inline Real
geluScalar(Real v)
{
    using namespace gelu;
    Real u = kScale * (v + kCubic * v * v * v);
    u = u > -kClamp ? u : -kClamp;
    u = u < kClamp ? u : kClamp;
    const Real w = u + u;
    const Real k = w * kLog2e + kRound;
    const Real n = k - kRound;
    const Real r = (w - n * kLn2Hi) - n * kLn2Lo;
    const Real z = r * r;
    Real p = kP0 * r + kP1;
    p = p * r + kP2;
    p = p * r + kP3;
    p = p * r + kP4;
    p = p * r + kP5;
    p = p * z + r + 1.0f;
    const auto scale = std::bit_cast<Real>(static_cast<std::int32_t>(
        static_cast<std::uint32_t>(std::bit_cast<std::int32_t>(k) - kBias)
        << 23));
    const Real e = p * scale;
    const Real t = (e - 1.0f) / (e + 1.0f);
    return 0.5f * v * (1.0f + t);
}

void
geluRowScalar(const Real *x, Index n, Real *out)
{
    for (Index j = 0; j < n; ++j)
        out[j] = geluScalar(x[j]);
}

#if CTA_SIMD_X86

// ---------------------------------------------------------------
// x86 GEMM blocking, shared by the AVX2 and AVX-512 levels. B is read
// in place: its row-major storage, kW columns at a time, is the panel
// sequence the micro-kernels stream.
// ---------------------------------------------------------------

/**
 * One R-row x pw-column output tile of C += A * B over one depth
 * slice: A row r at a + r * lda (from the slice's first k), B at b
 * with row stride ldb (from the slice's first k and the tile's first
 * column), C row r at c + r * ldc (from the tile's first column).
 */
struct GemmTile
{
    const Real *a;
    Index lda;
    const Real *b;
    Index ldb;
    Index depth;
    Real *c;
    Index ldc;
    Index pw;
};

/** Row blocks of 6, then 4, then 1 over one column block; Full means
 *  pw == kW. */
template <typename Isa, bool Full>
void
rowBlocks(GemmTile t, Index rows)
{
    Index i = 0;
    for (; i + 6 <= rows; i += 6, t.a += 6 * t.lda, t.c += 6 * t.ldc)
        Isa::template tile<6, Full>(t);
    for (; i + 4 <= rows; i += 4, t.a += 4 * t.lda, t.c += 4 * t.ldc)
        Isa::template tile<4, Full>(t);
    for (; i < rows; ++i, t.a += t.lda, t.c += t.ldc)
        Isa::template tile<1, Full>(t);
}

/**
 * Rows [row_begin, row_end), columns [j_begin, j_end) of C +=
 * A[:, k_begin:k_end) * B[k_begin:k_end, :) at one x86 level. kW-wide
 * column blocks loop OUTER and rows INNER, so one block's depth slice
 * of B stays cache-resident across every row block instead of being
 * re-streamed once per row block. The loop order and the depth and
 * column slicing only choose which element is computed when; each
 * element keeps its single k-ascending FMA chain (slices continue it
 * through an exact store/load of the fp32 partial), so none of them
 * can change a bit.
 */
template <typename Isa>
void
gemmRowsBlocked(const Matrix &a, const Matrix &b, Matrix &c,
                Index row_begin, Index row_end, Index k_begin,
                Index k_end, Index j_begin, Index j_end)
{
    const Index width = b.cols();
    const Index rows = row_end - row_begin;
    for (Index j0 = j_begin; j0 < j_end; j0 += kW) {
        const GemmTile t{a.data() + row_begin * a.cols() + k_begin,
                         a.cols(),
                         b.data() + k_begin * width + j0,
                         width,
                         k_end - k_begin,
                         c.data() + row_begin * width + j0,
                         width,
                         std::min<Index>(kW, j_end - j0)};
        if (t.pw == kW)
            rowBlocks<Isa, true>(t, rows);
        else
            rowBlocks<Isa, false>(t, rows);
    }
}

// ---------------------------------------------------------------
// AVX2 kernels (8-lane float, FMA).
// ---------------------------------------------------------------

__attribute__((target("avx2,fma"))) Real
rowMaxAvx2(const Real *x, Index n)
{
    if (n < 8)
        return rowMaxScalar(x, n);
    __m256 vm = _mm256_loadu_ps(x);
    Index j = 8;
    for (; j + 8 <= n; j += 8)
        vm = _mm256_max_ps(vm, _mm256_loadu_ps(x + j));
    float lanes[8];
    _mm256_storeu_ps(lanes, vm);
    Real m = lanes[0];
    for (int t = 1; t < 8; ++t)
        m = std::max(m, lanes[t]);
    for (; j < n; ++j)
        m = std::max(m, x[j]);
    return m;
}

__attribute__((target("avx2,fma"))) void
scaleRowAvx2(Real *x, Index n, Real s)
{
    const __m256 vs = _mm256_set1_ps(s);
    Index j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(x + j,
                         _mm256_mul_ps(_mm256_loadu_ps(x + j), vs));
    for (; j < n; ++j)
        x[j] *= s;
}

__attribute__((target("avx2,fma"))) void
addRowAvx2(Real *acc, const Real *x, Index n)
{
    Index j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(acc + j,
                         _mm256_add_ps(_mm256_loadu_ps(acc + j),
                                       _mm256_loadu_ps(x + j)));
    for (; j < n; ++j)
        acc[j] += x[j];
}

__attribute__((target("avx2"))) inline __m256
splat8(Real value)
{
    return _mm256_set1_ps(value);
}

/** geluScalar on 8 lanes: the same operations in the same order. */
__attribute__((target("avx2"))) void
geluRowAvx2(const Real *x, Index n, Real *out)
{
    using namespace gelu;
    constexpr auto c = splat8;
    Index j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 v = _mm256_loadu_ps(x + j);
        const __m256 cube = _mm256_mul_ps(
            _mm256_mul_ps(_mm256_mul_ps(c(kCubic), v), v), v);
        __m256 u = _mm256_mul_ps(c(kScale), _mm256_add_ps(v, cube));
        u = _mm256_max_ps(u, c(-kClamp));
        u = _mm256_min_ps(u, c(kClamp));
        const __m256 w = _mm256_add_ps(u, u);
        const __m256 k =
            _mm256_add_ps(_mm256_mul_ps(w, c(kLog2e)), c(kRound));
        const __m256 nk = _mm256_sub_ps(k, c(kRound));
        const __m256 r =
            _mm256_sub_ps(_mm256_sub_ps(w, _mm256_mul_ps(nk, c(kLn2Hi))),
                          _mm256_mul_ps(nk, c(kLn2Lo)));
        const __m256 z = _mm256_mul_ps(r, r);
        __m256 p = _mm256_add_ps(_mm256_mul_ps(c(kP0), r), c(kP1));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), c(kP2));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), c(kP3));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), c(kP4));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), c(kP5));
        p = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, z), r), c(1.0f));
        const __m256 scale = _mm256_castsi256_ps(_mm256_slli_epi32(
            _mm256_sub_epi32(_mm256_castps_si256(k),
                             _mm256_set1_epi32(kBias)),
            23));
        const __m256 e = _mm256_mul_ps(p, scale);
        const __m256 t = _mm256_div_ps(_mm256_sub_ps(e, c(1.0f)),
                                       _mm256_add_ps(e, c(1.0f)));
        _mm256_storeu_ps(out + j,
                         _mm256_mul_ps(_mm256_mul_ps(c(0.5f), v),
                                       _mm256_add_ps(c(1.0f), t)));
    }
    geluRowScalar(x + j, n - j, out + j);
}

/** The AVX2 GEMM level (gemmRowsBlocked). */
struct Avx2Gemm
{
    /** R rows x 8V columns at column @p j of the tile: R x V ymm
     *  accumulators live across the whole depth. */
    template <int R, int V>
    __attribute__((target("avx2,fma"))) static void
    strip(GemmTile t, Index j)
    {
        __m256 acc[R][V];
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
            for (int v = 0; v < V; ++v)
                acc[r][v] = _mm256_loadu_ps(t.c + r * t.ldc + j + 8 * v);
        for (Index k = 0; k < t.depth; ++k) {
            const Real *bk = t.b + k * t.ldb + j;
            __m256 bv[V];
#pragma GCC unroll 4
            for (int v = 0; v < V; ++v)
                bv[v] = _mm256_loadu_ps(bk + 8 * v);
#pragma GCC unroll 8
            for (int r = 0; r < R; ++r) {
                const __m256 av = _mm256_set1_ps(t.a[r * t.lda + k]);
#pragma GCC unroll 4
                for (int v = 0; v < V; ++v)
                    acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
            }
        }
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
            for (int v = 0; v < V; ++v)
                _mm256_storeu_ps(t.c + r * t.ldc + j + 8 * v, acc[r][v]);
    }

    /** One row keeps four ymm chains (32 columns) in flight to cover
     *  the FMA latency. Taller blocks get that parallelism from their
     *  rows and take 16 columns: 6 x 2 accumulators + 2 B vectors + 1
     *  broadcast fill 15 of the 16 ymm registers. A ragged block ends
     *  in 8-column strips, then single-column chains. */
    template <int R, bool Full>
    static void
    tile(GemmTile t)
    {
        constexpr int V = R == 1 ? 4 : 2;
        const Index n = Full ? kW : t.pw;
        Index j = 0;
        for (; j + 8 * V <= n; j += 8 * V)
            strip<R, V>(t, j);
        for (; j + 8 <= n; j += 8)
            strip<R, 1>(t, j);
        for (; j < n; ++j)
            for (int r = 0; r < R; ++r) {
                Real &out = t.c[r * t.ldc + j];
                out = fmaChain(t.a + r * t.lda, t.b, t.ldb, j, t.depth,
                               out);
            }
    }
};

__attribute__((target("avx2,fma"))) void
fmaRowsAvx2(Real *acc, const Real *const *rows, const Real *w, Index n,
            Index d)
{
    Index t = 0;
    for (; t + 32 <= d; t += 32) {
        __m256 s0 = _mm256_loadu_ps(acc + t);
        __m256 s1 = _mm256_loadu_ps(acc + t + 8);
        __m256 s2 = _mm256_loadu_ps(acc + t + 16);
        __m256 s3 = _mm256_loadu_ps(acc + t + 24);
        for (Index j = 0; j < n; ++j) {
            const __m256 wv = _mm256_set1_ps(w[j]);
            const Real *x = rows[j] + t;
            s0 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(x), s0);
            s1 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(x + 8), s1);
            s2 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(x + 16), s2);
            s3 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(x + 24), s3);
        }
        _mm256_storeu_ps(acc + t, s0);
        _mm256_storeu_ps(acc + t + 8, s1);
        _mm256_storeu_ps(acc + t + 16, s2);
        _mm256_storeu_ps(acc + t + 24, s3);
    }
    for (; t + 8 <= d; t += 8) {
        __m256 s0 = _mm256_loadu_ps(acc + t);
        for (Index j = 0; j < n; ++j)
            s0 = _mm256_fmadd_ps(_mm256_set1_ps(w[j]),
                                 _mm256_loadu_ps(rows[j] + t), s0);
        _mm256_storeu_ps(acc + t, s0);
    }
    for (; t < d; ++t) {
        Real s = acc[t];
        for (Index j = 0; j < n; ++j)
            s = std::fmaf(w[j], rows[j][t], s);
        acc[t] = s;
    }
}

/** 4 floats of @p lo in the low half, 4 of @p hi in the high half. */
__attribute__((target("avx2"))) inline __m256
loadRowPair(const Real *lo, const Real *hi)
{
    return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm_loadu_ps(lo)),
                                _mm_loadu_ps(hi), 1);
}

/**
 * In-register transpose of k-steps [k, k + 4) of the 8 rows @p r:
 * c[s] holds rows 0..7 at k + s. Rows l and l + 4 share one ymm from
 * two 128-bit loads, so the 4 x 8 -> 8 x 4 transpose costs 8
 * shuffles. Pure data movement.
 */
__attribute__((target("avx2"))) inline void
transposeRows8x4(const Real *const r[kSimdDotRows], Index k,
                 __m256 c[4])
{
    const __m256 v0 = loadRowPair(r[0] + k, r[4] + k);
    const __m256 v1 = loadRowPair(r[1] + k, r[5] + k);
    const __m256 v2 = loadRowPair(r[2] + k, r[6] + k);
    const __m256 v3 = loadRowPair(r[3] + k, r[7] + k);
    const __m256 t0 = _mm256_unpacklo_ps(v0, v1);
    const __m256 t1 = _mm256_unpackhi_ps(v0, v1);
    const __m256 t2 = _mm256_unpacklo_ps(v2, v3);
    const __m256 t3 = _mm256_unpackhi_ps(v2, v3);
    c[0] = _mm256_shuffle_ps(t0, t2, 0x44);
    c[1] = _mm256_shuffle_ps(t0, t2, 0xEE);
    c[2] = _mm256_shuffle_ps(t1, t3, 0x44);
    c[3] = _mm256_shuffle_ps(t1, t3, 0xEE);
}

/** Rows 0..7 of @p r at one k (the k tail past the last full
 *  transpose step). */
__attribute__((target("avx2"))) inline __m256
rowsColumn8(const Real *const r[kSimdDotRows], Index k)
{
    return _mm256_setr_ps(r[0][k], r[1][k], r[2][k], r[3][k], r[4][k],
                          r[5][k], r[6][k], r[7][k]);
}

/** Stores the first @p lanes of the 8 outputs @p v. */
__attribute__((target("avx2"))) inline void
storeLanes8(Real *out, __m256 v, Index lanes)
{
    if (lanes == kSimdDotRows) {
        _mm256_storeu_ps(out, v);
        return;
    }
    Real tmp[kSimdDotRows];
    _mm256_storeu_ps(tmp, v);
    std::memcpy(out, tmp, static_cast<std::size_t>(lanes) * sizeof(Real));
}

/** The 8 rows of dot block @p j: lanes past n repeat the last row so
 *  every load stays in bounds; their outputs are never stored. */
inline void
blockRows(const Real *const *rows, Index n, Index j,
          const Real *r[kSimdDotRows])
{
    for (Index l = 0; l < kSimdDotRows; ++l)
        r[l] = rows[std::min(j + l, n - 1)];
}

/** Fetches rows [j, j + count) at k, a block ahead of their use: the
 *  rows sit on scattered arena pages, which the hardware prefetcher
 *  does not follow from one row to the next. */
inline void
prefetchRows(const Real *const *rows, Index n, Index j, Index count,
             Index k)
{
    for (Index l = 0; l < count; ++l)
        _mm_prefetch(reinterpret_cast<const char *>(
                         rows[std::min(j + l, n - 1)] + k),
                     _MM_HINT_T0);
}

/** AVX2 FP32 dot block: one 8-lane fmadd chain per 8 rows. */
__attribute__((target("avx2,fma"))) void
dotRowsAvx2(const Real *q, const Real *const *rows, Index n, Index d,
            Real *out)
{
    for (Index j = 0; j < n; j += kSimdDotRows) {
        const Real *r[kSimdDotRows];
        blockRows(rows, n, j, r);
        __m256 acc = _mm256_setzero_ps();
        Index k = 0;
        for (; k + 4 <= d; k += 4) {
            if (k % 16 == 0)
                prefetchRows(rows, n, j + kSimdDotRows, kSimdDotRows, k);
            __m256 c[4];
            transposeRows8x4(r, k, c);
            for (int s = 0; s < 4; ++s)
                acc = _mm256_fmadd_ps(_mm256_set1_ps(q[k + s]), c[s], acc);
        }
        for (; k < d; ++k)
            acc = _mm256_fmadd_ps(_mm256_set1_ps(q[k]), rowsColumn8(r, k),
                                  acc);
        storeLanes8(out + j, acc, std::min(kSimdDotRows, n - j));
    }
}

// ---------------------------------------------------------------
// AVX-512F kernels (16-lane float).
// ---------------------------------------------------------------

__attribute__((target("avx512f"))) Real
rowMaxAvx512(const Real *x, Index n)
{
    if (n < 16)
        return rowMaxScalar(x, n);
    __m512 vm = _mm512_loadu_ps(x);
    Index j = 16;
    for (; j + 16 <= n; j += 16)
        // Merge-masked with an all-ones mask: the plain instruction,
        // without the unmasked intrinsic's -Wmaybe-uninitialized.
        vm = _mm512_mask_max_ps(vm, 0xFFFF, vm, _mm512_loadu_ps(x + j));
    float lanes[16];
    _mm512_storeu_ps(lanes, vm);
    Real m = lanes[0];
    for (int t = 1; t < 16; ++t)
        m = std::max(m, lanes[t]);
    for (; j < n; ++j)
        m = std::max(m, x[j]);
    return m;
}

__attribute__((target("avx512f"))) void
scaleRowAvx512(Real *x, Index n, Real s)
{
    const __m512 vs = _mm512_set1_ps(s);
    Index j = 0;
    for (; j + 16 <= n; j += 16)
        _mm512_storeu_ps(x + j,
                         _mm512_mul_ps(_mm512_loadu_ps(x + j), vs));
    if (j < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - j)) - 1u);
        const __m512 v = _mm512_maskz_loadu_ps(m, x + j);
        _mm512_mask_storeu_ps(x + j, m, _mm512_mul_ps(v, vs));
    }
}

__attribute__((target("avx512f"))) void
addRowAvx512(Real *acc, const Real *x, Index n)
{
    Index j = 0;
    for (; j + 16 <= n; j += 16)
        _mm512_storeu_ps(acc + j,
                         _mm512_add_ps(_mm512_loadu_ps(acc + j),
                                       _mm512_loadu_ps(x + j)));
    if (j < n) {
        const __mmask16 m =
            static_cast<__mmask16>((1u << (n - j)) - 1u);
        const __m512 av = _mm512_maskz_loadu_ps(m, acc + j);
        const __m512 xv = _mm512_maskz_loadu_ps(m, x + j);
        _mm512_mask_storeu_ps(acc + j, m, _mm512_add_ps(av, xv));
    }
}

__attribute__((target("avx512f"))) inline __m512
splat16(Real value)
{
    return _mm512_set1_ps(value);
}

/** geluScalar on 16 lanes: the same operations in the same order. */
__attribute__((target("avx512f"))) void
geluRowAvx512(const Real *x, Index n, Real *out)
{
    using namespace gelu;
    constexpr auto c = splat16;
    Index j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512 v = _mm512_loadu_ps(x + j);
        const __m512 cube = _mm512_mul_ps(
            _mm512_mul_ps(_mm512_mul_ps(c(kCubic), v), v), v);
        __m512 u = _mm512_mul_ps(c(kScale), _mm512_add_ps(v, cube));
        // Full-mask forms: an explicit pass-through operand instead of
        // the unmasked intrinsics' undefined one, which GCC 12 flags
        // as maybe-uninitialized here.
        constexpr __mmask16 kAll = 0xFFFF;
        u = _mm512_mask_max_ps(u, kAll, u, c(-kClamp));
        u = _mm512_mask_min_ps(u, kAll, u, c(kClamp));
        const __m512 w = _mm512_add_ps(u, u);
        const __m512 k =
            _mm512_add_ps(_mm512_mul_ps(w, c(kLog2e)), c(kRound));
        const __m512 nk = _mm512_sub_ps(k, c(kRound));
        const __m512 r =
            _mm512_sub_ps(_mm512_sub_ps(w, _mm512_mul_ps(nk, c(kLn2Hi))),
                          _mm512_mul_ps(nk, c(kLn2Lo)));
        const __m512 z = _mm512_mul_ps(r, r);
        __m512 p = _mm512_add_ps(_mm512_mul_ps(c(kP0), r), c(kP1));
        p = _mm512_add_ps(_mm512_mul_ps(p, r), c(kP2));
        p = _mm512_add_ps(_mm512_mul_ps(p, r), c(kP3));
        p = _mm512_add_ps(_mm512_mul_ps(p, r), c(kP4));
        p = _mm512_add_ps(_mm512_mul_ps(p, r), c(kP5));
        p = _mm512_add_ps(_mm512_add_ps(_mm512_mul_ps(p, z), r), c(1.0f));
        const __m512i biased = _mm512_sub_epi32(
            _mm512_castps_si512(k), _mm512_set1_epi32(kBias));
        const __m512 scale = _mm512_castsi512_ps(
            _mm512_mask_slli_epi32(biased, kAll, biased, 23));
        const __m512 e = _mm512_mul_ps(p, scale);
        const __m512 t = _mm512_div_ps(_mm512_sub_ps(e, c(1.0f)),
                                       _mm512_add_ps(e, c(1.0f)));
        _mm512_storeu_ps(out + j,
                         _mm512_mul_ps(_mm512_mul_ps(c(0.5f), v),
                                       _mm512_add_ps(c(1.0f), t)));
    }
    geluRowScalar(x + j, n - j, out + j);
}

/** The AVX-512 GEMM level (gemmRowsBlocked). */
struct Avx512Gemm
{
    /**
     * R rows x one kW-wide column block: R x 4 zmm accumulators live
     * across the whole depth — 24 + 4 B vectors + 1 broadcast at
     * R = 6, the ceiling of the 32-register file. A taller block reads
     * the same 256 bytes of B per k step for more FLOPs, and that
     * stream out of L2 is what bounds the shorter blocks once a
     * block's depth slice outgrows L1. A ragged block (!Full) masks its B and C
     * accesses to the pw live columns; a full one uses plain loads,
     * keeping the masks out of the k loop.
     */
    template <int R, bool Full>
    __attribute__((target("avx512f"))) static void
    tile(GemmTile t)
    {
        __mmask16 m[4];
#pragma GCC unroll 4
        for (int g = 0; g < 4; ++g) {
            const Index rem = t.pw - 16 * g;
            m[g] = rem >= 16  ? static_cast<__mmask16>(0xFFFF)
                   : rem <= 0 ? static_cast<__mmask16>(0)
                              : static_cast<__mmask16>((1u << rem) - 1u);
        }
        __m512 acc[R][4];
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
            for (int g = 0; g < 4; ++g) {
                const Real *cg = t.c + r * t.ldc + 16 * g;
                acc[r][g] = Full ? _mm512_loadu_ps(cg)
                                 : _mm512_maskz_loadu_ps(m[g], cg);
            }
        for (Index k = 0; k < t.depth; ++k) {
            const Real *bk = t.b + k * t.ldb;
            __m512 bv[4];
#pragma GCC unroll 4
            for (int g = 0; g < 4; ++g)
                bv[g] = Full ? _mm512_loadu_ps(bk + 16 * g)
                             : _mm512_maskz_loadu_ps(m[g], bk + 16 * g);
#pragma GCC unroll 8
            for (int r = 0; r < R; ++r) {
                const __m512 av = _mm512_set1_ps(t.a[r * t.lda + k]);
#pragma GCC unroll 4
                for (int g = 0; g < 4; ++g)
                    acc[r][g] = _mm512_fmadd_ps(av, bv[g], acc[r][g]);
            }
        }
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
            for (int g = 0; g < 4; ++g) {
                Real *cg = t.c + r * t.ldc + 16 * g;
                if (Full)
                    _mm512_storeu_ps(cg, acc[r][g]);
                else
                    _mm512_mask_storeu_ps(cg, m[g], acc[r][g]);
            }
    }
};

/** Column blocks of 64 (four zmm accumulators), then of 16, then
 *  one masked tail; each block's accumulators live across all n
 *  rows. */
__attribute__((target("avx512f"))) void
fmaRowsAvx512(Real *acc, const Real *const *rows, const Real *w, Index n,
              Index d)
{
    Index t = 0;
    for (; t + 64 <= d; t += 64) {
        __m512 s0 = _mm512_loadu_ps(acc + t);
        __m512 s1 = _mm512_loadu_ps(acc + t + 16);
        __m512 s2 = _mm512_loadu_ps(acc + t + 32);
        __m512 s3 = _mm512_loadu_ps(acc + t + 48);
        for (Index j = 0; j < n; ++j) {
            const __m512 wv = _mm512_set1_ps(w[j]);
            const Real *x = rows[j] + t;
            s0 = _mm512_fmadd_ps(wv, _mm512_loadu_ps(x), s0);
            s1 = _mm512_fmadd_ps(wv, _mm512_loadu_ps(x + 16), s1);
            s2 = _mm512_fmadd_ps(wv, _mm512_loadu_ps(x + 32), s2);
            s3 = _mm512_fmadd_ps(wv, _mm512_loadu_ps(x + 48), s3);
        }
        _mm512_storeu_ps(acc + t, s0);
        _mm512_storeu_ps(acc + t + 16, s1);
        _mm512_storeu_ps(acc + t + 32, s2);
        _mm512_storeu_ps(acc + t + 48, s3);
    }
    for (; t < d; t += 16) {
        const Index rem = std::min<Index>(16, d - t);
        const auto m = static_cast<__mmask16>((1u << rem) - 1u);
        __m512 s0 = _mm512_maskz_loadu_ps(m, acc + t);
        for (Index j = 0; j < n; ++j)
            s0 = _mm512_fmadd_ps(_mm512_set1_ps(w[j]),
                                 _mm512_maskz_loadu_ps(m, rows[j] + t), s0);
        _mm512_mask_storeu_ps(acc + t, m, s0);
    }
}

#endif // CTA_SIMD_X86

#if CTA_SIMD_NEON

// ---------------------------------------------------------------
// NEON kernels (4-lane float; baseline on aarch64, no target attr).
// ---------------------------------------------------------------

Real
rowMaxNeon(const Real *x, Index n)
{
    if (n < 4)
        return rowMaxScalar(x, n);
    float32x4_t vm = vld1q_f32(x);
    Index j = 4;
    for (; j + 4 <= n; j += 4)
        vm = vmaxq_f32(vm, vld1q_f32(x + j));
    Real m = vmaxvq_f32(vm);
    for (; j < n; ++j)
        m = std::max(m, x[j]);
    return m;
}

void
scaleRowNeon(Real *x, Index n, Real s)
{
    Index j = 0;
    for (; j + 4 <= n; j += 4)
        vst1q_f32(x + j, vmulq_n_f32(vld1q_f32(x + j), s));
    for (; j < n; ++j)
        x[j] *= s;
}

void
addRowNeon(Real *acc, const Real *x, Index n)
{
    Index j = 0;
    for (; j + 4 <= n; j += 4)
        vst1q_f32(acc + j,
                  vaddq_f32(vld1q_f32(acc + j), vld1q_f32(x + j)));
    for (; j < n; ++j)
        acc[j] += x[j];
}

/** geluScalar on 4 lanes: the same operations in the same order. */
void
geluRowNeon(const Real *x, Index n, Real *out)
{
    using namespace gelu;
    const auto c = [](Real value) { return vdupq_n_f32(value); };
    Index j = 0;
    for (; j + 4 <= n; j += 4) {
        const float32x4_t v = vld1q_f32(x + j);
        const float32x4_t cube =
            vmulq_f32(vmulq_f32(vmulq_f32(c(kCubic), v), v), v);
        float32x4_t u = vmulq_f32(c(kScale), vaddq_f32(v, cube));
        u = vmaxq_f32(u, c(-kClamp));
        u = vminq_f32(u, c(kClamp));
        const float32x4_t w = vaddq_f32(u, u);
        const float32x4_t k = vaddq_f32(vmulq_f32(w, c(kLog2e)), c(kRound));
        const float32x4_t nk = vsubq_f32(k, c(kRound));
        const float32x4_t r =
            vsubq_f32(vsubq_f32(w, vmulq_f32(nk, c(kLn2Hi))),
                      vmulq_f32(nk, c(kLn2Lo)));
        const float32x4_t z = vmulq_f32(r, r);
        float32x4_t p = vaddq_f32(vmulq_f32(c(kP0), r), c(kP1));
        p = vaddq_f32(vmulq_f32(p, r), c(kP2));
        p = vaddq_f32(vmulq_f32(p, r), c(kP3));
        p = vaddq_f32(vmulq_f32(p, r), c(kP4));
        p = vaddq_f32(vmulq_f32(p, r), c(kP5));
        p = vaddq_f32(vaddq_f32(vmulq_f32(p, z), r), c(1.0f));
        const float32x4_t scale = vreinterpretq_f32_s32(vshlq_n_s32(
            vsubq_s32(vreinterpretq_s32_f32(k), vdupq_n_s32(kBias)), 23));
        const float32x4_t e = vmulq_f32(p, scale);
        const float32x4_t t =
            vdivq_f32(vsubq_f32(e, c(1.0f)), vaddq_f32(e, c(1.0f)));
        vst1q_f32(out + j,
                  vmulq_f32(vmulq_f32(c(0.5f), v), vaddq_f32(c(1.0f), t)));
    }
    geluRowScalar(x + j, n - j, out + j);
}

void
gemmRowsNeon(const Matrix &a, const Matrix &b, Matrix &c,
             Index row_begin, Index row_end, Index k_begin, Index k_end,
             Index j_begin, Index j_end)
{
    const Index width = b.cols();
    const Index kd = k_end - k_begin;
    // Column blocks OUTER, rows INNER, reading row-major B in place
    // (see gemmRowsBlocked).
    for (Index j0 = j_begin; j0 < j_end; j0 += kW) {
        const Real *panel = b.data() + k_begin * width + j0;
        const Index pw = std::min<Index>(kW, j_end - j0);
        for (Index i = row_begin; i < row_end; ++i) {
            const Real *arow = a.data() + i * a.cols() + k_begin;
            Real *crow = c.data() + i * width + j0;
            Index t = 0;
            for (; t + 16 <= pw; t += 16) {
                float32x4_t s0 = vld1q_f32(crow + t);
                float32x4_t s1 = vld1q_f32(crow + t + 4);
                float32x4_t s2 = vld1q_f32(crow + t + 8);
                float32x4_t s3 = vld1q_f32(crow + t + 12);
                for (Index k = 0; k < kd; ++k) {
                    const Real *bk = panel + k * width + t;
                    const Real av = arow[k];
                    s0 = vfmaq_n_f32(s0, vld1q_f32(bk), av);
                    s1 = vfmaq_n_f32(s1, vld1q_f32(bk + 4), av);
                    s2 = vfmaq_n_f32(s2, vld1q_f32(bk + 8), av);
                    s3 = vfmaq_n_f32(s3, vld1q_f32(bk + 12), av);
                }
                vst1q_f32(crow + t, s0);
                vst1q_f32(crow + t + 4, s1);
                vst1q_f32(crow + t + 8, s2);
                vst1q_f32(crow + t + 12, s3);
            }
            for (; t < pw; ++t)
                crow[t] = fmaChain(arow, panel, width, t, kd, crow[t]);
        }
    }
}

void
fmaRowsNeon(Real *acc, const Real *const *rows, const Real *w, Index n,
            Index d)
{
    Index t = 0;
    for (; t + 16 <= d; t += 16) {
        float32x4_t s0 = vld1q_f32(acc + t);
        float32x4_t s1 = vld1q_f32(acc + t + 4);
        float32x4_t s2 = vld1q_f32(acc + t + 8);
        float32x4_t s3 = vld1q_f32(acc + t + 12);
        for (Index j = 0; j < n; ++j) {
            const Real *x = rows[j] + t;
            s0 = vfmaq_n_f32(s0, vld1q_f32(x), w[j]);
            s1 = vfmaq_n_f32(s1, vld1q_f32(x + 4), w[j]);
            s2 = vfmaq_n_f32(s2, vld1q_f32(x + 8), w[j]);
            s3 = vfmaq_n_f32(s3, vld1q_f32(x + 12), w[j]);
        }
        vst1q_f32(acc + t, s0);
        vst1q_f32(acc + t + 4, s1);
        vst1q_f32(acc + t + 8, s2);
        vst1q_f32(acc + t + 12, s3);
    }
    for (; t < d; ++t) {
        Real s = acc[t];
        for (Index j = 0; j < n; ++j)
            s = std::fmaf(w[j], rows[j][t], s);
        acc[t] = s;
    }
}

#endif // CTA_SIMD_NEON

// ---------------------------------------------------------------
// Register-resident FMA peak loops (roofline ceiling). 16
// independent chains cover the FMA latency x throughput product on
// every target; the sink return defeats dead-code elimination.
// ---------------------------------------------------------------

#define CTA_PEAK_BODY(VT, SET1, FMA, ADD)                             \
    const VT m = SET1(1.0000001f);                                    \
    const VT d = SET1(1e-7f);                                         \
    VT a0 = SET1(0.1f), a1 = SET1(0.2f), a2 = SET1(0.3f),             \
       a3 = SET1(0.4f), a4 = SET1(0.5f), a5 = SET1(0.6f),             \
       a6 = SET1(0.7f), a7 = SET1(0.8f), a8 = SET1(0.9f),             \
       a9 = SET1(1.0f), a10 = SET1(1.1f), a11 = SET1(1.2f),           \
       a12 = SET1(1.3f), a13 = SET1(1.4f), a14 = SET1(1.5f),          \
       a15 = SET1(1.6f);                                              \
    for (long i = 0; i < iters; ++i) {                                \
        a0 = FMA(a0, m, d);                                           \
        a1 = FMA(a1, m, d);                                           \
        a2 = FMA(a2, m, d);                                           \
        a3 = FMA(a3, m, d);                                           \
        a4 = FMA(a4, m, d);                                           \
        a5 = FMA(a5, m, d);                                           \
        a6 = FMA(a6, m, d);                                           \
        a7 = FMA(a7, m, d);                                           \
        a8 = FMA(a8, m, d);                                           \
        a9 = FMA(a9, m, d);                                           \
        a10 = FMA(a10, m, d);                                         \
        a11 = FMA(a11, m, d);                                         \
        a12 = FMA(a12, m, d);                                         \
        a13 = FMA(a13, m, d);                                         \
        a14 = FMA(a14, m, d);                                         \
        a15 = FMA(a15, m, d);                                         \
    }                                                                 \
    VT r = ADD(a0, a1);                                               \
    r = ADD(r, a2);                                                   \
    r = ADD(r, a3);                                                   \
    r = ADD(r, a4);                                                   \
    r = ADD(r, a5);                                                   \
    r = ADD(r, a6);                                                   \
    r = ADD(r, a7);                                                   \
    r = ADD(r, a8);                                                   \
    r = ADD(r, a9);                                                   \
    r = ADD(r, a10);                                                  \
    r = ADD(r, a11);                                                  \
    r = ADD(r, a12);                                                  \
    r = ADD(r, a13);                                                  \
    r = ADD(r, a14);                                                  \
    r = ADD(r, a15)

float
fmaPeakScalar(long iters)
{
    float m = 1.0000001f, d = 1e-7f;
    float a0 = 0.1f, a1 = 0.2f, a2 = 0.3f, a3 = 0.4f, a4 = 0.5f,
          a5 = 0.6f, a6 = 0.7f, a7 = 0.8f, a8 = 0.9f, a9 = 1.0f,
          a10 = 1.1f, a11 = 1.2f, a12 = 1.3f, a13 = 1.4f, a14 = 1.5f,
          a15 = 1.6f;
    for (long i = 0; i < iters; ++i) {
        a0 = std::fmaf(a0, m, d);
        a1 = std::fmaf(a1, m, d);
        a2 = std::fmaf(a2, m, d);
        a3 = std::fmaf(a3, m, d);
        a4 = std::fmaf(a4, m, d);
        a5 = std::fmaf(a5, m, d);
        a6 = std::fmaf(a6, m, d);
        a7 = std::fmaf(a7, m, d);
        a8 = std::fmaf(a8, m, d);
        a9 = std::fmaf(a9, m, d);
        a10 = std::fmaf(a10, m, d);
        a11 = std::fmaf(a11, m, d);
        a12 = std::fmaf(a12, m, d);
        a13 = std::fmaf(a13, m, d);
        a14 = std::fmaf(a14, m, d);
        a15 = std::fmaf(a15, m, d);
    }
    return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9 + a10 +
           a11 + a12 + a13 + a14 + a15;
}

#if CTA_SIMD_X86

__attribute__((target("avx2,fma"))) float
fmaPeakAvx2(long iters)
{
    float out[8];
    CTA_PEAK_BODY(__m256, _mm256_set1_ps, _mm256_fmadd_ps,
                  _mm256_add_ps);
    _mm256_storeu_ps(out, r);
    return out[0];
}

__attribute__((target("avx512f"))) float
fmaPeakAvx512(long iters)
{
    float out[16];
    CTA_PEAK_BODY(__m512, _mm512_set1_ps, _mm512_fmadd_ps,
                  _mm512_add_ps);
    _mm512_storeu_ps(out, r);
    return out[0];
}

#endif // CTA_SIMD_X86

#if CTA_SIMD_NEON

float
fmaPeakNeon(long iters)
{
    float out[4];
    CTA_PEAK_BODY(float32x4_t, vdupq_n_f32, vfmaq_f32, vaddq_f32);
    vst1q_f32(out, r);
    return out[0];
}

#endif // CTA_SIMD_NEON

#undef CTA_PEAK_BODY

/** Lanes per vector at each level (peak flops = 16 chains x 2 x
 *  lanes per iteration). */
int
peakLanes(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Avx512:
        return 16;
    case SimdLevel::Avx2:
        return 8;
    case SimdLevel::Neon:
        return 4;
    default:
        return 1;
    }
}

float
fmaPeakIter(SimdLevel level, long iters)
{
    switch (level) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        return fmaPeakAvx512(iters);
    case SimdLevel::Avx2:
        return fmaPeakAvx2(iters);
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        return fmaPeakNeon(iters);
#endif
    default:
        return fmaPeakScalar(iters);
    }
}

/** Test-forced level, or -1 to use the CTA_SIMD/default resolution. */
std::atomic<int> g_forced_level{-1};

SimdLevel
envSimdLevel()
{
    static const SimdLevel level = [] {
        const char *env = envString("CTA_SIMD");
        if (env == nullptr)
            return detectSimdLevel();
        const std::string_view spec(env);
        if (spec == "auto")
            return detectSimdLevel();
        SimdLevel forced;
        if (spec == "off" || spec == "scalar")
            forced = SimdLevel::Scalar;
        else if (spec == "avx2")
            forced = SimdLevel::Avx2;
        else if (spec == "avx512")
            forced = SimdLevel::Avx512;
        else if (spec == "neon")
            forced = SimdLevel::Neon;
        else
            CTA_FATAL("unknown CTA_SIMD '", env,
                      "' (expected auto | off | scalar | avx2 | "
                      "avx512 | neon)");
        if (!simdLevelSupported(forced))
            CTA_FATAL("CTA_SIMD=", env,
                      " is not supported by this host (detected ",
                      simdLevelName(detectSimdLevel()), ")");
        return forced;
    }();
    return level;
}

} // namespace

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return "scalar";
    case SimdLevel::Avx2:
        return "avx2";
    case SimdLevel::Avx512:
        return "avx512";
    case SimdLevel::Neon:
        return "neon";
    }
    return "unknown";
}

SimdLevel
detectSimdLevel()
{
#if CTA_SIMD_X86
    if (__builtin_cpu_supports("avx512f"))
        return SimdLevel::Avx512;
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return SimdLevel::Avx2;
    return SimdLevel::Scalar;
#elif CTA_SIMD_NEON
    return SimdLevel::Neon;
#else
    return SimdLevel::Scalar;
#endif
}

bool
simdLevelSupported(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return true;
#if CTA_SIMD_X86
    case SimdLevel::Avx2:
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
    case SimdLevel::Avx512:
        // Its FP32 dot rows run the AVX2 kernel (simdDotRows).
        return __builtin_cpu_supports("avx512f") &&
               simdLevelSupported(SimdLevel::Avx2);
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        return true;
#endif
    default:
        return false;
    }
}

SimdLevel
activeSimdLevel()
{
    const int forced = g_forced_level.load(std::memory_order_relaxed);
    return forced >= 0 ? static_cast<SimdLevel>(forced)
                       : envSimdLevel();
}

SimdLevel
setSimdLevel(SimdLevel level)
{
    CTA_REQUIRE(simdLevelSupported(level), "SIMD level ",
                simdLevelName(level), " not supported by this host");
    const SimdLevel previous = activeSimdLevel();
    g_forced_level.store(static_cast<int>(level),
                         std::memory_order_relaxed);
    return previous;
}

double
simdFmaPeakGflops()
{
    const SimdLevel level = activeSimdLevel();
    const double flopsPerIter = 16.0 * 2.0 * peakLanes(level);
    volatile float sink = 0;
    long iters = 1L << 16;
    for (;;) {
        const auto t0 = std::chrono::steady_clock::now();
        sink = sink + fmaPeakIter(level, iters);
        const auto t1 = std::chrono::steady_clock::now();
        const double s =
            std::chrono::duration<double>(t1 - t0).count();
        if (s >= 0.02)
            return flopsPerIter * static_cast<double>(iters) / s /
                   1e9;
        iters *= 4;
    }
}

Real
simdRowMax(const Real *x, Index n)
{
    CTA_ASSERT(n >= 1, "row max over empty row");
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        return rowMaxAvx512(x, n);
    case SimdLevel::Avx2:
        return rowMaxAvx2(x, n);
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        return rowMaxNeon(x, n);
#endif
    default:
        return rowMaxScalar(x, n);
    }
}

void
simdScaleRow(Real *x, Index n, Real s)
{
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        scaleRowAvx512(x, n, s);
        return;
    case SimdLevel::Avx2:
        scaleRowAvx2(x, n, s);
        return;
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        scaleRowNeon(x, n, s);
        return;
#endif
    default:
        scaleRowScalar(x, n, s);
    }
}

void
simdAddRow(Real *acc, const Real *x, Index n)
{
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        addRowAvx512(acc, x, n);
        return;
    case SimdLevel::Avx2:
        addRowAvx2(acc, x, n);
        return;
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        addRowNeon(acc, x, n);
        return;
#endif
    default:
        addRowScalar(acc, x, n);
    }
}

void
simdGemmRows(const Matrix &a, const Matrix &b, Matrix &c,
             Index row_begin, Index row_end, Index k_begin, Index k_end,
             Index j_begin, Index j_end)
{
    if (k_end < 0)
        k_end = a.cols();
    if (j_end < 0)
        j_end = b.cols();
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        gemmRowsBlocked<Avx512Gemm>(a, b, c, row_begin, row_end, k_begin,
                                    k_end, j_begin, j_end);
        return;
    case SimdLevel::Avx2:
        gemmRowsBlocked<Avx2Gemm>(a, b, c, row_begin, row_end, k_begin,
                                  k_end, j_begin, j_end);
        return;
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        gemmRowsNeon(a, b, c, row_begin, row_end, k_begin, k_end, j_begin,
                     j_end);
        return;
#endif
    default:
        gemmRowsScalar(a, b, c, row_begin, row_end, k_begin, k_end,
                       j_begin, j_end);
    }
}

void
simdGeluRow(const Real *x, Index n, Real *out)
{
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        geluRowAvx512(x, n, out);
        return;
    case SimdLevel::Avx2:
        geluRowAvx2(x, n, out);
        return;
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        geluRowNeon(x, n, out);
        return;
#endif
    default:
        geluRowScalar(x, n, out);
    }
}

void
simdFmaRows(Real *acc, const Real *const *rows, const Real *w, Index n,
            Index d)
{
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        fmaRowsAvx512(acc, rows, w, n, d);
        return;
    case SimdLevel::Avx2:
        fmaRowsAvx2(acc, rows, w, n, d);
        return;
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        fmaRowsNeon(acc, rows, w, n, d);
        return;
#endif
    default:
        fmaRowsScalar(acc, rows, w, n, d);
    }
}

void
simdDotRows(const Real *q, const Real *const *rows, Index n, Index d,
            Real *out)
{
    // One 8-lane ymm chain per 8 rows serves AVX-512 too: the
    // register transpose, not the FMA width, bounds this kernel, and
    // a 16-lane zmm form timed the same on an AVX-512 host. NEON runs
    // the scalar chains.
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
    case SimdLevel::Avx2:
        dotRowsAvx2(q, rows, n, d, out);
        return;
#endif
    default:
        dotRowsScalar(q, rows, n, d, out);
    }
}

} // namespace cta::core
