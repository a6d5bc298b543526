#include "core/simd.h"

#include <atomic>
#include <chrono>
#include <cmath>
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

constexpr Index kW = kSimdPanelWidth;

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

/** One panel column's FMA chain: c += sum_k a[k] * panel[k*stride +
 *  t], rounded once per step — the element semantics of every packed
 *  GEMM path. @p stride is kW for a simdPackB image and B's row
 *  width when the panel aliases B's row-major storage directly. */
inline Real
fmaChain(const Real *a, const Real *panel, Index stride, Index t,
         Index depth, Real c)
{
    for (Index k = 0; k < depth; ++k)
        c = std::fmaf(a[k], panel[k * stride + t], c);
    return c;
}

// Every packed path below loops panel-OUTER, rows-INNER within its
// [k_begin, k_end) depth slice: one packed panel slice stays
// cache-resident across all rows instead of the full packed B being
// re-streamed once per row block. The loop order and the depth
// slicing only reorder which element is computed when; each element
// keeps its single k-ascending FMA chain (slices continue the chain
// through an exact store/load of the fp32 partial), so neither can
// change a bit of the result.

void
gemmRowsPackedScalar(const Matrix &a, const Real *packed, Index width,
                     Matrix &c, Index row_begin, Index row_end,
                     Index k_begin, Index k_end, Index bstride)
{
    const Index depth = a.cols();
    const Index panels = (width + kW - 1) / kW;
    const Index kd = k_end - k_begin;
    // Panel p starts kW floats into the previous one when the
    // "pack" is B's own row-major storage (bstride == width), and
    // a full depth x kW block later in a simdPackB image.
    const Index panel_step = bstride == kW ? depth * kW : kW;
    for (Index p = 0; p < panels; ++p) {
        const Real *panel =
            packed + p * panel_step + k_begin * bstride;
        const Index j0 = p * kW;
        const Index pw = std::min<Index>(kW, width - j0);
        for (Index i = row_begin; i < row_end; ++i) {
            const Real *arow = a.row(i).data() + k_begin;
            Real *crow = c.row(i).data() + j0;
            for (Index t = 0; t < pw; ++t)
                crow[t] = fmaChain(arow, panel, bstride, t, kd, crow[t]);
        }
    }
}

void
vecMatRowsScalar(const Matrix &a, const Matrix &b, Matrix &c,
                 Index row_begin, Index row_end)
{
    // ikj order — per output element one k-ascending fmaf chain, the
    // same chain class as the packed GEMM kernels.
    const Index width = b.cols();
    for (Index i = row_begin; i < row_end; ++i) {
        const Real *arow = a.row(i).data();
        Real *crow = c.row(i).data();
        for (Index k = 0; k < a.cols(); ++k) {
            const Real aik = arow[k];
            const Real *brow = b.row(k).data();
            for (Index j = 0; j < width; ++j)
                crow[j] = std::fmaf(aik, brow[j], crow[j]);
        }
    }
}

/** One multi-row accumulation step: the simdFmaRows element step
 *  when @p Fma, the simdMulAddRows one otherwise. */
template <bool Fma>
inline Real
accStep(Real w, Real x, Real acc)
{
    return Fma ? std::fmaf(w, x, acc) : acc + w * x;
}

template <bool Fma>
void
accumulateRowsScalar(Real *acc, const Real *const *rows, const Real *w,
                     Index n, Index d)
{
    for (Index j = 0; j < n; ++j)
        for (Index t = 0; t < d; ++t)
            acc[t] = accStep<Fma>(w[j], rows[j][t], acc[t]);
}

// Lane-per-row dot products (simd.h contract). The scalar level runs
// kSimdDotRows independent chains side by side — one per row, each
// exactly the reference element's sequence.

void
dotRowsScalar(const Real *q, const Real *const *rows, Index n, Index d,
              Real *out)
{
    for (Index j = 0; j < n; j += kSimdDotRows) {
        const Index lanes = std::min(kSimdDotRows, n - j);
        Wide acc[kSimdDotRows] = {};
        for (Index k = 0; k < d; ++k) {
            const Wide qk = q[k];
            for (Index l = 0; l < lanes; ++l)
                acc[l] += qk * rows[j + l][k];
        }
        for (Index l = 0; l < lanes; ++l)
            out[j + l] = static_cast<Real>(acc[l]);
    }
}

#if CTA_SIMD_X86

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

/** 4 x 16 FMA micro-kernel on one packed panel (stride kW): 8 ymm
 *  accumulators live across the whole depth. */
__attribute__((target("avx2,fma"))) void
micro4x16Avx2(const Real *a0, const Real *a1, const Real *a2,
              const Real *a3, const Real *panel, Index bstride,
              Index depth, Real *c0, Real *c1, Real *c2, Real *c3)
{
#define CTA_LOAD2(r)                                                  \
    __m256 acc##r##0 = _mm256_loadu_ps(c##r);                         \
    __m256 acc##r##1 = _mm256_loadu_ps(c##r + 8)
    CTA_LOAD2(0);
    CTA_LOAD2(1);
    CTA_LOAD2(2);
    CTA_LOAD2(3);
#undef CTA_LOAD2
    for (Index k = 0; k < depth; ++k) {
        const Real *bk = panel + k * bstride;
        const __m256 b0 = _mm256_loadu_ps(bk);
        const __m256 b1 = _mm256_loadu_ps(bk + 8);
        __m256 av;
#define CTA_FMA2(r)                                                   \
    av = _mm256_set1_ps(a##r[k]);                                     \
    acc##r##0 = _mm256_fmadd_ps(av, b0, acc##r##0);                   \
    acc##r##1 = _mm256_fmadd_ps(av, b1, acc##r##1)
        CTA_FMA2(0);
        CTA_FMA2(1);
        CTA_FMA2(2);
        CTA_FMA2(3);
#undef CTA_FMA2
    }
#define CTA_STORE2(r)                                                 \
    _mm256_storeu_ps(c##r, acc##r##0);                                \
    _mm256_storeu_ps(c##r + 8, acc##r##1)
    CTA_STORE2(0);
    CTA_STORE2(1);
    CTA_STORE2(2);
    CTA_STORE2(3);
#undef CTA_STORE2
}

/** 6 x 16 variant: 12 ymm accumulators + 2 panel vectors + 1
 *  broadcast — 15 of the 16 ymm registers. Same panel bytes per k
 *  step as the 4-row kernel for 1.5x the FLOPs (see the 6 x 64
 *  AVX-512 note); same one FMA chain per element. */
__attribute__((target("avx2,fma"))) void
micro6x16Avx2(const Real *a0, const Real *a1, const Real *a2,
              const Real *a3, const Real *a4, const Real *a5,
              const Real *panel, Index bstride, Index depth, Real *c0,
              Real *c1, Real *c2, Real *c3, Real *c4, Real *c5)
{
#define CTA_LOAD2(r)                                                  \
    __m256 acc##r##0 = _mm256_loadu_ps(c##r);                         \
    __m256 acc##r##1 = _mm256_loadu_ps(c##r + 8)
    CTA_LOAD2(0);
    CTA_LOAD2(1);
    CTA_LOAD2(2);
    CTA_LOAD2(3);
    CTA_LOAD2(4);
    CTA_LOAD2(5);
#undef CTA_LOAD2
    for (Index k = 0; k < depth; ++k) {
        const Real *bk = panel + k * bstride;
        const __m256 b0 = _mm256_loadu_ps(bk);
        const __m256 b1 = _mm256_loadu_ps(bk + 8);
        __m256 av;
#define CTA_FMA2(r)                                                   \
    av = _mm256_set1_ps(a##r[k]);                                     \
    acc##r##0 = _mm256_fmadd_ps(av, b0, acc##r##0);                   \
    acc##r##1 = _mm256_fmadd_ps(av, b1, acc##r##1)
        CTA_FMA2(0);
        CTA_FMA2(1);
        CTA_FMA2(2);
        CTA_FMA2(3);
        CTA_FMA2(4);
        CTA_FMA2(5);
#undef CTA_FMA2
    }
#define CTA_STORE2(r)                                                 \
    _mm256_storeu_ps(c##r, acc##r##0);                                \
    _mm256_storeu_ps(c##r + 8, acc##r##1)
    CTA_STORE2(0);
    CTA_STORE2(1);
    CTA_STORE2(2);
    CTA_STORE2(3);
    CTA_STORE2(4);
    CTA_STORE2(5);
#undef CTA_STORE2
}

/** 1 x 16 variant for the row tail. */
__attribute__((target("avx2,fma"))) void
micro1x16Avx2(const Real *a0, const Real *panel, Index bstride,
              Index depth, Real *c0)
{
    __m256 acc0 = _mm256_loadu_ps(c0);
    __m256 acc1 = _mm256_loadu_ps(c0 + 8);
    for (Index k = 0; k < depth; ++k) {
        const Real *bk = panel + k * bstride;
        const __m256 av = _mm256_set1_ps(a0[k]);
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk + 8), acc1);
    }
    _mm256_storeu_ps(c0, acc0);
    _mm256_storeu_ps(c0 + 8, acc1);
}

void
gemmRowsPackedAvx2(const Matrix &a, const Real *packed, Index width,
                   Matrix &c, Index row_begin, Index row_end,
                   Index k_begin, Index k_end, Index bstride)
{
    const Index depth = a.cols();
    const Index panels = (width + kW - 1) / kW;
    const Index kd = k_end - k_begin;
    // Panel p starts kW floats into the previous one when the
    // "pack" is B's own row-major storage (bstride == width), and
    // a full depth x kW block later in a simdPackB image.
    const Index panel_step = bstride == kW ? depth * kW : kW;
    for (Index p = 0; p < panels; ++p) {
        const Real *panel =
            packed + p * panel_step + k_begin * bstride;
        const Index j0 = p * kW;
        const Index pw = std::min<Index>(kW, width - j0);
        Index i = row_begin;
        for (; i + 6 <= row_end; i += 6) {
            const Real *a0 = a.row(i).data() + k_begin;
            const Real *a1 = a.row(i + 1).data() + k_begin;
            const Real *a2 = a.row(i + 2).data() + k_begin;
            const Real *a3 = a.row(i + 3).data() + k_begin;
            const Real *a4 = a.row(i + 4).data() + k_begin;
            const Real *a5 = a.row(i + 5).data() + k_begin;
            Real *c0 = c.row(i).data() + j0;
            Real *c1 = c.row(i + 1).data() + j0;
            Real *c2 = c.row(i + 2).data() + j0;
            Real *c3 = c.row(i + 3).data() + j0;
            Real *c4 = c.row(i + 4).data() + j0;
            Real *c5 = c.row(i + 5).data() + j0;
            Index t = 0;
            for (; t + 16 <= pw; t += 16)
                micro6x16Avx2(a0, a1, a2, a3, a4, a5, panel + t, bstride,
                              kd, c0 + t, c1 + t, c2 + t, c3 + t,
                              c4 + t, c5 + t);
            for (; t < pw; ++t) {
                c0[t] = fmaChain(a0, panel, bstride, t, kd, c0[t]);
                c1[t] = fmaChain(a1, panel, bstride, t, kd, c1[t]);
                c2[t] = fmaChain(a2, panel, bstride, t, kd, c2[t]);
                c3[t] = fmaChain(a3, panel, bstride, t, kd, c3[t]);
                c4[t] = fmaChain(a4, panel, bstride, t, kd, c4[t]);
                c5[t] = fmaChain(a5, panel, bstride, t, kd, c5[t]);
            }
        }
        for (; i + 4 <= row_end; i += 4) {
            const Real *a0 = a.row(i).data() + k_begin;
            const Real *a1 = a.row(i + 1).data() + k_begin;
            const Real *a2 = a.row(i + 2).data() + k_begin;
            const Real *a3 = a.row(i + 3).data() + k_begin;
            Real *c0 = c.row(i).data() + j0;
            Real *c1 = c.row(i + 1).data() + j0;
            Real *c2 = c.row(i + 2).data() + j0;
            Real *c3 = c.row(i + 3).data() + j0;
            Index t = 0;
            for (; t + 16 <= pw; t += 16)
                micro4x16Avx2(a0, a1, a2, a3, panel + t, bstride, kd,
                              c0 + t, c1 + t, c2 + t, c3 + t);
            for (; t < pw; ++t) {
                c0[t] = fmaChain(a0, panel, bstride, t, kd, c0[t]);
                c1[t] = fmaChain(a1, panel, bstride, t, kd, c1[t]);
                c2[t] = fmaChain(a2, panel, bstride, t, kd, c2[t]);
                c3[t] = fmaChain(a3, panel, bstride, t, kd, c3[t]);
            }
        }
        for (; i < row_end; ++i) {
            const Real *a0 = a.row(i).data() + k_begin;
            Real *c0 = c.row(i).data() + j0;
            Index t = 0;
            for (; t + 16 <= pw; t += 16)
                micro1x16Avx2(a0, panel + t, bstride, kd, c0 + t);
            for (; t < pw; ++t)
                c0[t] = fmaChain(a0, panel, bstride, t, kd, c0[t]);
        }
    }
}

__attribute__((target("avx2,fma"))) void
vecMatRowsAvx2(const Matrix &a, const Matrix &b, Matrix &c,
               Index row_begin, Index row_end)
{
    const Index width = b.cols();
    const Index depth = a.cols();
    for (Index i = row_begin; i < row_end; ++i) {
        const Real *arow = a.row(i).data();
        Real *crow = c.row(i).data();
        Index j = 0;
        for (; j + 32 <= width; j += 32) {
            __m256 s0 = _mm256_loadu_ps(crow + j);
            __m256 s1 = _mm256_loadu_ps(crow + j + 8);
            __m256 s2 = _mm256_loadu_ps(crow + j + 16);
            __m256 s3 = _mm256_loadu_ps(crow + j + 24);
            for (Index k = 0; k < depth; ++k) {
                const Real *brow = b.row(k).data() + j;
                const __m256 av = _mm256_set1_ps(arow[k]);
                s0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), s0);
                s1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8),
                                     s1);
                s2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 16),
                                     s2);
                s3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 24),
                                     s3);
            }
            _mm256_storeu_ps(crow + j, s0);
            _mm256_storeu_ps(crow + j + 8, s1);
            _mm256_storeu_ps(crow + j + 16, s2);
            _mm256_storeu_ps(crow + j + 24, s3);
        }
        for (; j + 8 <= width; j += 8) {
            __m256 s0 = _mm256_loadu_ps(crow + j);
            for (Index k = 0; k < depth; ++k) {
                const __m256 av = _mm256_set1_ps(arow[k]);
                const __m256 bv = _mm256_loadu_ps(b.row(k).data() + j);
                s0 = _mm256_fmadd_ps(av, bv, s0);
            }
            _mm256_storeu_ps(crow + j, s0);
        }
        for (; j < width; ++j) {
            Real s = crow[j];
            for (Index k = 0; k < depth; ++k)
                s = std::fmaf(arow[k], b.row(k).data()[j], s);
            crow[j] = s;
        }
    }
}

template <bool Fma>
__attribute__((target("avx2,fma"))) inline __m256
accStepAvx2(__m256 w, __m256 x, __m256 acc)
{
    return Fma ? _mm256_fmadd_ps(w, x, acc)
               : _mm256_add_ps(acc, _mm256_mul_ps(w, x));
}

template <bool Fma>
__attribute__((target("avx2,fma"))) void
accumulateRowsAvx2(Real *acc, const Real *const *rows, const Real *w,
                   Index n, Index d)
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
            s0 = accStepAvx2<Fma>(wv, _mm256_loadu_ps(x), s0);
            s1 = accStepAvx2<Fma>(wv, _mm256_loadu_ps(x + 8), s1);
            s2 = accStepAvx2<Fma>(wv, _mm256_loadu_ps(x + 16), s2);
            s3 = accStepAvx2<Fma>(wv, _mm256_loadu_ps(x + 24), s3);
        }
        _mm256_storeu_ps(acc + t, s0);
        _mm256_storeu_ps(acc + t + 8, s1);
        _mm256_storeu_ps(acc + t + 16, s2);
        _mm256_storeu_ps(acc + t + 24, s3);
    }
    for (; t + 8 <= d; t += 8) {
        __m256 s0 = _mm256_loadu_ps(acc + t);
        for (Index j = 0; j < n; ++j)
            s0 = accStepAvx2<Fma>(_mm256_set1_ps(w[j]),
                                  _mm256_loadu_ps(rows[j] + t), s0);
        _mm256_storeu_ps(acc + t, s0);
    }
    for (; t < d; ++t) {
        Real s = acc[t];
        for (Index j = 0; j < n; ++j)
            s = accStep<Fma>(w[j], rows[j][t], s);
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

/** Stores the first @p lanes of the 8 narrowed outputs @p v. */
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

/** One k step of the two 4-lane chains of an AVX2 dot block. */
__attribute__((target("avx2,fma"))) inline void
dotStepAvx2(Real qk, __m256 col, __m256d &lo, __m256d &hi)
{
    const __m256d qv = _mm256_set1_pd(qk);
    lo = _mm256_fmadd_pd(qv, _mm256_cvtps_pd(_mm256_castps256_ps128(col)),
                         lo);
    hi = _mm256_fmadd_pd(qv, _mm256_cvtps_pd(_mm256_extractf128_ps(col, 1)),
                         hi);
}

/** AVX2 dot block: rows 0-3 and 4-7 of each block run as two 4-lane
 *  double chains (lo, hi). Lanes past n repeat the last row so every
 *  load stays in bounds; their outputs are never stored. */
__attribute__((target("avx2,fma"))) void
dotRowsAvx2(const Real *q, const Real *const *rows, Index n, Index d,
            Real *out)
{
    for (Index j = 0; j < n; j += kSimdDotRows) {
        const Index lanes = std::min(kSimdDotRows, n - j);
        const Real *r[kSimdDotRows];
        for (Index l = 0; l < kSimdDotRows; ++l)
            r[l] = rows[std::min(j + l, n - 1)];
        __m256d lo = _mm256_setzero_pd();
        __m256d hi = _mm256_setzero_pd();
        Index k = 0;
        for (; k + 4 <= d; k += 4) {
            __m256 c[4];
            transposeRows8x4(r, k, c);
            for (int s = 0; s < 4; ++s)
                dotStepAvx2(q[k + s], c[s], lo, hi);
        }
        for (; k < d; ++k)
            dotStepAvx2(q[k], rowsColumn8(r, k), lo, hi);
        storeLanes8(out + j,
                    _mm256_set_m128(_mm256_cvtpd_ps(hi),
                                    _mm256_cvtpd_ps(lo)),
                    lanes);
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
        vm = _mm512_max_ps(vm, _mm512_loadu_ps(x + j));
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

/** 4 x 64 FMA micro-kernel on one packed panel: 16 zmm accumulators
 *  live across the whole depth; @p lanes (1..64) masks the stores of
 *  a partial last panel (the panel itself is zero-padded, so the
 *  full-width loads and FMAs are safe and the dead lanes are simply
 *  not stored). */
__attribute__((target("avx512f"))) void
micro4x64Avx512(const Real *a0, const Real *a1, const Real *a2,
                const Real *a3, const Real *panel, Index bstride,
                Index depth, Real *c0, Real *c1, Real *c2, Real *c3,
                Index lanes)
{
    __mmask16 m[4];
    for (int g = 0; g < 4; ++g) {
        const Index rem = lanes - g * 16;
        m[g] = rem >= 16 ? static_cast<__mmask16>(0xFFFF)
               : rem <= 0
                   ? static_cast<__mmask16>(0)
                   : static_cast<__mmask16>((1u << rem) - 1u);
    }
#define CTA_LOAD4(r)                                                  \
    __m512 acc##r##0 = _mm512_maskz_loadu_ps(m[0], c##r);             \
    __m512 acc##r##1 = _mm512_maskz_loadu_ps(m[1], c##r + 16);        \
    __m512 acc##r##2 = _mm512_maskz_loadu_ps(m[2], c##r + 32);        \
    __m512 acc##r##3 = _mm512_maskz_loadu_ps(m[3], c##r + 48)
    CTA_LOAD4(0);
    CTA_LOAD4(1);
    CTA_LOAD4(2);
    CTA_LOAD4(3);
#undef CTA_LOAD4
    for (Index k = 0; k < depth; ++k) {
        const Real *bk = panel + k * bstride;
        const __m512 b0 = _mm512_loadu_ps(bk);
        const __m512 b1 = _mm512_loadu_ps(bk + 16);
        const __m512 b2 = _mm512_loadu_ps(bk + 32);
        const __m512 b3 = _mm512_loadu_ps(bk + 48);
        __m512 av;
#define CTA_FMA4(r)                                                   \
    av = _mm512_set1_ps(a##r[k]);                                     \
    acc##r##0 = _mm512_fmadd_ps(av, b0, acc##r##0);                   \
    acc##r##1 = _mm512_fmadd_ps(av, b1, acc##r##1);                   \
    acc##r##2 = _mm512_fmadd_ps(av, b2, acc##r##2);                   \
    acc##r##3 = _mm512_fmadd_ps(av, b3, acc##r##3)
        CTA_FMA4(0);
        CTA_FMA4(1);
        CTA_FMA4(2);
        CTA_FMA4(3);
#undef CTA_FMA4
    }
#define CTA_STORE4(r)                                                 \
    _mm512_mask_storeu_ps(c##r, m[0], acc##r##0);                     \
    _mm512_mask_storeu_ps(c##r + 16, m[1], acc##r##1);                \
    _mm512_mask_storeu_ps(c##r + 32, m[2], acc##r##2);                \
    _mm512_mask_storeu_ps(c##r + 48, m[3], acc##r##3)
    CTA_STORE4(0);
    CTA_STORE4(1);
    CTA_STORE4(2);
    CTA_STORE4(3);
#undef CTA_STORE4
}

/** 6 x 64 variant: 24 zmm accumulators + 4 panel vectors + 1
 *  broadcast — the ceiling of the 32-register file. A taller row
 *  block reads the same 256 panel bytes per k step for 1.5x the
 *  FLOPs of the 4-row kernel; the panel stream out of L2 is what
 *  bounds the 4-row kernel at sizes whose panels outgrow L1, so the
 *  extra rows translate directly into sustained FMA rate. Same one
 *  FMA chain per output element — grouping rows 6-at-a-time instead
 *  of 4 cannot change a bit. */
__attribute__((target("avx512f"))) void
micro6x64Avx512(const Real *a0, const Real *a1, const Real *a2,
                const Real *a3, const Real *a4, const Real *a5,
                const Real *panel, Index bstride, Index depth,
                Real *c0, Real *c1, Real *c2, Real *c3, Real *c4,
                Real *c5, Index lanes)
{
    __mmask16 m[4];
    for (int g = 0; g < 4; ++g) {
        const Index rem = lanes - g * 16;
        m[g] = rem >= 16 ? static_cast<__mmask16>(0xFFFF)
               : rem <= 0
                   ? static_cast<__mmask16>(0)
                   : static_cast<__mmask16>((1u << rem) - 1u);
    }
#define CTA_LOAD4(r)                                                  \
    __m512 acc##r##0 = _mm512_maskz_loadu_ps(m[0], c##r);             \
    __m512 acc##r##1 = _mm512_maskz_loadu_ps(m[1], c##r + 16);        \
    __m512 acc##r##2 = _mm512_maskz_loadu_ps(m[2], c##r + 32);        \
    __m512 acc##r##3 = _mm512_maskz_loadu_ps(m[3], c##r + 48)
    CTA_LOAD4(0);
    CTA_LOAD4(1);
    CTA_LOAD4(2);
    CTA_LOAD4(3);
    CTA_LOAD4(4);
    CTA_LOAD4(5);
#undef CTA_LOAD4
    for (Index k = 0; k < depth; ++k) {
        const Real *bk = panel + k * bstride;
        const __m512 b0 = _mm512_loadu_ps(bk);
        const __m512 b1 = _mm512_loadu_ps(bk + 16);
        const __m512 b2 = _mm512_loadu_ps(bk + 32);
        const __m512 b3 = _mm512_loadu_ps(bk + 48);
        __m512 av;
#define CTA_FMA4(r)                                                   \
    av = _mm512_set1_ps(a##r[k]);                                     \
    acc##r##0 = _mm512_fmadd_ps(av, b0, acc##r##0);                   \
    acc##r##1 = _mm512_fmadd_ps(av, b1, acc##r##1);                   \
    acc##r##2 = _mm512_fmadd_ps(av, b2, acc##r##2);                   \
    acc##r##3 = _mm512_fmadd_ps(av, b3, acc##r##3)
        CTA_FMA4(0);
        CTA_FMA4(1);
        CTA_FMA4(2);
        CTA_FMA4(3);
        CTA_FMA4(4);
        CTA_FMA4(5);
#undef CTA_FMA4
    }
#define CTA_STORE4(r)                                                 \
    _mm512_mask_storeu_ps(c##r, m[0], acc##r##0);                     \
    _mm512_mask_storeu_ps(c##r + 16, m[1], acc##r##1);                \
    _mm512_mask_storeu_ps(c##r + 32, m[2], acc##r##2);                \
    _mm512_mask_storeu_ps(c##r + 48, m[3], acc##r##3)
    CTA_STORE4(0);
    CTA_STORE4(1);
    CTA_STORE4(2);
    CTA_STORE4(3);
    CTA_STORE4(4);
    CTA_STORE4(5);
#undef CTA_STORE4
}

/** 1 x 64 variant for the row tail. */
__attribute__((target("avx512f"))) void
micro1x64Avx512(const Real *a0, const Real *panel, Index bstride,
                Index depth, Real *c0, Index lanes)
{
    __mmask16 m[4];
    for (int g = 0; g < 4; ++g) {
        const Index rem = lanes - g * 16;
        m[g] = rem >= 16 ? static_cast<__mmask16>(0xFFFF)
               : rem <= 0
                   ? static_cast<__mmask16>(0)
                   : static_cast<__mmask16>((1u << rem) - 1u);
    }
    __m512 acc0 = _mm512_maskz_loadu_ps(m[0], c0);
    __m512 acc1 = _mm512_maskz_loadu_ps(m[1], c0 + 16);
    __m512 acc2 = _mm512_maskz_loadu_ps(m[2], c0 + 32);
    __m512 acc3 = _mm512_maskz_loadu_ps(m[3], c0 + 48);
    for (Index k = 0; k < depth; ++k) {
        const Real *bk = panel + k * bstride;
        const __m512 av = _mm512_set1_ps(a0[k]);
        acc0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bk), acc0);
        acc1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bk + 16), acc1);
        acc2 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bk + 32), acc2);
        acc3 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bk + 48), acc3);
    }
    _mm512_mask_storeu_ps(c0, m[0], acc0);
    _mm512_mask_storeu_ps(c0 + 16, m[1], acc1);
    _mm512_mask_storeu_ps(c0 + 32, m[2], acc2);
    _mm512_mask_storeu_ps(c0 + 48, m[3], acc3);
}

void
gemmRowsPackedAvx512(const Matrix &a, const Real *packed, Index width,
                     Matrix &c, Index row_begin, Index row_end,
                     Index k_begin, Index k_end, Index bstride)
{
    const Index depth = a.cols();
    const Index panels = (width + kW - 1) / kW;
    const Index kd = k_end - k_begin;
    // Panel p starts kW floats into the previous one when the
    // "pack" is B's own row-major storage (bstride == width), and
    // a full depth x kW block later in a simdPackB image.
    const Index panel_step = bstride == kW ? depth * kW : kW;
    for (Index p = 0; p < panels; ++p) {
        const Real *panel =
            packed + p * panel_step + k_begin * bstride;
        const Index j0 = p * kW;
        const Index pw = std::min<Index>(kW, width - j0);
        Index i = row_begin;
        for (; i + 6 <= row_end; i += 6)
            micro6x64Avx512(a.row(i).data() + k_begin,
                            a.row(i + 1).data() + k_begin,
                            a.row(i + 2).data() + k_begin,
                            a.row(i + 3).data() + k_begin,
                            a.row(i + 4).data() + k_begin,
                            a.row(i + 5).data() + k_begin,
                            panel, bstride, kd, c.row(i).data() + j0,
                            c.row(i + 1).data() + j0,
                            c.row(i + 2).data() + j0,
                            c.row(i + 3).data() + j0,
                            c.row(i + 4).data() + j0,
                            c.row(i + 5).data() + j0, pw);
        for (; i + 4 <= row_end; i += 4)
            micro4x64Avx512(a.row(i).data() + k_begin,
                            a.row(i + 1).data() + k_begin,
                            a.row(i + 2).data() + k_begin,
                            a.row(i + 3).data() + k_begin,
                            panel, bstride, kd, c.row(i).data() + j0,
                            c.row(i + 1).data() + j0,
                            c.row(i + 2).data() + j0,
                            c.row(i + 3).data() + j0, pw);
        for (; i < row_end; ++i)
            micro1x64Avx512(a.row(i).data() + k_begin, panel, bstride, kd,
                            c.row(i).data() + j0, pw);
    }
}

__attribute__((target("avx512f"))) void
vecMatRowsAvx512(const Matrix &a, const Matrix &b, Matrix &c,
                 Index row_begin, Index row_end)
{
    const Index width = b.cols();
    const Index depth = a.cols();
    for (Index i = row_begin; i < row_end; ++i) {
        const Real *arow = a.row(i).data();
        Real *crow = c.row(i).data();
        Index j = 0;
        for (; j + 64 <= width; j += 64) {
            __m512 s0 = _mm512_loadu_ps(crow + j);
            __m512 s1 = _mm512_loadu_ps(crow + j + 16);
            __m512 s2 = _mm512_loadu_ps(crow + j + 32);
            __m512 s3 = _mm512_loadu_ps(crow + j + 48);
            for (Index k = 0; k < depth; ++k) {
                const Real *brow = b.row(k).data() + j;
                const __m512 av = _mm512_set1_ps(arow[k]);
                s0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow), s0);
                s1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow + 16),
                                     s1);
                s2 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow + 32),
                                     s2);
                s3 = _mm512_fmadd_ps(av, _mm512_loadu_ps(brow + 48),
                                     s3);
            }
            _mm512_storeu_ps(crow + j, s0);
            _mm512_storeu_ps(crow + j + 16, s1);
            _mm512_storeu_ps(crow + j + 32, s2);
            _mm512_storeu_ps(crow + j + 48, s3);
        }
        for (; j + 16 <= width; j += 16) {
            __m512 s0 = _mm512_loadu_ps(crow + j);
            for (Index k = 0; k < depth; ++k) {
                const __m512 av = _mm512_set1_ps(arow[k]);
                const __m512 bv = _mm512_loadu_ps(b.row(k).data() + j);
                s0 = _mm512_fmadd_ps(av, bv, s0);
            }
            _mm512_storeu_ps(crow + j, s0);
        }
        if (j < width) {
            const __mmask16 m =
                static_cast<__mmask16>((1u << (width - j)) - 1u);
            __m512 s0 = _mm512_maskz_loadu_ps(m, crow + j);
            for (Index k = 0; k < depth; ++k) {
                const __m512 av = _mm512_set1_ps(arow[k]);
                const __m512 bv =
                    _mm512_maskz_loadu_ps(m, b.row(k).data() + j);
                s0 = _mm512_fmadd_ps(av, bv, s0);
            }
            _mm512_mask_storeu_ps(crow + j, m, s0);
        }
    }
}

template <bool Fma>
__attribute__((target("avx512f"))) inline __m512
accStepAvx512(__m512 w, __m512 x, __m512 acc)
{
    return Fma ? _mm512_fmadd_ps(w, x, acc)
               : _mm512_add_ps(acc, _mm512_mul_ps(w, x));
}

/** Column blocks of 64 (four zmm accumulators), then of 16, then
 *  one masked tail; each block's accumulators live across all n
 *  rows. */
template <bool Fma>
__attribute__((target("avx512f"))) void
accumulateRowsAvx512(Real *acc, const Real *const *rows, const Real *w,
                     Index n, Index d)
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
            s0 = accStepAvx512<Fma>(wv, _mm512_loadu_ps(x), s0);
            s1 = accStepAvx512<Fma>(wv, _mm512_loadu_ps(x + 16), s1);
            s2 = accStepAvx512<Fma>(wv, _mm512_loadu_ps(x + 32), s2);
            s3 = accStepAvx512<Fma>(wv, _mm512_loadu_ps(x + 48), s3);
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
            s0 = accStepAvx512<Fma>(_mm512_set1_ps(w[j]),
                                    _mm512_maskz_loadu_ps(m, rows[j] + t),
                                    s0);
        _mm512_mask_storeu_ps(acc + t, m, s0);
    }
}

// Exact float -> double widening and the final double -> float
// narrowing of 8 lanes. The merge-masked forms with an all-ones mask
// compile to the plain instructions; the unmasked intrinsics trip
// GCC 12's -Wmaybe-uninitialized inside the intrinsic headers.

__attribute__((target("avx512f"))) inline __m512d
widen8(__m256 x)
{
    return _mm512_mask_cvtps_pd(_mm512_setzero_pd(), 0xFF, x);
}

__attribute__((target("avx512f"))) inline __m256
narrow8(__m512d x)
{
    return _mm512_mask_cvtpd_ps(_mm256_setzero_ps(), 0xFF, x);
}

/** One k step of an AVX-512 dot block's 8-lane chain. */
__attribute__((target("avx512f"))) inline __m512d
dotStepAvx512(Real qk, __m256 col, __m512d acc)
{
    return _mm512_fmadd_pd(_mm512_set1_pd(qk), widen8(col), acc);
}

/** AVX-512 dot blocks, two at a time: 16 rows as two independent
 *  8-lane chains. Lanes past n repeat the last row so every load
 *  stays in bounds; their outputs are never stored. */
__attribute__((target("avx512f"))) void
dotRowsAvx512(const Real *q, const Real *const *rows, Index n, Index d,
              Real *out)
{
    constexpr Index kPair = 2 * kSimdDotRows;
    for (Index j = 0; j < n; j += kPair) {
        const Real *r[kPair];
        for (Index l = 0; l < kPair; ++l)
            r[l] = rows[std::min(j + l, n - 1)];
        __m512d acc0 = _mm512_setzero_pd();
        __m512d acc1 = _mm512_setzero_pd();
        Index k = 0;
        for (; k + 4 <= d; k += 4) {
            // Fetch the next 16 rows one cache line ahead of use: the
            // rows sit on scattered arena pages, which the hardware
            // prefetcher does not follow from one row to the next.
            if (k % 16 == 0)
                for (Index l = 0; l < kPair; ++l)
                    _mm_prefetch(reinterpret_cast<const char *>(
                                     rows[std::min(j + kPair + l, n - 1)] +
                                     k),
                                 _MM_HINT_T0);
            __m256 c0[4], c1[4];
            transposeRows8x4(r, k, c0);
            transposeRows8x4(r + kSimdDotRows, k, c1);
            for (int s = 0; s < 4; ++s) {
                acc0 = dotStepAvx512(q[k + s], c0[s], acc0);
                acc1 = dotStepAvx512(q[k + s], c1[s], acc1);
            }
        }
        for (; k < d; ++k) {
            acc0 = dotStepAvx512(q[k], rowsColumn8(r, k), acc0);
            acc1 = dotStepAvx512(q[k], rowsColumn8(r + kSimdDotRows, k),
                                 acc1);
        }
        storeLanes8(out + j, narrow8(acc0), std::min(kSimdDotRows, n - j));
        if (n - j > kSimdDotRows)
            storeLanes8(out + j + kSimdDotRows, narrow8(acc1),
                        std::min(kSimdDotRows, n - j - kSimdDotRows));
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

void
gemmRowsPackedNeon(const Matrix &a, const Real *packed, Index width,
                   Matrix &c, Index row_begin, Index row_end,
                   Index k_begin, Index k_end, Index bstride)
{
    const Index depth = a.cols();
    const Index panels = (width + kW - 1) / kW;
    const Index kd = k_end - k_begin;
    // Panel p starts kW floats into the previous one when the
    // "pack" is B's own row-major storage (bstride == width), and
    // a full depth x kW block later in a simdPackB image.
    const Index panel_step = bstride == kW ? depth * kW : kW;
    for (Index p = 0; p < panels; ++p) {
        const Real *panel =
            packed + p * panel_step + k_begin * bstride;
        const Index j0 = p * kW;
        const Index pw = std::min<Index>(kW, width - j0);
        for (Index i = row_begin; i < row_end; ++i) {
            const Real *arow = a.row(i).data() + k_begin;
            Real *crow = c.row(i).data() + j0;
            Index t = 0;
            for (; t + 16 <= pw; t += 16) {
                float32x4_t s0 = vld1q_f32(crow + t);
                float32x4_t s1 = vld1q_f32(crow + t + 4);
                float32x4_t s2 = vld1q_f32(crow + t + 8);
                float32x4_t s3 = vld1q_f32(crow + t + 12);
                for (Index k = 0; k < kd; ++k) {
                    const Real *bk = panel + k * bstride + t;
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
                crow[t] = fmaChain(arow, panel, bstride, t, kd, crow[t]);
        }
    }
}

void
vecMatRowsNeon(const Matrix &a, const Matrix &b, Matrix &c,
               Index row_begin, Index row_end)
{
    const Index width = b.cols();
    const Index depth = a.cols();
    for (Index i = row_begin; i < row_end; ++i) {
        const Real *arow = a.row(i).data();
        Real *crow = c.row(i).data();
        Index j = 0;
        for (; j + 16 <= width; j += 16) {
            float32x4_t s0 = vld1q_f32(crow + j);
            float32x4_t s1 = vld1q_f32(crow + j + 4);
            float32x4_t s2 = vld1q_f32(crow + j + 8);
            float32x4_t s3 = vld1q_f32(crow + j + 12);
            for (Index k = 0; k < depth; ++k) {
                const Real *brow = b.row(k).data() + j;
                const Real av = arow[k];
                s0 = vfmaq_n_f32(s0, vld1q_f32(brow), av);
                s1 = vfmaq_n_f32(s1, vld1q_f32(brow + 4), av);
                s2 = vfmaq_n_f32(s2, vld1q_f32(brow + 8), av);
                s3 = vfmaq_n_f32(s3, vld1q_f32(brow + 12), av);
            }
            vst1q_f32(crow + j, s0);
            vst1q_f32(crow + j + 4, s1);
            vst1q_f32(crow + j + 8, s2);
            vst1q_f32(crow + j + 12, s3);
        }
        for (; j < width; ++j) {
            Real s = crow[j];
            for (Index k = 0; k < depth; ++k)
                s = std::fmaf(arow[k], b.row(k).data()[j], s);
            crow[j] = s;
        }
    }
}

template <bool Fma>
inline float32x4_t
accStepNeon(Real w, float32x4_t x, float32x4_t acc)
{
    return Fma ? vfmaq_n_f32(acc, x, w)
               : vaddq_f32(acc, vmulq_n_f32(x, w));
}

template <bool Fma>
void
accumulateRowsNeon(Real *acc, const Real *const *rows, const Real *w,
                   Index n, Index d)
{
    Index t = 0;
    for (; t + 16 <= d; t += 16) {
        float32x4_t s0 = vld1q_f32(acc + t);
        float32x4_t s1 = vld1q_f32(acc + t + 4);
        float32x4_t s2 = vld1q_f32(acc + t + 8);
        float32x4_t s3 = vld1q_f32(acc + t + 12);
        for (Index j = 0; j < n; ++j) {
            const Real *x = rows[j] + t;
            s0 = accStepNeon<Fma>(w[j], vld1q_f32(x), s0);
            s1 = accStepNeon<Fma>(w[j], vld1q_f32(x + 4), s1);
            s2 = accStepNeon<Fma>(w[j], vld1q_f32(x + 8), s2);
            s3 = accStepNeon<Fma>(w[j], vld1q_f32(x + 12), s3);
        }
        vst1q_f32(acc + t, s0);
        vst1q_f32(acc + t + 4, s1);
        vst1q_f32(acc + t + 8, s2);
        vst1q_f32(acc + t + 12, s3);
    }
    for (; t < d; ++t) {
        Real s = acc[t];
        for (Index j = 0; j < n; ++j)
            s = accStep<Fma>(w[j], rows[j][t], s);
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
        return __builtin_cpu_supports("avx512f");
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
simdPackB(const Matrix &b, std::vector<Real> &packed)
{
    const Index depth = b.rows();
    const Index width = b.cols();
    const Index panels = (width + kW - 1) / kW;
    packed.assign(static_cast<std::size_t>(panels) *
                      static_cast<std::size_t>(depth) *
                      static_cast<std::size_t>(kW),
                  0.0f);
    for (Index p = 0; p < panels; ++p) {
        Real *panel = packed.data() + p * depth * kW;
        const Index j0 = p * kW;
        const Index pw = std::min<Index>(kW, width - j0);
        for (Index k = 0; k < depth; ++k)
            std::memcpy(panel + k * kW, b.row(k).data() + j0,
                        static_cast<std::size_t>(pw) * sizeof(Real));
    }
}

void
simdGemmRowsPacked(const Matrix &a, const Real *packed, Index width,
                   Matrix &c, Index row_begin, Index row_end,
                   Index k_begin, Index k_end, Index bstride)
{
    if (k_end < 0)
        k_end = a.cols();
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        gemmRowsPackedAvx512(a, packed, width, c, row_begin, row_end,
                             k_begin, k_end, bstride);
        return;
    case SimdLevel::Avx2:
        gemmRowsPackedAvx2(a, packed, width, c, row_begin, row_end,
                           k_begin, k_end, bstride);
        return;
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        gemmRowsPackedNeon(a, packed, width, c, row_begin, row_end,
                           k_begin, k_end, bstride);
        return;
#endif
    default:
        gemmRowsPackedScalar(a, packed, width, c, row_begin, row_end,
                             k_begin, k_end, bstride);
    }
}

void
simdVecMatRows(const Matrix &a, const Matrix &b, Matrix &c,
               Index row_begin, Index row_end)
{
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        vecMatRowsAvx512(a, b, c, row_begin, row_end);
        return;
    case SimdLevel::Avx2:
        vecMatRowsAvx2(a, b, c, row_begin, row_end);
        return;
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        vecMatRowsNeon(a, b, c, row_begin, row_end);
        return;
#endif
    default:
        vecMatRowsScalar(a, b, c, row_begin, row_end);
    }
}

void
simdFmaRows(Real *acc, const Real *const *rows, const Real *w, Index n,
            Index d)
{
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        accumulateRowsAvx512<true>(acc, rows, w, n, d);
        return;
    case SimdLevel::Avx2:
        accumulateRowsAvx2<true>(acc, rows, w, n, d);
        return;
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        accumulateRowsNeon<true>(acc, rows, w, n, d);
        return;
#endif
    default:
        accumulateRowsScalar<true>(acc, rows, w, n, d);
    }
}

void
simdMulAddRows(Real *acc, const Real *const *rows, const Real *w,
               Index n, Index d)
{
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        accumulateRowsAvx512<false>(acc, rows, w, n, d);
        return;
    case SimdLevel::Avx2:
        accumulateRowsAvx2<false>(acc, rows, w, n, d);
        return;
#endif
#if CTA_SIMD_NEON
    case SimdLevel::Neon:
        accumulateRowsNeon<false>(acc, rows, w, n, d);
        return;
#endif
    default:
        accumulateRowsScalar<false>(acc, rows, w, n, d);
    }
}

void
simdDotRows(const Real *q, const Real *const *rows, Index n, Index d,
            Real *out)
{
    switch (activeSimdLevel()) {
#if CTA_SIMD_X86
    case SimdLevel::Avx512:
        dotRowsAvx512(q, rows, n, d, out);
        return;
    case SimdLevel::Avx2:
        dotRowsAvx2(q, rows, n, d, out);
        return;
#endif
    default:
        dotRowsScalar(q, rows, n, d, out);
    }
}

} // namespace cta::core
