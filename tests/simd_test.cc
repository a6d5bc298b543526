/**
 * @file
 * Tests for the runtime-dispatched SIMD layer (core/simd.h): level
 * detection and forcing, bitwise parity of every vector primitive
 * against its scalar reference at every supported ISA level (the
 * lane-per-row dot and multi-row accumulate kernels included, on
 * ragged shapes, scattered rows and non-finite inputs), the FP32 dot
 * chain's stated bound against the double chain, and the one
 * FMA-chain-per-element contract of the GEMM: bit-identical across
 * ISA levels, thread counts, row blocks, ragged column blocks, depth
 * slices and the naive backend. The in-tree GELU is bit-identical
 * across levels, within its bound of the double-precision formula
 * over 2^24 samples and equal to the libm formula on special values.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/matrix.h"
#include "core/rng.h"
#include "core/simd.h"

namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;
using cta::core::Rng;
using cta::core::SimdBackend;
using cta::core::SimdLevel;

/** RAII guard forcing a SIMD level for one scope. */
class ScopedSimdLevel
{
  public:
    explicit ScopedSimdLevel(SimdLevel level)
        : previous_(cta::core::setSimdLevel(level))
    {
    }
    ~ScopedSimdLevel() { cta::core::setSimdLevel(previous_); }

  private:
    SimdLevel previous_;
};

std::vector<SimdLevel>
supportedLevels()
{
    std::vector<SimdLevel> levels;
    for (const SimdLevel level :
         {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512,
          SimdLevel::Neon})
        if (cta::core::simdLevelSupported(level))
            levels.push_back(level);
    return levels;
}

/** Lengths hitting full vectors, partial tails and sub-vector rows
 *  for every lane width (4, 8, 16). */
const std::vector<Index> kLengths = {1,  3,  4,  7,  8,   15,
                                     16, 17, 31, 64, 100, 257};

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    return std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) *
                           sizeof(Real)) == 0;
}

std::vector<Real>
randomVec(Index n, Rng &rng)
{
    const Matrix m = Matrix::randomNormal(1, n, rng);
    return {m.data(), m.data() + n};
}

TEST(SimdLevelTest, DetectionAndNames)
{
    EXPECT_TRUE(cta::core::simdLevelSupported(SimdLevel::Scalar));
    EXPECT_TRUE(
        cta::core::simdLevelSupported(cta::core::detectSimdLevel()));
    EXPECT_STREQ(cta::core::simdLevelName(SimdLevel::Scalar),
                 "scalar");
    EXPECT_STREQ(cta::core::simdLevelName(SimdLevel::Avx2), "avx2");
    EXPECT_STREQ(cta::core::simdLevelName(SimdLevel::Avx512),
                 "avx512");
    EXPECT_STREQ(cta::core::simdLevelName(SimdLevel::Neon), "neon");
}

TEST(SimdLevelTest, SetSimdLevelRoundTrips)
{
    const SimdLevel before = cta::core::activeSimdLevel();
    {
        ScopedSimdLevel guard(SimdLevel::Scalar);
        EXPECT_EQ(cta::core::activeSimdLevel(), SimdLevel::Scalar);
    }
    EXPECT_EQ(cta::core::activeSimdLevel(), before);
}

TEST(SimdLevelDeathTest, ForcingAnUnsupportedLevelIsFatal)
{
    // x86 hosts cannot run NEON and vice versa, so one of the two is
    // always unsupported and must be rejected loudly.
    const SimdLevel unsupported =
        cta::core::simdLevelSupported(SimdLevel::Neon)
            ? SimdLevel::Avx2
            : SimdLevel::Neon;
    if (cta::core::simdLevelSupported(unsupported))
        GTEST_SKIP() << "host supports every level";
    EXPECT_EXIT(cta::core::setSimdLevel(unsupported),
                ::testing::ExitedWithCode(1), "not supported");
}

TEST(SimdPrimitiveTest, RowMaxMatchesScalarScanAtEveryLevel)
{
    Rng rng(5);
    for (const Index n : kLengths) {
        const auto x = randomVec(n, rng);
        Real ref = x[0];
        for (Index j = 1; j < n; ++j)
            ref = std::max(ref, x[static_cast<std::size_t>(j)]);
        for (const SimdLevel level : supportedLevels()) {
            ScopedSimdLevel guard(level);
            EXPECT_EQ(cta::core::simdRowMax(x.data(), n), ref)
                << "n=" << n << " level="
                << cta::core::simdLevelName(level);
        }
    }
}

TEST(SimdPrimitiveTest, RowMaxOfAllNegativeInfinityIsNegativeInfinity)
{
    // The fully-masked softmax row guard (nn/softmax.cc) depends on
    // this exact value coming back.
    constexpr Real kNegInf = -std::numeric_limits<Real>::infinity();
    for (const Index n : kLengths) {
        const std::vector<Real> x(static_cast<std::size_t>(n),
                                  kNegInf);
        for (const SimdLevel level : supportedLevels()) {
            ScopedSimdLevel guard(level);
            EXPECT_EQ(cta::core::simdRowMax(x.data(), n), kNegInf);
        }
    }
}

TEST(SimdPrimitiveTest, ElementwiseKernelsMatchScalarAtEveryLevel)
{
    Rng rng(7);
    const Real w = 1.37f, s = 0.73f;
    for (const Index n : kLengths) {
        const auto x = randomVec(n, rng);
        const auto acc0 = randomVec(n, rng);
        const auto sn = static_cast<std::size_t>(n);

        // Scalar references, one rounding sequence per element.
        std::vector<Real> ref_scale(x), ref_add(acc0), ref_fma(acc0);
        for (std::size_t j = 0; j < sn; ++j) {
            ref_scale[j] *= s;
            ref_add[j] += x[j];
            ref_fma[j] = std::fma(w, x[j], ref_fma[j]);
        }

        for (const SimdLevel level : supportedLevels()) {
            ScopedSimdLevel guard(level);
            std::vector<Real> got(x);
            cta::core::simdScaleRow(got.data(), n, s);
            EXPECT_EQ(got, ref_scale)
                << "scale n=" << n << " level="
                << cta::core::simdLevelName(level);

            got = acc0;
            cta::core::simdAddRow(got.data(), x.data(), n);
            EXPECT_EQ(got, ref_add) << "add n=" << n;

            // One weighted row through the multi-row accumulator.
            const Real *xrow = x.data();
            got = acc0;
            cta::core::simdFmaRows(got.data(), &xrow, &w, 1, n);
            EXPECT_EQ(got, ref_fma) << "fma n=" << n;
        }
    }
}

/** Row counts around the 8-row dot block and depths around its
 *  4-step transpose, including one-element rows. */
const std::vector<Index> kDotRows = {1, 7, 8, 9, 63, 65};
const std::vector<Index> kDotDepths = {1, 7, 64, 65};

/**
 * Same value bit for bit, except that two NaNs match whatever their
 * sign or payload: vector and scalar units may propagate different
 * NaN bits, and nothing downstream reads them.
 */
bool
sameValues(const std::vector<Real> &a, const std::vector<Real> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::isnan(a[i]) && std::isnan(b[i]))
            continue;
        if (std::memcmp(&a[i], &b[i], sizeof(Real)) != 0)
            return false;
    }
    return true;
}

/**
 * @p n rows of @p d floats scattered through one buffer: stored in
 * reverse order, each at an odd float offset with a gap after it,
 * so no row is vector-aligned or adjacent to its neighbour in the
 * row list. @p poison (when set) plants +inf, -inf and NaN.
 */
struct ScatteredRows
{
    std::vector<Real> storage;
    std::vector<const Real *> rows;

    ScatteredRows(Index n, Index d, Rng &rng, bool poison)
    {
        const Index stride = d + 3;
        storage = randomVec(n * stride + 1, rng);
        if (poison) {
            constexpr Real kInf = std::numeric_limits<Real>::infinity();
            // Sparse enough that most outputs stay non-NaN: a row
            // meets one infinity, both signs, a NaN, or none.
            for (std::size_t i = 0; i < storage.size(); i += 37)
                storage[i] = (i / 37) % 3 == 0   ? kInf
                             : (i / 37) % 3 == 1 ? -kInf
                                                 : std::nanf("");
        }
        for (Index j = 0; j < n; ++j)
            rows.push_back(storage.data() + 1 + (n - 1 - j) * stride);
    }
};

/** The dot-product contract's element: one FP32 fmaf chain, k
 *  ascending from +0. */
Real
fp32Dot(const Real *q, const Real *row, Index d)
{
    Real acc = 0;
    for (Index k = 0; k < d; ++k)
        acc = std::fmaf(q[k], row[k], acc);
    return acc;
}

std::vector<Real>
dotRowsOf(const std::vector<Real> &q, const std::vector<const Real *> &rows,
          Index d)
{
    std::vector<Real> out(rows.size());
    cta::core::simdDotRows(q.data(), rows.data(),
                           static_cast<Index>(rows.size()), d, out.data());
    return out;
}

TEST(SimdDotRowsTest, MatchesFp32ChainAtEveryLevel)
{
    Rng rng(17);
    for (const bool poison : {false, true}) {
        for (const Index n : kDotRows) {
            for (const Index d : kDotDepths) {
                const ScatteredRows b(n, d, rng, poison);
                const auto q = randomVec(d, rng);
                std::vector<Real> ref;
                for (const Real *row : b.rows)
                    ref.push_back(fp32Dot(q.data(), row, d));
                for (const SimdLevel level : supportedLevels()) {
                    ScopedSimdLevel guard(level);
                    EXPECT_TRUE(sameValues(dotRowsOf(q, b.rows, d), ref))
                        << "n=" << n << " d=" << d << " poison=" << poison
                        << " level=" << cta::core::simdLevelName(level);
                }
            }
        }
    }
}

TEST(SimdDotRowsTest, NonFiniteRowsGiveSameBitsAtEveryLevel)
{
    // Rows holding +inf, -inf, both, or NaN (and the products
    // inf * 0 that make a NaN of their own): every level must return
    // the scalar level's bits, NaN payloads and signs included.
    constexpr Real kInf = std::numeric_limits<Real>::infinity();
    const Real kNaN = std::nanf("");
    constexpr Index d = 64;
    Rng rng(31);
    for (const Index n : {1, 7, 16, 33}) {
        ScatteredRows b(n, d, rng, /*poison=*/false);
        auto q = randomVec(d, rng);
        q[5] = 0.0f; // inf * 0 in any row with an infinity at k = 5
        for (Index j = 0; j < n; ++j) {
            Real *row = const_cast<Real *>(b.rows[static_cast<std::size_t>(j)]);
            if (j % 5 == 0)
                row[j % d] = kInf;
            else if (j % 5 == 1)
                row[(3 * j) % d] = -kInf;
            else if (j % 5 == 2)
                row[1] = kInf, row[d - 2] = -kInf;
            else if (j % 5 == 3)
                row[(7 * j) % d] = kNaN;
            else
                row[5] = -kInf;
        }
        std::vector<Real> ref;
        {
            ScopedSimdLevel guard(SimdLevel::Scalar);
            ref = dotRowsOf(q, b.rows, d);
        }
        for (const SimdLevel level : supportedLevels()) {
            ScopedSimdLevel guard(level);
            const auto got = dotRowsOf(q, b.rows, d);
            EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                                  ref.size() * sizeof(Real)),
                      0)
                << "n=" << n
                << " level=" << cta::core::simdLevelName(level);
        }
    }
}

/** The exact reference of kDotChainBound64: the same k-ascending
 *  chain in double (the product of two floats is exact there). */
double
doubleDot(const Real *q, const Real *row, Index d)
{
    double acc = 0;
    for (Index k = 0; k < d; ++k)
        acc += static_cast<double>(q[k]) * row[k];
    return acc;
}

TEST(SimdDotRowsTest, Fp32ChainWithinStatedBoundOfWideChain)
{
    // The numeric contract of core/simd.h at d = 64: the FP32 chain
    // stays within kDotChainBound64 * sum_k |q_k r_k| of the double
    // chain, over random rows and over rows built to cancel, where
    // the result is tiny against the sum of magnitudes.
    constexpr Index d = 64, n = 67;
    Rng rng(37);
    double worst = 0;
    for (const bool cancel : {false, true}) {
        for (int trial = 0; trial < 40; ++trial) {
            ScatteredRows b(n, d, rng, /*poison=*/false);
            const auto q = randomVec(d, rng);
            if (cancel) {
                // Pair k with k + 32: r[k + 32] undoes q[k] r[k] up
                // to one float rounding, over magnitudes ~1e3.
                for (const Real *cr : b.rows) {
                    Real *row = const_cast<Real *>(cr);
                    for (Index k = 0; k < d / 2; ++k) {
                        row[k] *= 1000.0f;
                        row[k + d / 2] = -q[k] * row[k] / q[k + d / 2];
                    }
                }
            }
            for (const SimdLevel level : supportedLevels()) {
                ScopedSimdLevel guard(level);
                const auto got = dotRowsOf(q, b.rows, d);
                for (Index j = 0; j < n; ++j) {
                    const Real *row = b.rows[static_cast<std::size_t>(j)];
                    double magnitude = 0;
                    for (Index k = 0; k < d; ++k)
                        magnitude += std::fabs(static_cast<double>(q[k]) *
                                               row[k]);
                    const double err =
                        std::fabs(got[static_cast<std::size_t>(j)] -
                                  doubleDot(q.data(), row, d));
                    ASSERT_LE(err, cta::core::kDotChainBound64 * magnitude)
                        << "row " << j << " cancel=" << cancel
                        << " level=" << cta::core::simdLevelName(level);
                    worst = std::max(worst, err / magnitude);
                }
            }
        }
    }
    char text[32];
    std::snprintf(text, sizeof(text), "%.3g", worst);
    RecordProperty("max_error_over_magnitude", text);
}

TEST(SimdAccumulateRowsTest, MatchesScalarChainsAtEveryLevel)
{
    // The multi-row accumulator must equal the scalar fma chains,
    // rows ascending, at every level, column tail and row count.
    Rng rng(23);
    for (const bool poison : {false, true}) {
        for (const Index n : kDotRows) {
            for (const Index d : kDotDepths) {
                const ScatteredRows x(n, d, rng, poison);
                const auto w = randomVec(n, rng);
                const auto acc0 = randomVec(d, rng);
                const auto sd = static_cast<std::size_t>(d);
                std::vector<Real> ref(acc0);
                for (Index j = 0; j < n; ++j) {
                    const Real wj = w[static_cast<std::size_t>(j)];
                    const Real *xj = x.rows[static_cast<std::size_t>(j)];
                    for (std::size_t t = 0; t < sd; ++t)
                        ref[t] = std::fma(wj, xj[t], ref[t]);
                }
                for (const SimdLevel level : supportedLevels()) {
                    ScopedSimdLevel guard(level);
                    std::vector<Real> got(acc0);
                    cta::core::simdFmaRows(got.data(), x.rows.data(),
                                           w.data(), n, d);
                    EXPECT_TRUE(sameValues(got, ref))
                        << "n=" << n << " d=" << d << " poison=" << poison
                        << " level=" << cta::core::simdLevelName(level);
                }
            }
        }
    }
}

/** Shapes covering full and ragged column blocks, the 6/4/1 row
 *  blocks, short A, and the pooled column-blocked, depth-sliced path:
 *  every shape from 70 x 300 x 200 on is past the 4M-MAC serial
 *  cutover, with widths straddling the 256-column block and the FFN's
 *  4096 and depths straddling the 256-deep slice. */
struct GemmShape
{
    Index m, k, n;
};

const std::vector<GemmShape> kGemmShapes = {
    {1, 8, 16},     {2, 17, 63},    {3, 64, 64},    {4, 16, 64},
    {5, 33, 65},    {17, 64, 128},  {64, 64, 64},   {70, 128, 96},
    {1, 1024, 1000}, {70, 300, 200}, {70, 255, 255}, {70, 257, 256},
    {70, 513, 257}, {22, 255, 4096}, {22, 257, 4100},
};

TEST(SimdGemmTest, BitIdenticalAcrossLevelsThreadsAndRouting)
{
    Rng rng(11);
    const auto levels = supportedLevels();
    for (const auto &[m, k, n] : kGemmShapes) {
        const Matrix a = Matrix::randomNormal(m, k, rng);
        const Matrix b = Matrix::randomNormal(k, n, rng);

        // Reference: one serial, unblocked scalar call — the plain
        // k-ascending fmaf chain of every element.
        Matrix ref(m, n);
        {
            ScopedSimdLevel guard(SimdLevel::Scalar);
            cta::core::simdGemmRows(a, b, ref, 0, m);
        }
        for (const SimdLevel level : levels) {
            ScopedSimdLevel guard(level);
            for (const int threads : {1, 2, 8}) {
                SimdBackend backend(threads);
                Matrix out(m, n);
                backend.gemm(a, b, out);
                EXPECT_TRUE(bitIdentical(out, ref))
                    << "gemm " << m << "x" << k << "x" << n
                    << " level=" << cta::core::simdLevelName(level)
                    << " threads=" << threads;
            }
        }
    }
}

TEST(SimdGemmTest, BitIdenticalToNaiveReference)
{
    // Both backends run one k-ascending fmaf chain per element, so the
    // naive loops are a bit-exact cross-check at every level and
    // thread count, the pooled column-blocked path included.
    Rng rng(13);
    for (const auto &[m, k, n] :
         std::vector<GemmShape>{{70, 128, 96}, {70, 513, 257}}) {
        const Matrix a = Matrix::randomNormal(m, k, rng);
        const Matrix b = Matrix::randomNormal(k, n, rng);
        Matrix ref(m, n);
        cta::core::NaiveBackend().gemm(a, b, ref);
        for (const SimdLevel level : supportedLevels()) {
            ScopedSimdLevel guard(level);
            for (const int threads : {1, 4}) {
                Matrix out(m, n);
                SimdBackend(threads).gemm(a, b, out);
                EXPECT_TRUE(bitIdentical(out, ref))
                    << m << "x" << k << "x" << n
                    << " level=" << cta::core::simdLevelName(level)
                    << " threads=" << threads;
            }
        }
    }
}

/** The GELU formula with libm's float tanh — what nn::gelu computed
 *  before tanh moved in-tree. */
Real
geluLibm(Real v)
{
    const Real c = std::sqrt(2.0f / 3.14159265f);
    return 0.5f * v * (1.0f + std::tanh(c * (v + 0.044715f * v * v * v)));
}

/** The GELU formula in double precision. */
double
geluDouble(double v)
{
    const double c = std::sqrt(2.0 / 3.14159265358979323846);
    return 0.5 * v * (1.0 + std::tanh(c * (v + 0.044715 * v * v * v)));
}

std::vector<Real>
geluOf(const std::vector<Real> &x)
{
    std::vector<Real> out(x.size());
    cta::core::simdGeluRow(x.data(), static_cast<Index>(x.size()),
                           out.data());
    return out;
}

TEST(SimdGeluTest, BitIdenticalAcrossLevelsAndLengths)
{
    Rng rng(21);
    for (Index n = 0; n <= 70; ++n) {
        std::vector<Real> x(static_cast<std::size_t>(n));
        for (Real &v : x)
            v = rng.uniform(-12.0f, 12.0f);
        std::vector<Real> ref;
        {
            ScopedSimdLevel guard(SimdLevel::Scalar);
            ref = geluOf(x);
        }
        for (const SimdLevel level : supportedLevels()) {
            ScopedSimdLevel guard(level);
            const std::vector<Real> out_of_place = geluOf(x);
            EXPECT_TRUE(sameValues(out_of_place, ref))
                << "n=" << n << " level=" << cta::core::simdLevelName(level);
            // In place (out == x), as nn::gelu runs it: the same bits
            // as out of place, vector body and scalar tail alike.
            std::vector<Real> in_place = x;
            cta::core::simdGeluRow(in_place.data(), n, in_place.data());
            EXPECT_TRUE(sameValues(in_place, out_of_place))
                << "in place, n=" << n
                << " level=" << cta::core::simdLevelName(level);
        }
    }
}

TEST(SimdGeluTest, WithinBoundOfDoublePrecisionFormula)
{
    // 2^24 samples over [-12, 12]: the bound is absolute below |y| = 1
    // (where 1 + tanh cancels, for the libm formula too) and relative
    // above it.
    constexpr Index kSamples = Index{1} << 24;
    constexpr Index kChunk = 4096;
    constexpr double kBound = 4e-7;
    Rng rng(23);
    std::vector<Real> x(kChunk), y(kChunk);
    double worst = 0, worst_libm = 0;
    Real worst_at = 0;
    for (Index done = 0; done < kSamples; done += kChunk) {
        for (Real &v : x)
            v = rng.uniform(-12.0f, 12.0f);
        cta::core::simdGeluRow(x.data(), kChunk, y.data());
        for (Index j = 0; j < kChunk; ++j) {
            const double ref = geluDouble(x[j]);
            const double scale = std::max(1.0, std::fabs(ref));
            const double err = std::fabs(y[j] - ref) / scale;
            if (err > worst) {
                worst = err;
                worst_at = x[j];
            }
            if ((j & 15) == 0)
                worst_libm = std::max(
                    worst_libm, std::fabs(geluLibm(x[j]) - ref) / scale);
        }
    }
    const auto sci = [](double v) {
        char text[32];
        std::snprintf(text, sizeof(text), "%.3g", v);
        return std::string(text);
    };
    RecordProperty("max_error", sci(worst));
    RecordProperty("max_error_libm_formula", sci(worst_libm));
    EXPECT_LE(worst, kBound) << "at v = " << worst_at
                             << " (libm formula: " << worst_libm << ")";
}

TEST(SimdGeluTest, SpecialValuesMatchLibmFormula)
{
    constexpr Real kInf = std::numeric_limits<Real>::infinity();
    constexpr Real kMax = std::numeric_limits<Real>::max();
    const std::vector<Real> specials = {
        0.0f,   -0.0f,  kInf,   -kInf,  std::numeric_limits<Real>::quiet_NaN(),
        kMax,   -kMax,  1e13f,  -1e13f, 7e12f,  -7e12f,
        std::numeric_limits<Real>::min(), -std::numeric_limits<Real>::min(),
        1e-40f, -1e-40f, std::numeric_limits<Real>::denorm_min(),
        9.0f,   -9.0f,  12.0f,  -12.0f};
    for (const SimdLevel level : supportedLevels()) {
        ScopedSimdLevel guard(level);
        // Pad to a full 16-lane vector so every level's vector body,
        // not only its scalar tail, sees each special value.
        for (const Real v : specials) {
            const std::vector<Real> x(16, v);
            EXPECT_TRUE(sameValues(geluOf(x),
                                   std::vector<Real>(16, geluLibm(v))))
                << "v=" << v << " got " << geluOf(x)[0] << " want "
                << geluLibm(v)
                << " level=" << cta::core::simdLevelName(level);
        }
    }
}

TEST(SimdBackendTest, NameCarriesLevelAndThreads)
{
    ScopedSimdLevel guard(SimdLevel::Scalar);
    SimdBackend backend(3);
    EXPECT_EQ(backend.name(), "simd[scalar]:3");
}

TEST(SimdBackendTest, FactoryParsesSimdSpecs)
{
    EXPECT_EQ(cta::core::makeBackend("simd:5")->threadCount(), 5);
    EXPECT_GE(cta::core::makeBackend("simd")->threadCount(), 1);
}

TEST(SimdPeakTest, MeasuredPeakIsPositive)
{
    EXPECT_GT(cta::core::simdFmaPeakGflops(), 0.0);
}

} // namespace
