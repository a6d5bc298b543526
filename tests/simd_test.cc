/**
 * @file
 * Tests for the runtime-dispatched SIMD layer (core/simd.h): level
 * detection and forcing, bitwise parity of every vector primitive
 * against its scalar reference at every supported ISA level (the
 * lane-per-row dot and multi-row accumulate kernels included, on
 * ragged shapes, scattered rows and non-finite inputs), and the
 * SimdBackend GEMM's one-FMA-chain-per-element contract: bit-identical
 * across ISA levels, thread counts, row blocks, ragged column blocks
 * and depth slices.
 */

#include <cmath>
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
        std::vector<Real> ref_scale(x), ref_add(acc0), ref_mul(acc0),
            ref_fma(acc0);
        for (std::size_t j = 0; j < sn; ++j) {
            ref_scale[j] *= s;
            ref_add[j] += x[j];
            ref_mul[j] += w * x[j];
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

            // One weighted row through the multi-row accumulators.
            const Real *xrow = x.data();
            got = acc0;
            cta::core::simdMulAddRows(got.data(), &xrow, &w, 1, n);
            EXPECT_EQ(got, ref_mul) << "muladd n=" << n;

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

/** The reference transposed-B GEMM element: one Wide chain, k
 *  ascending, narrowed once. */
Real
wideDot(const Real *q, const Real *row, Index d)
{
    cta::core::Wide acc = 0;
    for (Index k = 0; k < d; ++k)
        acc += static_cast<cta::core::Wide>(q[k]) * row[k];
    return static_cast<Real>(acc);
}

TEST(SimdDotRowsTest, MatchesWideChainAtEveryLevel)
{
    Rng rng(17);
    for (const bool poison : {false, true}) {
        for (const Index n : kDotRows) {
            for (const Index d : kDotDepths) {
                const ScatteredRows b(n, d, rng, poison);
                const auto q = randomVec(d, rng);
                std::vector<Real> ref;
                for (const Real *row : b.rows)
                    ref.push_back(wideDot(q.data(), row, d));
                for (const SimdLevel level : supportedLevels()) {
                    ScopedSimdLevel guard(level);
                    std::vector<Real> got(static_cast<std::size_t>(n));
                    cta::core::simdDotRows(q.data(), b.rows.data(), n, d,
                                           got.data());
                    EXPECT_TRUE(sameValues(got, ref))
                        << "n=" << n << " d=" << d << " poison=" << poison
                        << " level=" << cta::core::simdLevelName(level);
                }
            }
        }
    }
}

TEST(SimdDotRowsTest, WideFormMatchesUnnarrowedChainAtEveryLevel)
{
    // The Wide-output form (the LSH projection) must store each row's
    // k-ascending double chain itself: every block count up to two
    // full AVX-512 block pairs plus a long batch, at depths that are
    // not a multiple of the 4-step transpose or the 8-row block.
    std::vector<Index> counts;
    for (Index n = 1; n <= 17; ++n)
        counts.push_back(n);
    counts.push_back(512);
    Rng rng(29);
    for (const bool poison : {false, true}) {
        for (const Index n : counts) {
            for (const Index d : {1, 7, 13, 61}) {
                const ScatteredRows b(n, d, rng, poison);
                const auto q = randomVec(d, rng);
                std::vector<cta::core::Wide> ref;
                for (const Real *row : b.rows) {
                    cta::core::Wide acc = 0;
                    for (Index k = 0; k < d; ++k)
                        acc += static_cast<cta::core::Wide>(q[k]) * row[k];
                    ref.push_back(acc);
                }
                for (const SimdLevel level : supportedLevels()) {
                    ScopedSimdLevel guard(level);
                    std::vector<cta::core::Wide> got(
                        static_cast<std::size_t>(n));
                    cta::core::simdDotRows(q.data(), b.rows.data(), n, d,
                                           got.data());
                    for (std::size_t j = 0; j < got.size(); ++j) {
                        if (std::isnan(got[j]) && std::isnan(ref[j]))
                            continue;
                        ASSERT_EQ(std::memcmp(&got[j], &ref[j],
                                              sizeof(cta::core::Wide)),
                                  0)
                            << "n=" << n << " d=" << d << " row=" << j
                            << " poison=" << poison << " level="
                            << cta::core::simdLevelName(level);
                    }
                }
            }
        }
    }
}

TEST(SimdAccumulateRowsTest, MatchesScalarChainsAtEveryLevel)
{
    // The multi-row accumulators must equal the scalar fma / mul-add
    // chains, rows ascending, at every level, column tail and row
    // count.
    Rng rng(23);
    for (const bool poison : {false, true}) {
        for (const Index n : kDotRows) {
            for (const Index d : kDotDepths) {
                const ScatteredRows x(n, d, rng, poison);
                const auto w = randomVec(n, rng);
                const auto acc0 = randomVec(d, rng);
                const auto sd = static_cast<std::size_t>(d);
                std::vector<Real> ref_fma(acc0), ref_mul(acc0);
                for (Index j = 0; j < n; ++j) {
                    const Real wj = w[static_cast<std::size_t>(j)];
                    const Real *xj = x.rows[static_cast<std::size_t>(j)];
                    for (std::size_t t = 0; t < sd; ++t) {
                        ref_fma[t] = std::fma(wj, xj[t], ref_fma[t]);
                        ref_mul[t] += wj * xj[t];
                    }
                }
                for (const SimdLevel level : supportedLevels()) {
                    ScopedSimdLevel guard(level);
                    std::vector<Real> got_fma(acc0), got_mul(acc0);
                    cta::core::simdFmaRows(got_fma.data(), x.rows.data(),
                                           w.data(), n, d);
                    cta::core::simdMulAddRows(got_mul.data(), x.rows.data(),
                                              w.data(), n, d);
                    const std::string where =
                        "n=" + std::to_string(n) + " d=" + std::to_string(d) +
                        " poison=" + std::to_string(poison) + " level=" +
                        cta::core::simdLevelName(level);
                    EXPECT_TRUE(sameValues(got_fma, ref_fma))
                        << "fma " << where;
                    EXPECT_TRUE(sameValues(got_mul, ref_mul))
                        << "muladd " << where;
                }
            }
        }
    }
}

/** Shapes covering full and ragged column blocks, the 6/4/1 row
 *  blocks, short A, and the pooled depth-sliced path (70 x 300 x 200
 *  is past the serial cutover and two depth slices deep). */
struct GemmShape
{
    Index m, k, n;
};

const std::vector<GemmShape> kGemmShapes = {
    {1, 8, 16},   {2, 17, 63},  {3, 64, 64},   {4, 16, 64},
    {5, 33, 65},  {17, 64, 128}, {64, 64, 64}, {70, 128, 96},
    {70, 300, 200}, {1, 1024, 1000},
};

TEST(SimdGemmTest, BitIdenticalAcrossLevelsThreadsAndRouting)
{
    Rng rng(11);
    const auto levels = supportedLevels();
    for (const auto &[m, k, n] : kGemmShapes) {
        const Matrix a = Matrix::randomNormal(m, k, rng);
        const Matrix b = Matrix::randomNormal(k, n, rng);

        // Reference: scalar level, single thread.
        Matrix ref(m, n);
        {
            ScopedSimdLevel guard(SimdLevel::Scalar);
            SimdBackend backend(1);
            backend.gemm(a, b, ref);
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

TEST(SimdGemmTest, CloseToNaiveReference)
{
    // The FMA chains drop one rounding per step relative to the naive
    // mul-then-add chains — bitwise different, numerically tighter.
    // Guard against gross kernel bugs with a tolerance check.
    Rng rng(13);
    const Index m = 70, k = 128, n = 96;
    const Matrix a = Matrix::randomNormal(m, k, rng);
    const Matrix b = Matrix::randomNormal(k, n, rng);
    Matrix ref(m, n);
    cta::core::NaiveBackend().gemm(a, b, ref);
    Matrix out(m, n);
    SimdBackend(1).gemm(a, b, out);
    EXPECT_LT(maxAbsDiff(out, ref), 1e-3f);
}

TEST(SimdBackendTest, NameCarriesLevelAndThreads)
{
    ScopedSimdLevel guard(SimdLevel::Scalar);
    SimdBackend backend(3);
    EXPECT_EQ(backend.name(), "simd[scalar]:3");
    EXPECT_TRUE(backend.gemmFmaChains());
    EXPECT_FALSE(cta::core::NaiveBackend().gemmFmaChains());
}

TEST(SimdBackendTest, FactoryParsesSimdSpecs)
{
    EXPECT_EQ(cta::core::makeBackend("simd:5")->threadCount(), 5);
    EXPECT_GE(cta::core::makeBackend("simd")->threadCount(), 1);
    EXPECT_TRUE(cta::core::makeBackend("simd")->gemmFmaChains());
}

TEST(SimdPeakTest, MeasuredPeakIsPositive)
{
    EXPECT_GT(cta::core::simdFmaPeakGflops(), 0.0);
}

} // namespace
