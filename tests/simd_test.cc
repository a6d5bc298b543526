/**
 * @file
 * Tests for the runtime-dispatched SIMD layer (core/simd.h): level
 * detection and forcing, bitwise parity of every vector primitive
 * against its scalar reference at every supported ISA level, the
 * FMA-chain routing contract of the packed/vecmat GEMM paths, and
 * the SimdBackend's cross-level / cross-thread bit-identity.
 */

#include <cmath>
#include <cstring>
#include <limits>
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

            got = acc0;
            cta::core::simdMulAddRow(got.data(), x.data(), w, n);
            EXPECT_EQ(got, ref_mul) << "muladd n=" << n;

            got = acc0;
            cta::core::simdFmaRow(got.data(), x.data(), w, n);
            EXPECT_EQ(got, ref_fma) << "fma n=" << n;
        }
    }
}

/** Shapes covering packed panels (full + partial), micro-kernel row
 *  blocks and their tails, and the vecmat route (rows < kSimdMr). */
struct GemmShape
{
    Index m, k, n;
};

const std::vector<GemmShape> kGemmShapes = {
    {1, 8, 16},   {2, 17, 63},  {3, 64, 64},   {4, 16, 64},
    {5, 33, 65},  {17, 64, 128}, {64, 64, 64}, {70, 128, 96},
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

        // Routing invariance: the no-pack vecmat path and the packed
        // micro-kernel run the same FMA chain per element, so calling
        // them directly on the same rows must agree bitwise.
        for (const SimdLevel level : levels) {
            ScopedSimdLevel guard(level);
            Matrix via_vecmat(m, n);
            cta::core::simdVecMatRows(a, b, via_vecmat, 0, m);
            std::vector<Real> packed;
            cta::core::simdPackB(b, packed);
            Matrix via_packed(m, n);
            cta::core::simdGemmRowsPacked(a, packed.data(), n,
                                          via_packed, 0, m);
            EXPECT_TRUE(bitIdentical(via_vecmat, via_packed))
                << "routing " << m << "x" << k << "x" << n
                << " level=" << cta::core::simdLevelName(level);
            EXPECT_TRUE(bitIdentical(via_packed, ref))
                << "packed-vs-ref " << m << "x" << k << "x" << n;
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
