/**
 * @file
 * Parity tests for the compute-backend layer (core/backend.h): the
 * SimdBackend's transposed-B GEMM, row maps and row reductions must
 * be bit-identical to NaiveBackend at every thread count (and, for
 * the transposed-B GEMM, at every SIMD level), its GEMM
 * bit-identical across its own thread counts and close to naive,
 * OpCounts must not depend on the installed backend, and the
 * end-to-end CTA pipeline must produce identical op accounting and
 * cluster counts whichever backend runs it.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "core/matrix.h"
#include "core/op_counter.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/simd.h"
#include "cta/compressed_attention.h"
#include "nn/attention.h"
#include "nn/workload.h"

namespace {

using cta::core::Backend;
using cta::core::Index;
using cta::core::makeBackend;
using cta::core::Matrix;
using cta::core::NaiveBackend;
using cta::core::OpCounts;
using cta::core::Real;
using cta::core::Rng;
using cta::core::setActiveBackend;
using cta::core::SimdBackend;
using cta::core::SimdLevel;
using cta::core::Wide;

/** RAII guard restoring the previously active backend. */
class ScopedBackend
{
  public:
    explicit ScopedBackend(Backend *backend)
        : previous_(setActiveBackend(backend))
    {
    }
    ~ScopedBackend() { setActiveBackend(previous_); }

  private:
    Backend *previous_;
};

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    return std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) *
                           sizeof(Real)) == 0;
}

/** Shapes straddling the serial-inline GEMM threshold, with tails
 *  that exercise the 4-row / 4-column block remainders. */
struct GemmShape
{
    Index m, k, n;
};

const std::vector<GemmShape> kShapes = {
    {1, 1, 1},   {3, 5, 7},    {17, 33, 9}, {64, 64, 64},
    {65, 63, 66}, {70, 128, 96}, {128, 96, 130},
};

TEST(BackendParityTest, GemmBitIdenticalAcrossThreadCountsAndCloseToNaive)
{
    // The simd GEMM is an FMA chain per output element, so it is
    // bitwise invariant across its own thread counts and within
    // tolerance of the naive mul-then-add chain.
    NaiveBackend naive;
    Rng rng(7);
    for (const auto &[m, k, n] : kShapes) {
        const Matrix a = Matrix::randomNormal(m, k, rng);
        const Matrix b = Matrix::randomNormal(k, n, rng);
        Matrix exact(m, n);
        naive.gemm(a, b, exact);
        Matrix ref(m, n);
        SimdBackend(1).gemm(a, b, ref);
        EXPECT_LT(maxAbsDiff(ref, exact), 1e-3f)
            << "gemm " << m << "x" << k << "x" << n << " vs naive";
        for (const int threads : {2, 8}) {
            SimdBackend simd(threads);
            Matrix out(m, n);
            simd.gemm(a, b, out);
            EXPECT_TRUE(bitIdentical(out, ref))
                << "gemm " << m << "x" << k << "x" << n << " with "
                << threads << " threads";
        }
    }
}

TEST(BackendParityTest, GemmTransposedBBitIdenticalToNaiveAtEveryLevel)
{
    // Ragged shapes (m, n, depth outside 8Z) for the 8-row dot
    // blocks: one query row, several rows below the serial-inline
    // threshold, and one shape past kSerialGemmMacs (300 * 129 * 131
    // ~ 5.1M MACs > 4M) that fans out over the pool.
    const std::vector<GemmShape> shapes = {
        {1, 1, 1},    {1, 65, 449},  {2, 7, 9},     {3, 5, 7},
        {17, 33, 9},  {65, 63, 66},  {70, 128, 96}, {128, 96, 130},
        {300, 129, 131},
    };
    NaiveBackend naive;
    Rng rng(11);
    for (const auto &[m, k, n] : shapes) {
        const Matrix a = Matrix::randomNormal(m, k, rng);
        const Matrix b = Matrix::randomNormal(n, k, rng);
        Matrix ref(m, n);
        naive.gemmTransposedB(a, b, ref);
        for (const SimdLevel level :
             {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512,
              SimdLevel::Neon}) {
            if (!cta::core::simdLevelSupported(level))
                continue;
            const SimdLevel previous = cta::core::setSimdLevel(level);
            for (const int threads : {1, 2, 8}) {
                SimdBackend simd(threads);
                Matrix out(m, n);
                simd.gemmTransposedB(a, b, out);
                EXPECT_TRUE(bitIdentical(out, ref))
                    << "gemmTransB " << m << "x" << k << "x" << n
                    << " level " << cta::core::simdLevelName(level)
                    << " with " << threads << " threads";
            }
            cta::core::setSimdLevel(previous);
        }
    }
}

TEST(BackendParityTest, ReduceRowsBitIdenticalAcrossThreadCounts)
{
    // Float reductions are order-sensitive; the shared chunking policy
    // makes the partial-sum tree identical in both backends.
    Rng rng(3);
    const Matrix x = Matrix::randomNormal(257, 33, rng);
    NaiveBackend naive;
    const auto body = [&](Index begin, Index end) {
        Wide sum = 0;
        for (Index i = begin; i < end; ++i)
            for (Index j = 0; j < x.cols(); ++j)
                sum += static_cast<Wide>(x(i, j)) * x(i, j);
        return sum;
    };
    const Wide ref = naive.reduceRows(x.rows(), body);
    for (const int threads : {1, 2, 8}) {
        SimdBackend simd(threads);
        EXPECT_EQ(simd.reduceRows(x.rows(), body), ref)
            << threads << " threads";
    }
}

TEST(BackendParityTest, FreeFunctionKernelsMatchUnderEitherBackend)
{
    Rng rng(19);
    const Matrix a = Matrix::randomNormal(70, 40, rng);
    const Matrix b = Matrix::randomNormal(40, 50, rng);

    NaiveBackend naive;
    SimdBackend one(1);
    SimdBackend four(4);

    const auto run = [&](Backend *backend) {
        ScopedBackend guard(backend);
        return std::make_pair(matmul(a, b), frobeniusNorm(a));
    };
    const auto [prod_naive, norm_naive] = run(&naive);
    const auto [prod_one, norm_one] = run(&one);
    const auto [prod_four, norm_four] = run(&four);
    // matmul: bitwise across simd thread counts, tolerance vs naive;
    // frobeniusNorm (a reduceRows): bitwise everywhere.
    EXPECT_TRUE(bitIdentical(prod_four, prod_one));
    EXPECT_LT(maxAbsDiff(prod_one, prod_naive), 1e-3f);
    EXPECT_EQ(norm_one, norm_naive);
    EXPECT_EQ(norm_four, norm_naive);
}

TEST(BackendParityTest, OpCountsIndependentOfBackend)
{
    Rng rng(23);
    const Matrix a = Matrix::randomNormal(48, 32, rng);
    const Matrix b = Matrix::randomNormal(32, 24, rng);

    const auto countOps = [&](Backend *backend) {
        ScopedBackend guard(backend);
        OpCounts counts;
        (void)matmul(a, b, &counts);
        (void)matmulTransB(a, transpose(b), &counts);
        (void)add(a, a, &counts);
        (void)scale(a, 2.0f, &counts);
        return counts;
    };
    NaiveBackend naive;
    const OpCounts ref = countOps(&naive);
    for (const int threads : {1, 2, 8}) {
        SimdBackend simd(threads);
        EXPECT_EQ(countOps(&simd), ref) << threads << " threads";
    }
}

TEST(BackendFactoryTest, ParsesSpecStrings)
{
    EXPECT_EQ(makeBackend("naive")->name(), "naive");
    EXPECT_EQ(makeBackend("simd:3")->threadCount(), 3);
    EXPECT_GE(makeBackend("simd")->threadCount(), 1);
}

TEST(BackendFactoryDeathTest, RejectsUnknownBackends)
{
    // Unknown names — including the "parallel" specs of the removed
    // scalar-chain backend — must fail loudly, naming the accepted
    // forms, never silently select another backend.
    EXPECT_DEATH(makeBackend("parallel"),
                 "expected naive \\| simd\\[:<threads>\\]");
    EXPECT_DEATH(makeBackend("parallel:4"),
                 "expected naive \\| simd\\[:<threads>\\]");
}

TEST(BackendFactoryDeathTest, RejectsMalformedThreadCounts)
{
    // Regression: atoi accepted trailing garbage, so
    // CTA_BACKEND=simd:8x silently ran with 8 threads.
    EXPECT_EXIT(makeBackend("simd:8x"),
                ::testing::ExitedWithCode(1),
                "malformed CTA_BACKEND thread count");
    EXPECT_EXIT(makeBackend("simd:abc"),
                ::testing::ExitedWithCode(1),
                "malformed CTA_BACKEND thread count");
    EXPECT_EXIT(makeBackend("simd:"),
                ::testing::ExitedWithCode(1),
                "empty CTA_BACKEND thread count");
    EXPECT_EXIT(makeBackend("simd:0"),
                ::testing::ExitedWithCode(1), "outside");
    EXPECT_EXIT(makeBackend("simd:65"),
                ::testing::ExitedWithCode(1), "outside");
}

/** End-to-end CTA run under a specific backend. */
cta::alg::CtaResult
runCta(Backend *backend)
{
    ScopedBackend guard(backend);
    Rng rng(41);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(32, 16, rng);
    cta::nn::WorkloadProfile profile;
    profile.seqLen = 192;
    profile.tokenDim = 32;
    profile.coarseClusters = 8;
    profile.fineClusters = 6;
    profile.noiseScale = 0.02f;
    cta::nn::WorkloadGenerator gen(profile, 99);
    const Matrix tokens = gen.sampleTokens();
    cta::alg::CtaConfig config;
    return ctaAttention(tokens, tokens, params, config);
}

TEST(BackendEndToEndTest, CtaPipelineThreadCountInvariantAndCountsMatch)
{
    // The simd backend's GEMM is a different rounding chain than
    // naive (FMA vs mul+add), so the end-to-end outputs are compared
    // across ITS OWN thread counts bitwise, and against naive only by
    // tolerance. Cluster counts and op accounting match naive exactly.
    NaiveBackend naive;
    SimdBackend one(1);
    SimdBackend two(2);
    SimdBackend eight(8);

    const auto exact = runCta(&naive);
    const auto ref = runCta(&one);
    EXPECT_LT(maxAbsDiff(ref.output, exact.output), 1e-3f);
    for (Backend *backend : std::vector<Backend *>{&one, &two, &eight}) {
        const auto result = runCta(backend);
        EXPECT_TRUE(bitIdentical(result.output, ref.output))
            << backend->name();
        EXPECT_EQ(result.totalOps(), exact.totalOps()) << backend->name();
        EXPECT_EQ(result.stats.k0, exact.stats.k0) << backend->name();
        EXPECT_EQ(result.stats.k1, exact.stats.k1) << backend->name();
    }
}

/** Best-of wall time of @p backend's 256^3 GEMM over @p reps runs. */
double
bestGemmSeconds(Backend &backend, const Matrix &a, const Matrix &b,
                Matrix &c, int reps)
{
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < reps; ++rep) {
        c.fill(0);
        const auto t0 = std::chrono::steady_clock::now();
        backend.gemm(a, b, c);
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

TEST(BackendScalingTest, MoreThreadsNeverSlowerAt256)
{
    // Regression for the negative-scaling bug: 8 threads used to run
    // a 256^3 GEMM ~30% SLOWER than 1 thread (fork-join overhead on
    // oversubscribed hosts, re-dispatched per row block). With the
    // size-aware serial cutover and the oversubscription inline
    // shortcut, 8 threads must never lose to 1 beyond noise — and the
    // outputs must stay bit-exact, which is what makes the cutover
    // legal in the first place.
    Rng rng(51);
    const Index n = 256;
    const Matrix a = Matrix::randomNormal(n, n, rng);
    const Matrix b = Matrix::randomNormal(n, n, rng);
    SimdBackend one(1);
    SimdBackend eight(8);
    Matrix c1(n, n), c8(n, n);

    // Warm up (page faults, pool spin-up), then best-of to shed
    // scheduler noise. 1.5x tolerance absorbs shared-host jitter
    // while still catching the ~permanent regressions this guards.
    (void)bestGemmSeconds(one, a, b, c1, 1);
    (void)bestGemmSeconds(eight, a, b, c8, 1);
    const double t1 = bestGemmSeconds(one, a, b, c1, 5);
    const double t8 = bestGemmSeconds(eight, a, b, c8, 5);
    EXPECT_TRUE(bitIdentical(c8, c1));
    EXPECT_LE(t8, 1.5 * t1)
        << "simd:8 " << t8 << "s vs simd:1 " << t1 << "s";
}

} // namespace
