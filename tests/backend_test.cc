/**
 * @file
 * Parity tests for the compute-backend layer (core/backend.h): the
 * SimdBackend's GEMM, row maps and row reductions must be
 * bit-identical to NaiveBackend at every thread count, matmulTransB
 * bit-identical to the naive GEMM over the transposed B at every SIMD
 * level, whichever route (lane-per-row kernel or gathered GEMM) it
 * takes, OpCounts must not depend on the installed backend, and the
 * end-to-end CTA pipeline must produce identical outputs, op
 * accounting and cluster counts whichever backend runs it.
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

TEST(BackendParityTest, GemmBitIdenticalToNaiveAcrossThreadCounts)
{
    // Both backends run one k-ascending FMA chain per output element,
    // so the simd GEMM equals naive bit for bit at every thread count.
    NaiveBackend naive;
    Rng rng(7);
    for (const auto &[m, k, n] : kShapes) {
        const Matrix a = Matrix::randomNormal(m, k, rng);
        const Matrix b = Matrix::randomNormal(k, n, rng);
        Matrix ref(m, n);
        naive.gemm(a, b, ref);
        for (const int threads : {1, 2, 8}) {
            SimdBackend simd(threads);
            Matrix out(m, n);
            simd.gemm(a, b, out);
            EXPECT_TRUE(bitIdentical(out, ref))
                << "gemm " << m << "x" << k << "x" << n << " with "
                << threads << " threads";
        }
    }
}

TEST(BackendParityTest, MatmulTransBBitIdenticalToNaiveGemmAtEveryLevel)
{
    // matmulTransB(A, B) must equal the naive GEMM of A and B^T bit
    // for bit on both of its routes: one A row runs the lane-per-row
    // kernel over B's rows (ragged row counts and depths for its 8-
    // and 16-row blocks), more rows gather B^T and run the backend
    // GEMM, one shape past kSerialGemmMacs (300 * 129 * 131 ~ 5.1M
    // MACs > 4M) fanning out over the pool.
    const std::vector<GemmShape> shapes = {
        {1, 1, 1},    {1, 65, 449},  {1, 64, 17},   {2, 7, 9},
        {3, 5, 7},    {17, 33, 9},   {65, 63, 66},  {70, 128, 96},
        {128, 96, 130}, {300, 129, 131},
    };
    NaiveBackend naive;
    Rng rng(11);
    for (const auto &[m, k, n] : shapes) {
        const Matrix a = Matrix::randomNormal(m, k, rng);
        const Matrix b = Matrix::randomNormal(n, k, rng);
        Matrix ref(m, n);
        naive.gemm(a, transpose(b), ref);
        for (const SimdLevel level :
             {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512,
              SimdLevel::Neon}) {
            if (!cta::core::simdLevelSupported(level))
                continue;
            const SimdLevel previous = cta::core::setSimdLevel(level);
            const auto naive_spec = makeBackend("naive");
            const auto one = makeBackend("simd:1");
            const auto two = makeBackend("simd:2");
            const auto eight = makeBackend("simd:8");
            for (Backend *backend : {naive_spec.get(), one.get(),
                                     two.get(), eight.get()}) {
                ScopedBackend guard(backend);
                EXPECT_TRUE(bitIdentical(matmulTransB(a, b), ref))
                    << "matmulTransB " << m << "x" << k << "x" << n
                    << " level " << cta::core::simdLevelName(level)
                    << " backend " << backend->name();
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
    // matmul and frobeniusNorm (a reduceRows): bitwise everywhere.
    EXPECT_TRUE(bitIdentical(prod_four, prod_one));
    EXPECT_TRUE(bitIdentical(prod_one, prod_naive));
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

TEST(BackendEndToEndTest, CtaPipelineBitIdenticalToNaiveAndCountsMatch)
{
    // Every GEMM, score and AV element is the same FMA chain under
    // both backends, so the end-to-end outputs equal naive's bit for
    // bit at every simd thread count, and so do cluster counts and op
    // accounting.
    NaiveBackend naive;
    SimdBackend one(1);
    SimdBackend two(2);
    SimdBackend eight(8);

    const auto exact = runCta(&naive);
    for (Backend *backend : std::vector<Backend *>{&one, &two, &eight}) {
        const auto result = runCta(backend);
        EXPECT_TRUE(bitIdentical(result.output, exact.output))
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
