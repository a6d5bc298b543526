/**
 * @file
 * Tests for fixed-point CTA inference (paper SIV-C): the quantized
 * pipeline must track the float pipeline closely (the paper reports
 * < 0.1 % accuracy impact).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/rng.h"
#include "cta/error.h"
#include "cta/quantization.h"
#include "nn/workload.h"

namespace {

using cta::alg::CtaConfig;
using cta::core::FxpFormat;
using cta::core::Index;
using cta::core::Matrix;
using cta::core::QuantScheme;
using cta::core::Rng;
using cta::nn::AttentionHeadParams;

struct Fixture
{
    Matrix tokens;
    AttentionHeadParams params;

    Fixture()
        : params([] {
              Rng rng(1);
              return AttentionHeadParams::randomInit(32, 16, rng);
          }())
    {
        cta::nn::WorkloadProfile profile;
        profile.seqLen = 192;
        profile.tokenDim = 32;
        profile.coarseClusters = 12;
        profile.fineClusters = 8;
        profile.noiseScale = 0.03f;
        cta::nn::WorkloadGenerator gen(profile, 2);
        tokens = gen.sampleTokens();
    }
};

TEST(QuantizationTest, QuantizedTracksFloatPipeline)
{
    Fixture fx;
    CtaConfig config;
    config.w0 = 0.5f;
    config.w1 = 0.5f;
    config.w2 = 0.25f;
    const auto fp = ctaAttention(fx.tokens, fx.tokens, fx.params,
                                 config);
    const auto q = ctaAttentionQuantized(fx.tokens, fx.tokens,
                                         fx.params, config);
    const auto err = cta::alg::compareOutputs(q.output, fp.output);
    EXPECT_GT(err.meanCosine, 0.995f);
    EXPECT_LT(err.relativeFrobenius, 0.05f);
}

TEST(QuantizationTest, QuantizedStillApproximatesExact)
{
    Fixture fx;
    CtaConfig config;
    config.w0 = 0.5f;
    config.w1 = 0.5f;
    config.w2 = 0.25f;
    const Matrix exact =
        exactAttention(fx.tokens, fx.tokens, fx.params);
    const auto q = ctaAttentionQuantized(fx.tokens, fx.tokens,
                                         fx.params, config);
    const auto err = cta::alg::compareOutputs(q.output, exact);
    EXPECT_GT(err.meanCosine, 0.97f);
}

TEST(QuantizationTest, ExactQuantizedCloseToExactFloat)
{
    Fixture fx;
    const Matrix fp = exactAttention(fx.tokens, fx.tokens, fx.params);
    const Matrix q = cta::alg::exactAttentionQuantized(
        fx.tokens, fx.tokens, fx.params);
    EXPECT_LT(relativeError(q, fp), 0.02f);
}

TEST(QuantizationTest, CompressionStatsUnaffectedByGridChoice)
{
    // Quantized clustering may differ slightly, but counts stay in
    // the same ballpark (tokens barely move on a Q6.7 grid).
    Fixture fx;
    CtaConfig config;
    const auto fp =
        ctaAttention(fx.tokens, fx.tokens, fx.params, config);
    const auto q = ctaAttentionQuantized(fx.tokens, fx.tokens,
                                         fx.params, config);
    EXPECT_NEAR(static_cast<double>(q.stats.k0),
                static_cast<double>(fp.stats.k0),
                0.25 * static_cast<double>(fp.stats.k0) + 4.0);
}

TEST(QuantizationTest, CoarserTokensDegradeGracefully)
{
    Fixture fx;
    CtaConfig config;
    QuantScheme coarse = QuantScheme::paperDefault();
    coarse.tokens = cta::core::FxpFormat{8, 4};
    coarse.centroids = cta::core::FxpFormat{8, 4};
    const auto fine = ctaAttentionQuantized(fx.tokens, fx.tokens,
                                            fx.params, config);
    const auto rough = ctaAttentionQuantized(fx.tokens, fx.tokens,
                                             fx.params, config, coarse);
    const Matrix exact =
        exactAttention(fx.tokens, fx.tokens, fx.params);
    const auto err_fine = cta::alg::compareOutputs(fine.output, exact);
    const auto err_rough =
        cta::alg::compareOutputs(rough.output, exact);
    EXPECT_GE(err_fine.meanCosine, err_rough.meanCosine - 1e-4f);
}

/** Counts the elements of @p m that @p fmt's quantizer moves. */
Index
offGrid(const Matrix &m, const FxpFormat &fmt)
{
    Index off = 0;
    for (Index i = 0; i < m.rows(); ++i)
        for (Index j = 0; j < m.cols(); ++j)
            off += fmt.quantize(m(i, j)) != m(i, j);
    return off;
}

/** True when @p a and @p b have the same shape and element bits. */
bool
sameBits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(cta::core::Real) *
                           static_cast<std::size_t>(a.size())) == 0;
}

TEST(QuantizationTest, IntermediatesLieOnTheirGrids)
{
    // Each tensor the hardware stores is snapped to its grid where it
    // is written back (paper SIV-C), so every stored element is a
    // fixed point of that grid's quantizer.
    Fixture fx;
    CtaConfig config;
    const QuantScheme scheme = QuantScheme::paperDefault();
    const auto q = ctaAttentionQuantized(fx.tokens, fx.tokens,
                                         fx.params, config, scheme);
    const auto &inter = q.inter;
    ASSERT_GT(inter.queryComp.centroids.size(), 0);
    ASSERT_GT(inter.kvComp.level2.centroids.size(), 0);
    EXPECT_EQ(offGrid(inter.queryComp.centroids, scheme.centroids), 0);
    EXPECT_EQ(offGrid(inter.kvComp.level1.centroids, scheme.centroids),
              0);
    EXPECT_EQ(offGrid(inter.kvComp.level2.centroids, scheme.centroids),
              0);
    EXPECT_EQ(offGrid(inter.qBar, scheme.centroids), 0);
    EXPECT_EQ(offGrid(inter.kBar, scheme.centroids), 0);
    EXPECT_EQ(offGrid(inter.vBar, scheme.centroids), 0);
    EXPECT_EQ(offGrid(inter.sBar, scheme.scores), 0);
    EXPECT_EQ(offGrid(q.output, scheme.tokens), 0);
    // The float pipeline's intermediates are not on these grids, so
    // the checks above are not vacuous.
    const auto fp = ctaAttention(fx.tokens, fx.tokens, fx.params,
                                 config);
    EXPECT_GT(offGrid(fp.inter.kBar, scheme.centroids), 0);
    EXPECT_GT(offGrid(fp.output, scheme.tokens), 0);
}

TEST(QuantizationTest, RowMaxShiftIsAlwaysOnInFixedPoint)
{
    // The shift bounds the exp-LUT input range, so the fixed-point
    // path applies it whatever config.subtractRowMax says.
    Fixture fx;
    CtaConfig on;
    CtaConfig off;
    off.subtractRowMax = false;
    const auto a = ctaAttentionQuantized(fx.tokens, fx.tokens,
                                         fx.params, on);
    const auto b = ctaAttentionQuantized(fx.tokens, fx.tokens,
                                         fx.params, off);
    EXPECT_TRUE(sameBits(a.output, b.output));
    EXPECT_TRUE(sameBits(a.inter.sBar, b.inter.sBar));
}

} // namespace
