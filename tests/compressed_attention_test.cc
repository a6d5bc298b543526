/**
 * @file
 * Unit and property tests for the full CTA scheme: exactness in the
 * lossless limit, approximation quality on clustered workloads, the
 * probability-aggregation identity, row-max invariance, and shape
 * contracts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "core/rng.h"
#include "cta/compressed_attention.h"
#include "cta/config.h"
#include "cta/error.h"
#include "cta/fused_decode.h"
#include "nn/workload.h"

namespace {

using cta::alg::CtaConfig;
using cta::alg::CtaResult;
using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;
using cta::core::Rng;
using cta::nn::AttentionHeadParams;

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    return std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) *
                           sizeof(Real)) == 0;
}

/** Clustered self-attention workload shared by the tests. */
struct Fixture
{
    Matrix tokens;
    AttentionHeadParams params;

    explicit Fixture(Index n = 256, Index dw = 32, Index d = 16,
                     Real noise = 0.02f, std::uint64_t seed = 1)
        : params([&] {
              Rng rng(seed);
              return AttentionHeadParams::randomInit(dw, d, rng);
          }())
    {
        cta::nn::WorkloadProfile profile;
        profile.seqLen = n;
        profile.tokenDim = dw;
        profile.coarseClusters = 12;
        profile.fineClusters = 8;
        profile.noiseScale = noise;
        cta::nn::WorkloadGenerator gen(profile, seed + 100);
        tokens = gen.sampleTokens();
    }
};

TEST(CtaAttentionTest, OutputShapeMatchesExact)
{
    Fixture fx;
    CtaConfig config;
    const CtaResult result =
        ctaAttention(fx.tokens, fx.tokens, fx.params, config);
    EXPECT_EQ(result.output.rows(), fx.tokens.rows());
    EXPECT_EQ(result.output.cols(), 16);
}

TEST(CtaAttentionTest, LosslessLimitReproducesExactAttention)
{
    // With tiny buckets every token is a singleton cluster and CTA
    // degenerates to exact attention (k0 = m, k1 = n, k2 <= n).
    Fixture fx(96, 16, 8);
    CtaConfig config;
    config.w0 = config.w1 = config.w2 = 1e-4f;
    const CtaResult result =
        ctaAttention(fx.tokens, fx.tokens, fx.params, config);
    EXPECT_EQ(result.stats.k0, 96);
    EXPECT_EQ(result.stats.k1, 96);
    const Matrix exact =
        exactAttention(fx.tokens, fx.tokens, fx.params);
    EXPECT_LT(relativeError(result.output, exact), 1e-3f);
}

TEST(CtaAttentionTest, ClusteredWorkloadHighFidelity)
{
    Fixture fx(256, 32, 16, 0.02f);
    CtaConfig config;
    config.w0 = 0.5f;
    config.w1 = 0.5f;
    config.w2 = 0.25f;
    const CtaResult result =
        ctaAttention(fx.tokens, fx.tokens, fx.params, config);
    const Matrix exact =
        exactAttention(fx.tokens, fx.tokens, fx.params);
    const auto err = cta::alg::compareOutputs(result.output, exact);
    EXPECT_GT(err.meanCosine, 0.98f);
    EXPECT_LT(err.relativeFrobenius, 0.15f);
    // And it must actually compress.
    EXPECT_LT(result.stats.k0, 256);
    EXPECT_LT(result.stats.k1 + result.stats.k2, 2 * 256);
}

TEST(CtaAttentionTest, RowMaxSubtractionIsOutputInvariant)
{
    Fixture fx(128, 16, 8);
    CtaConfig with_max, without_max;
    with_max.subtractRowMax = true;
    without_max.subtractRowMax = false;
    const CtaResult a =
        ctaAttention(fx.tokens, fx.tokens, fx.params, with_max);
    const CtaResult b =
        ctaAttention(fx.tokens, fx.tokens, fx.params, without_max);
    EXPECT_LT(relativeError(a.output, b.output), 1e-3f)
        << "PPE max subtraction must cancel in normalization";
}

TEST(CtaAttentionTest, ApRowSumsAreTwiceProbabilityMass)
{
    // Each token contributes exp(s1+s2) twice per AP row, so the row
    // sum equals 2 * sum_j p_j (the basis of the half-sum division).
    Fixture fx(64, 16, 8);
    CtaConfig config;
    config.subtractRowMax = false;
    const CtaResult r =
        ctaAttention(fx.tokens, fx.tokens, fx.params, config);
    const auto &inter = r.inter;
    const Index k1 = r.stats.k1;
    for (Index i = 0; i < r.stats.k0; ++i) {
        double direct = 0;
        for (Index j = 0; j < 64; ++j) {
            const Index c1 =
                inter.kvComp.level1.table[static_cast<std::size_t>(j)];
            const Index c2 = k1 +
                inter.kvComp.level2.table[static_cast<std::size_t>(j)];
            direct += std::exp(inter.sBar(i, c1) + inter.sBar(i, c2));
        }
        EXPECT_NEAR(inter.apRowSums(i, 0), 2.0 * direct,
                    2e-3 * std::abs(2.0 * direct) + 1e-6);
    }
}

TEST(CtaAttentionTest, OutputConstantWithinQueryCluster)
{
    Fixture fx(128, 16, 8);
    CtaConfig config;
    const CtaResult r =
        ctaAttention(fx.tokens, fx.tokens, fx.params, config);
    const auto &ct0 = r.inter.queryComp.table;
    for (Index i = 0; i < 128; ++i) {
        for (Index j = i + 1; j < 128; ++j) {
            if (ct0[static_cast<std::size_t>(i)] ==
                ct0[static_cast<std::size_t>(j)]) {
                for (Index c = 0; c < 8; ++c)
                    EXPECT_FLOAT_EQ(r.output(i, c), r.output(j, c));
            }
        }
    }
}

TEST(CtaAttentionTest, StatsShapesConsistent)
{
    Fixture fx(100, 16, 8);
    const CtaResult r =
        ctaAttention(fx.tokens, fx.tokens, fx.params, CtaConfig{});
    EXPECT_EQ(r.stats.m, 100);
    EXPECT_EQ(r.stats.n, 100);
    EXPECT_EQ(r.stats.k0, r.inter.qBar.rows());
    EXPECT_EQ(r.stats.k1 + r.stats.k2, r.inter.kBar.rows());
    EXPECT_EQ(r.inter.sBar.rows(), r.stats.k0);
    EXPECT_EQ(r.inter.sBar.cols(), r.stats.k1 + r.stats.k2);
    EXPECT_EQ(r.inter.ap.rows(), r.stats.k0);
}

TEST(CtaAttentionTest, KvProjectionIsTheConcatenatedForward)
{
    // K-bar and V-bar project each level's centroids on their own;
    // every row has the bits, and the charge the ops, of one forward
    // over the concatenated centroids.
    Fixture fx;
    const CtaResult r =
        ctaAttention(fx.tokens, fx.tokens, fx.params, CtaConfig{});
    Matrix c_cat = r.inter.kvComp.level1.centroids;
    c_cat.appendRows(r.inter.kvComp.level2.centroids);
    for (const auto *linear : {&fx.params.wk, &fx.params.wv}) {
        cta::core::OpCounts want_ops, got_ops;
        const Matrix want = linear->forward(c_cat, &want_ops);
        EXPECT_TRUE(bitIdentical(
            cta::alg::projectKvCentroids(*linear, r.inter.kvComp,
                                         &got_ops),
            want));
        EXPECT_EQ(got_ops, want_ops);
    }
    EXPECT_TRUE(bitIdentical(r.inter.kBar, fx.params.wk.forward(c_cat)));
    EXPECT_TRUE(bitIdentical(r.inter.vBar, fx.params.wv.forward(c_cat)));
}

TEST(CtaAttentionTest, IntoWritesOnlyItsColumns)
{
    // ctaAttentionInto() fills columns [col, col + d) with the bits of
    // ctaAttentionFromCompression()'s output, charges the same ops,
    // and leaves every other column alone.
    Fixture fx;
    const CtaResult r =
        ctaAttention(fx.tokens, fx.tokens, fx.params, CtaConfig{});
    const auto &qc = r.inter.queryComp;
    const auto &kv = r.inter.kvComp;
    const Index m = fx.tokens.rows();
    const Index d = fx.params.wq.outDim();
    const CtaResult from =
        cta::alg::ctaAttentionFromCompression(qc, kv, m, fx.params);
    constexpr Real kUntouched = 7.0f;
    Matrix out(m, 3 * d, kUntouched);
    const cta::alg::CtaHeadSummary head =
        cta::alg::ctaAttentionInto(qc, kv, fx.params, true, out, d);
    Matrix mid(m, d);
    for (Index i = 0; i < m; ++i)
        for (Index j = 0; j < 3 * d; ++j) {
            if (j >= d && j < 2 * d)
                mid(i, j - d) = out(i, j);
            else
                EXPECT_EQ(out(i, j), kUntouched) << i << "," << j;
        }
    EXPECT_TRUE(bitIdentical(mid, from.output));
    EXPECT_TRUE(bitIdentical(from.output, r.output));
    EXPECT_EQ(head.totalOps(), from.totalOps());
    EXPECT_EQ(head.stats.k0, from.stats.k0);
    EXPECT_EQ(head.stats.k2, from.stats.k2);
}

TEST(CtaAttentionTest, MoreNoiseMoreClusters)
{
    CtaConfig config;
    Fixture clean(256, 32, 16, 0.01f, 5);
    Fixture noisy(256, 32, 16, 0.6f, 5);
    const auto r_clean =
        ctaAttention(clean.tokens, clean.tokens, clean.params, config);
    const auto r_noisy =
        ctaAttention(noisy.tokens, noisy.tokens, noisy.params, config);
    EXPECT_LT(r_clean.stats.k0, r_noisy.stats.k0);
}

TEST(CtaAttentionTest, CrossAttentionSupported)
{
    Rng rng(20);
    const auto params = AttentionHeadParams::randomInit(16, 8, rng);
    const Matrix xq = Matrix::randomNormal(40, 16, rng, 0, 0.3f);
    const Matrix xkv = Matrix::randomNormal(70, 16, rng, 0, 0.3f);
    const CtaResult r = ctaAttention(xq, xkv, params, CtaConfig{});
    EXPECT_EQ(r.output.rows(), 40);
    EXPECT_EQ(r.stats.m, 40);
    EXPECT_EQ(r.stats.n, 70);
}

TEST(AggregateProbabilitiesTest, MatchesHandComputation)
{
    // k0 = 1, k1 = 2, k2 = 1, n = 2 hand-checkable example.
    Matrix s_bar(1, 3);
    s_bar(0, 0) = 0.1f; // level-1 cluster 0
    s_bar(0, 1) = 0.2f; // level-1 cluster 1
    s_bar(0, 2) = 0.3f; // level-2 cluster 0 (column k1+0)
    // Two tokens, (c1, c2) = (0, 0) and (1, 0), each of count 1.
    const std::vector<cta::alg::ClusterPairCounts::Pair> tokens{
        {0, 0, 1}, {1, 0, 1}};
    Matrix ap(1, 3), sums(1, 1);
    cta::alg::aggregatePairs(s_bar.data(), 1, 2, 3, tokens, ap.data(),
                             sums.data());
    const Real p0 = std::exp(0.1f + 0.3f);
    const Real p1 = std::exp(0.2f + 0.3f);
    EXPECT_NEAR(ap(0, 0), p0, 1e-5f);
    EXPECT_NEAR(ap(0, 1), p1, 1e-5f);
    EXPECT_NEAR(ap(0, 2), p0 + p1, 1e-5f);
    EXPECT_NEAR(sums(0, 0), 2 * (p0 + p1), 1e-4f);
}

TEST(ClusterPairCountsTest, AnyBatchSplitMatchesOnePairAtATime)
{
    // Random pair streams over a small id range (so pairs repeat),
    // cut into batches at random points: pair order, counts and the
    // token total must equal adding one pair at a time. Batches of
    // one take the linear-scan path, longer ones the batch index.
    using Pair = cta::alg::ClusterPairCounts::Pair;
    Rng rng(41);
    for (int trial = 0; trial < 50; ++trial) {
        const auto n = static_cast<std::size_t>(1 + rng.uniformInt(300));
        const auto range1 = 1 + rng.uniformInt(12);
        const auto range2 = 1 + rng.uniformInt(12);
        std::vector<Index> c1(n), c2(n);
        for (std::size_t t = 0; t < n; ++t) {
            c1[t] = static_cast<Index>(rng.uniformInt(range1));
            c2[t] = static_cast<Index>(rng.uniformInt(range2));
        }
        cta::alg::ClusterPairCounts single;
        for (std::size_t t = 0; t < n; ++t)
            single.addBatch(std::span(c1).subspan(t, 1),
                            std::span(c2).subspan(t, 1));
        cta::alg::ClusterPairCounts split;
        for (std::size_t at = 0; at < n;) {
            const std::size_t len = std::min<std::size_t>(
                n - at, 1 + rng.uniformInt(n - at));
            split.addBatch(std::span(c1).subspan(at, len),
                           std::span(c2).subspan(at, len));
            at += len;
        }
        const std::vector<Pair> want = single.pairs();
        const std::vector<Pair> got = split.pairs();
        ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].c1, want[i].c1) << trial << ":" << i;
            EXPECT_EQ(got[i].c2, want[i].c2) << trial << ":" << i;
            EXPECT_EQ(got[i].count, want[i].count) << trial << ":" << i;
        }
        EXPECT_EQ(split.tokens(), static_cast<Index>(n));
        EXPECT_EQ(single.tokens(), static_cast<Index>(n));
    }
}

/** Property sweep over sequence lengths: error stays bounded. */
class CtaSeqLenTest : public ::testing::TestWithParam<int>
{
};

TEST_P(CtaSeqLenTest, BoundedErrorAcrossLengths)
{
    const Index n = GetParam();
    Fixture fx(n, 32, 16, 0.03f, static_cast<std::uint64_t>(n));
    CtaConfig config;
    config.w0 = 0.6f;
    config.w1 = 0.6f;
    config.w2 = 0.3f;
    const CtaResult r =
        ctaAttention(fx.tokens, fx.tokens, fx.params, config);
    const Matrix exact =
        exactAttention(fx.tokens, fx.tokens, fx.params);
    const auto err = cta::alg::compareOutputs(r.output, exact);
    EXPECT_GT(err.meanCosine, 0.95f) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Lengths, CtaSeqLenTest,
                         ::testing::Values(64, 128, 256, 384, 512));

} // namespace
