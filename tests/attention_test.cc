/**
 * @file
 * Unit tests for exact attention: algebraic identities, op-count
 * formulas and the exact multi-head forward
 * (alg::CtaMultiHeadAttention::forwardExact).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/matrix.h"
#include "core/op_counter.h"
#include "core/rng.h"
#include "cta/multihead.h"
#include "nn/attention.h"
#include "nn/softmax.h"

namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::OpCounts;
using cta::core::Real;
using cta::core::Rng;
using cta::nn::AttentionHeadParams;

TEST(AttentionTest, OutputShape)
{
    Rng rng(1);
    const auto params = AttentionHeadParams::randomInit(16, 8, rng);
    const Matrix xq = Matrix::randomNormal(5, 16, rng);
    const Matrix xkv = Matrix::randomNormal(9, 16, rng);
    const Matrix out = exactAttention(xq, xkv, params);
    EXPECT_EQ(out.rows(), 5);
    EXPECT_EQ(out.cols(), 8);
}

TEST(AttentionTest, ProbabilitiesAreRowStochastic)
{
    Rng rng(2);
    const auto params = AttentionHeadParams::randomInit(12, 6, rng);
    const Matrix x = Matrix::randomNormal(7, 12, rng);
    const auto trace = exactAttentionTraced(x, x, params);
    for (Index i = 0; i < trace.probs.rows(); ++i) {
        Real sum = 0;
        for (Index j = 0; j < trace.probs.cols(); ++j)
            sum += trace.probs(i, j);
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(AttentionTest, SingleKeyReturnsItsValue)
{
    // With one key-value pair, attention output is exactly V's row.
    Rng rng(3);
    const auto params = AttentionHeadParams::randomInit(10, 4, rng);
    const Matrix xq = Matrix::randomNormal(3, 10, rng);
    const Matrix xkv = Matrix::randomNormal(1, 10, rng);
    const auto trace = exactAttentionTraced(xq, xkv, params);
    for (Index i = 0; i < 3; ++i)
        for (Index j = 0; j < 4; ++j)
            EXPECT_NEAR(trace.output(i, j), trace.v(0, j), 1e-5f);
}

TEST(AttentionTest, OutputIsConvexCombinationOfValues)
{
    Rng rng(4);
    const auto params = AttentionHeadParams::randomInit(8, 4, rng);
    const Matrix x = Matrix::randomNormal(6, 8, rng);
    const auto trace = exactAttentionTraced(x, x, params);
    // Each output coordinate lies within [min, max] of value column.
    for (Index j = 0; j < 4; ++j) {
        Real vmin = trace.v(0, j), vmax = trace.v(0, j);
        for (Index i = 1; i < 6; ++i) {
            vmin = std::min(vmin, trace.v(i, j));
            vmax = std::max(vmax, trace.v(i, j));
        }
        for (Index i = 0; i < 6; ++i) {
            EXPECT_GE(trace.output(i, j), vmin - 1e-5f);
            EXPECT_LE(trace.output(i, j), vmax + 1e-5f);
        }
    }
}

TEST(AttentionTest, ScoresAreScaledDotProducts)
{
    Rng rng(5);
    const auto params = AttentionHeadParams::randomInit(8, 4, rng);
    const Matrix x = Matrix::randomNormal(5, 8, rng);
    const auto trace = exactAttentionTraced(x, x, params);
    const Real inv_sqrt_d = 1.0f / std::sqrt(4.0f);
    for (Index i = 0; i < 5; ++i) {
        for (Index j = 0; j < 5; ++j) {
            Real dot = 0;
            for (Index k = 0; k < 4; ++k)
                dot += trace.q(i, k) * trace.k(j, k);
            EXPECT_NEAR(trace.scores(i, j), dot * inv_sqrt_d, 1e-4f);
        }
    }
}

TEST(AttentionTest, IdenticalTokensGiveIdenticalOutputs)
{
    // The semantic-repetition premise (paper SII-B): repeated tokens
    // produce exactly repeated queries, hence repeated outputs.
    Rng rng(6);
    const auto params = AttentionHeadParams::randomInit(8, 4, rng);
    Matrix x = Matrix::randomNormal(6, 8, rng);
    for (Index j = 0; j < 8; ++j)
        x(3, j) = x(1, j); // duplicate token 1 at position 3
    const Matrix out = exactAttention(x, x, params);
    for (Index j = 0; j < 4; ++j)
        EXPECT_NEAR(out(1, j), out(3, j), 1e-5f);
}

TEST(AttentionTest, MeasuredOpsMatchClosedForm)
{
    Rng rng(7);
    const Index m = 6, n = 9, dw = 12, d = 4;
    const auto params = AttentionHeadParams::randomInit(dw, d, rng);
    const Matrix xq = Matrix::randomNormal(m, dw, rng);
    const Matrix xkv = Matrix::randomNormal(n, dw, rng);
    OpCounts measured;
    exactAttention(xq, xkv, params, &measured);
    const OpCounts linears = cta::nn::exactLinearOps(m, n, dw, d);
    const OpCounts attn = cta::nn::exactAttentionCalcOps(m, n, d);
    EXPECT_EQ(measured.macs, linears.macs + attn.macs);
    EXPECT_EQ(measured.exps, attn.exps);
    EXPECT_EQ(measured.divs, attn.divs);
}

TEST(AttentionTest, SelfVsCrossSameTokensAgree)
{
    Rng rng(8);
    const auto params = AttentionHeadParams::randomInit(8, 4, rng);
    const Matrix x = Matrix::randomNormal(5, 8, rng);
    const Matrix self = exactAttention(x, x, params);
    Matrix copy = x;
    const Matrix cross = exactAttention(x, copy, params);
    EXPECT_LT(maxAbsDiff(self, cross), 1e-6f);
}

TEST(MultiHeadAttentionTest, ShapeAndDeterminism)
{
    Rng rng(9);
    const cta::alg::CtaMultiHeadAttention mha(32, 4, rng);
    EXPECT_EQ(mha.headDim(), 8);
    EXPECT_EQ(mha.heads().size(), 4u);
    Rng data_rng(10);
    const Matrix x = Matrix::randomNormal(6, 32, data_rng);
    const Matrix a = mha.forwardExact(x);
    const Matrix b = mha.forwardExact(x);
    EXPECT_EQ(a.rows(), 6);
    EXPECT_EQ(a.cols(), 32);
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<std::size_t>(a.size()) *
                              sizeof(Real)),
              0);
}


TEST(AttentionTest, CausalMaskZerosFutureProbabilities)
{
    Rng rng(20);
    const auto params = AttentionHeadParams::randomInit(8, 4, rng);
    const Matrix x = Matrix::randomNormal(6, 8, rng);
    const auto trace = cta::nn::exactAttentionTraced(
        x, x, params, nullptr, cta::nn::AttentionMask::Causal);
    for (Index i = 0; i < 6; ++i) {
        Real sum = 0;
        for (Index j = 0; j < 6; ++j) {
            if (j > i) {
                EXPECT_FLOAT_EQ(trace.probs(i, j), 0.0f);
            }
            sum += trace.probs(i, j);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(AttentionTest, CausalFirstRowAttendsOnlyItself)
{
    Rng rng(21);
    const auto params = AttentionHeadParams::randomInit(8, 4, rng);
    const Matrix x = Matrix::randomNormal(5, 8, rng);
    const auto trace = cta::nn::exactAttentionTraced(
        x, x, params, nullptr, cta::nn::AttentionMask::Causal);
    EXPECT_NEAR(trace.probs(0, 0), 1.0f, 1e-6f);
    for (Index j = 0; j < 4; ++j)
        EXPECT_NEAR(trace.output(0, j), trace.v(0, j), 1e-5f);
}

TEST(AttentionTest, CausalLastRowMatchesUnmasked)
{
    // The final query sees the whole prefix, so its masked output
    // equals the unmasked one.
    Rng rng(22);
    const auto params = AttentionHeadParams::randomInit(8, 4, rng);
    const Matrix x = Matrix::randomNormal(7, 8, rng);
    const auto masked = cta::nn::exactAttentionTraced(
        x, x, params, nullptr, cta::nn::AttentionMask::Causal);
    const auto full = cta::nn::exactAttentionTraced(x, x, params);
    for (Index j = 0; j < 4; ++j)
        EXPECT_NEAR(masked.output(6, j), full.output(6, j), 1e-5f);
}

TEST(AttentionTest, CausalCrossAttentionDies)
{
    Rng rng(23);
    const auto params = AttentionHeadParams::randomInit(8, 4, rng);
    const Matrix xq = Matrix::randomNormal(3, 8, rng);
    const Matrix xkv = Matrix::randomNormal(5, 8, rng);
    EXPECT_DEATH(cta::nn::exactAttention(
                     xq, xkv, params, nullptr,
                     cta::nn::AttentionMask::Causal),
                 "causal mask requires self-attention");
}

} // namespace
