#include "cta/quantization.h"

#include <cmath>

#include "core/logging.h"
#include "core/rng.h"
#include "cta/fused_decode.h"
#include "nn/softmax.h"

namespace cta::alg {

using core::Index;
using core::Matrix;
using core::QuantScheme;
using core::Real;

namespace {

/** Quantizes a Linear's weights to the range-fit 12-bit format. */
nn::Linear
quantizeLinear(const nn::Linear &layer, int total_bits)
{
    const core::FxpFormat fmt =
        core::fitWeightFormat(layer.weight(), total_bits);
    return nn::Linear(core::quantizeMatrix(layer.weight(), fmt));
}

} // namespace

CtaResult
ctaAttentionQuantized(const Matrix &xq, const Matrix &xkv,
                      const nn::AttentionHeadParams &params,
                      const CtaConfig &config, const QuantScheme &scheme)
{
    // Quantize the hardware-resident inputs once, up front.
    const Matrix xq_q = quantizeMatrix(xq, scheme.tokens);
    const Matrix xkv_q = &xq == &xkv
        ? xq_q : quantizeMatrix(xkv, scheme.tokens);

    nn::AttentionHeadParams params_q{
        quantizeLinear(params.wq, scheme.weights.totalBits),
        quantizeLinear(params.wk, scheme.weights.totalBits),
        quantizeLinear(params.wv, scheme.weights.totalBits),
    };

    // Run the float pipeline structure with quantization applied at
    // every module boundary. We re-implement the stage sequence here
    // (instead of calling ctaAttention) so intermediate tensors can be
    // snapped to their grids exactly where hardware stores them.
    CtaResult result;
    const Index m = xq_q.rows();
    const Index n = xkv_q.rows();
    const Index dw = xq_q.cols();

    core::Rng rng(config.seed);
    LshParams lsh0 =
        LshParams::sample(config.hashLen, dw, config.w0, rng);
    LshParams lsh1 =
        LshParams::sample(config.hashLen, dw, config.w1, rng);
    LshParams lsh2 =
        LshParams::sample(config.hashLen, dw, config.w2, rng);
    // LSH parameters live in weight memory at 12-bit (Q3.9 by the
    // three-sigma rule for A ~ N(0,1)).
    lsh0.a = quantizeMatrix(lsh0.a, scheme.lshParams);
    lsh1.a = quantizeMatrix(lsh1.a, scheme.lshParams);
    lsh2.a = quantizeMatrix(lsh2.a, scheme.lshParams);

    result.inter.kvComp = compressTwoLevel(xkv_q, lsh1, lsh2,
                                           &result.overheadOps);
    result.inter.queryComp =
        compressTokens(xq_q, lsh0, &result.overheadOps);

    // Centroids are written back to result memory at 12-bit Q6.6.
    result.inter.queryComp.centroids = quantizeMatrix(
        result.inter.queryComp.centroids, scheme.centroids);
    result.inter.kvComp.level1.centroids = quantizeMatrix(
        result.inter.kvComp.level1.centroids, scheme.centroids);
    result.inter.kvComp.level2.centroids = quantizeMatrix(
        result.inter.kvComp.level2.centroids, scheme.centroids);

    const Index k0 = result.inter.queryComp.numClusters;
    const Index k1 = result.inter.kvComp.level1.numClusters;
    const Index k2 = result.inter.kvComp.level2.numClusters;

    result.inter.qBar = quantizeMatrix(
        params_q.wq.forward(result.inter.queryComp.centroids,
                            &result.linearOps),
        scheme.centroids);
    result.inter.kBar = quantizeMatrix(
        projectKvCentroids(params_q.wk, result.inter.kvComp,
                           &result.linearOps),
        scheme.centroids);
    result.inter.vBar = quantizeMatrix(
        projectKvCentroids(params_q.wv, result.inter.kvComp,
                           &result.linearOps),
        scheme.centroids);
    const Index d = result.inter.qBar.cols();

    // Row-max subtraction is mandatory in fixed point: it bounds the
    // exp-LUT input range (paper SIV-B score phase). The scores are
    // written back at Q7.9 before aggregation.
    const Index k_total = k1 + k2;
    CtaIntermediates &inter = result.inter;
    std::vector<const Real *> k_rows(static_cast<std::size_t>(k_total));
    for (Index j = 0; j < k_total; ++j)
        k_rows[static_cast<std::size_t>(j)] = inter.kBar.row(j).data();
    compressedScores(inter.qBar, k_rows.data(), k1, k2,
                     1.0f / std::sqrt(static_cast<Real>(d)),
                     /*subtract_row_max=*/true, inter.sBar,
                     &result.attnOps);
    inter.sBar = quantizeMatrix(inter.sBar, scheme.scores);

    inter.ap = Matrix(k0, k_total);
    inter.apRowSums = Matrix(k0, 1);
    core::OpCounts agg_ops;
    aggregatePairs(inter.sBar.data(), k0, k1, k_total,
                   tokenPairs(inter.kvComp), inter.ap.data(),
                   inter.apRowSums.data(), &agg_ops);
    result.attnOps.exps += agg_ops.exps;
    result.overheadOps.adds += agg_ops.adds;

    const Matrix o_bar = matmul(inter.ap, inter.vBar, &result.attnOps);

    Matrix o_norm(k0, d);
    for (Index i = 0; i < k0; ++i) {
        const Real denom = inter.apRowSums(i, 0) * 0.5f;
        CTA_ASSERT(denom > 0, "zero attention denominator");
        const Real inv = 1.0f / denom;
        for (Index j = 0; j < d; ++j)
            o_norm(i, j) = o_bar(i, j) * inv;
    }
    result.attnOps.divs += static_cast<std::uint64_t>(k0) * d;
    o_norm = quantizeMatrix(o_norm, scheme.tokens);

    result.output = Matrix(m, d);
    for (Index i = 0; i < m; ++i) {
        const Index c = inter.queryComp.table[static_cast<std::size_t>(i)];
        for (Index j = 0; j < d; ++j)
            result.output(i, j) = o_norm(c, j);
    }

    result.stats = CompressionStats{m, n, dw, d, k0, k1, k2};
    return result;
}

Matrix
exactAttentionQuantized(const Matrix &xq, const Matrix &xkv,
                        const nn::AttentionHeadParams &params,
                        const QuantScheme &scheme)
{
    const Matrix xq_q = quantizeMatrix(xq, scheme.tokens);
    const Matrix xkv_q = &xq == &xkv
        ? xq_q : quantizeMatrix(xkv, scheme.tokens);
    nn::AttentionHeadParams params_q{
        quantizeLinear(params.wq, scheme.weights.totalBits),
        quantizeLinear(params.wk, scheme.weights.totalBits),
        quantizeLinear(params.wv, scheme.weights.totalBits),
    };
    return nn::exactAttention(xq_q, xkv_q, params_q);
}

} // namespace cta::alg
