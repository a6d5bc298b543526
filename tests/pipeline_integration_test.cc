/**
 * @file
 * End-to-end integration test: executes the complete CTA pipeline
 * with every matrix stage computed by the *functional* cycle-level
 * systolic array (dataflow 1 for LSH projections, linears and
 * scores; dataflow 2 for outputs) and the hardware-faithful
 * LinearClusterTree as the CIM — then checks the final attention
 * output bit-for-bit against the algorithm library. This is the
 * hardware/software equivalence proof across module boundaries.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "cta/compressed_attention.h"
#include "cta/compression.h"
#include "cta/fused_decode.h"
#include "cta_accel/sa_functional.h"
#include "nn/workload.h"

namespace {

using cta::accel::FunctionalSystolicArray;
using cta::alg::ClusterTable;
using cta::alg::CompressionLevel;
using cta::alg::CtaConfig;
using cta::alg::HashMatrix;
using cta::alg::LinearClusterTree;
using cta::alg::LshParams;
using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;
using cta::core::Rng;

/** LSH on the functional SA: dataflow 1 + PPE (bias, 1/w, floor),
 *  clustered by the hardware trie. */
CompressionLevel
hardwareCompress(const FunctionalSystolicArray &sa, const Matrix &x,
                 const LshParams &params)
{
    const auto projections = sa.runDataflow1(params.a, x);
    HashMatrix codes(x.rows(), params.hashLen());
    for (Index i = 0; i < x.rows(); ++i) {
        for (Index j = 0; j < params.hashLen(); ++j) {
            codes(i, j) = static_cast<std::int32_t>(std::floor(
                (projections.result(i, j) + params.b(j, 0)) /
                params.w));
        }
    }
    LinearClusterTree cim(params.hashLen());
    ClusterTable table;
    for (Index i = 0; i < codes.rows(); ++i)
        table.table.push_back(cim.assign(codes.code(i)));
    table.numClusters = cim.numClusters();
    CompressionLevel level;
    level.centroids = aggregateCentroids(x, table);
    level.numClusters = table.numClusters;
    level.table = std::move(table.table);
    return level;
}

/** Linear phase on the functional SA in saWidth-token batches. */
Matrix
hardwareLinear(const FunctionalSystolicArray &sa, const Matrix &tokens,
               const Matrix &weight)
{
    // Stationary: a batch of tokens (one per column); streaming: the
    // weight columns (transposed to rows).
    const Matrix wt = transpose(weight);
    Matrix out(tokens.rows(), weight.cols());
    for (Index start = 0; start < tokens.rows();
         start += sa.width()) {
        const Index end =
            std::min(tokens.rows(), start + sa.width());
        const Matrix batch = tokens.rowSlice(start, end);
        const auto run = sa.runDataflow1(batch, wt);
        // run.result(c, i) = <W[:,c], token_i>.
        for (Index i = 0; i < end - start; ++i)
            for (Index c = 0; c < weight.cols(); ++c)
                out(start + i, c) = run.result(c, i);
    }
    return out;
}

TEST(PipelineIntegrationTest, FunctionalHardwareMatchesAlgorithm)
{
    constexpr Index kSeq = 96;
    constexpr Index kDim = 16;
    cta::nn::WorkloadProfile profile;
    profile.seqLen = kSeq;
    profile.tokenDim = kDim;
    profile.coarseClusters = 10;
    profile.fineClusters = 6;
    cta::nn::WorkloadGenerator gen(profile, 1);
    const Matrix x = gen.sampleTokens();
    Rng rng(2);
    const auto head =
        cta::nn::AttentionHeadParams::randomInit(kDim, kDim, rng);

    CtaConfig config;
    config.w0 = 0.8f;
    config.w1 = 0.8f;
    config.w2 = 0.4f;
    config.subtractRowMax = true;

    // ---- Reference: algorithm library. ----
    const auto reference = ctaAttention(x, x, head, config);

    // ---- "Hardware" path on the functional SA. ----
    const FunctionalSystolicArray sa(8, kDim);
    const auto lsh = cta::alg::sampleLshParams(config, kDim);

    // Token compression: LSH1, residuals, LSH2, LSH0 — all through
    // the SA + CIM trie.
    cta::alg::TwoLevelCompression kv;
    kv.level1 = hardwareCompress(sa, x, lsh.lsh1);
    Matrix residual(kSeq, kDim);
    for (Index i = 0; i < kSeq; ++i) {
        const Index c = kv.level1.table[static_cast<std::size_t>(i)];
        for (Index j = 0; j < kDim; ++j)
            residual(i, j) = x(i, j) - kv.level1.centroids(c, j);
    }
    kv.level2 = hardwareCompress(sa, residual, lsh.lsh2);
    const CompressionLevel qc = hardwareCompress(sa, x, lsh.lsh0);

    ASSERT_EQ(qc.table, reference.inter.queryComp.table);
    ASSERT_EQ(kv.level1.table, reference.inter.kvComp.level1.table);
    ASSERT_EQ(kv.level2.table, reference.inter.kvComp.level2.table);

    // Linears on the SA.
    Matrix c_cat = kv.level1.centroids;
    c_cat.appendRows(kv.level2.centroids);
    const Matrix q_bar =
        hardwareLinear(sa, qc.centroids, head.wq.weight());
    const Matrix k_bar = hardwareLinear(sa, c_cat, head.wk.weight());
    const Matrix v_bar = hardwareLinear(sa, c_cat, head.wv.weight());
    EXPECT_LT(maxAbsDiff(q_bar, reference.inter.qBar), 1e-4f);
    EXPECT_LT(maxAbsDiff(k_bar, reference.inter.kBar), 1e-4f);

    // Scores on the SA (queries stationary, keys streaming), scaled
    // and max-adjusted like the PPE.
    const Index k0 = qc.numClusters;
    const Index k1 = kv.level1.numClusters;
    const Index k2 = kv.level2.numClusters;
    Matrix s_bar(k0, k1 + k2);
    const Real inv_sqrt_d =
        1.0f / std::sqrt(static_cast<Real>(kDim));
    for (Index start = 0; start < k0; start += sa.width()) {
        const Index end = std::min(k0, start + sa.width());
        const auto run = sa.runDataflow1(
            q_bar.rowSlice(start, end), k_bar);
        for (Index i = 0; i < end - start; ++i)
            for (Index j = 0; j < k1 + k2; ++j)
                s_bar(start + i, j) = run.result(j, i) * inv_sqrt_d;
    }
    for (Index i = 0; i < k0; ++i) {
        Real row_max = s_bar(i, 0);
        for (Index j = 1; j < k1; ++j)
            row_max = std::max(row_max, s_bar(i, j));
        for (Index j = k1; j < k1 + k2; ++j)
            s_bar(i, j) -= row_max;
    }
    EXPECT_LT(maxAbsDiff(s_bar, reference.inter.sBar), 1e-3f);

    // PAG + output phase (dataflow 2) + normalization + expansion.
    Matrix ap(k0, k1 + k2), sums(k0, 1);
    cta::alg::aggregatePairs(s_bar.data(), k0, k1, k1 + k2,
                             cta::alg::tokenPairs(kv), ap.data(),
                             sums.data());
    Matrix o_bar(k0, kDim);
    for (Index start = 0; start < k0; start += sa.width()) {
        const Index end = std::min(k0, start + sa.width());
        const auto run =
            sa.runDataflow2(ap.rowSlice(start, end), v_bar);
        for (Index i = 0; i < end - start; ++i)
            for (Index j = 0; j < kDim; ++j)
                o_bar(start + i, j) = run.result(i, j);
    }
    Matrix output(kSeq, kDim);
    for (Index i = 0; i < kSeq; ++i) {
        const Index c = qc.table[static_cast<std::size_t>(i)];
        const Real inv = 1.0f / (sums(c, 0) * 0.5f);
        for (Index j = 0; j < kDim; ++j)
            output(i, j) = o_bar(c, j) * inv;
    }
    EXPECT_LT(relativeError(output, reference.output), 1e-3f)
        << "functional hardware pipeline diverged from algorithm";
}

} // namespace
