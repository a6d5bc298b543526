/**
 * @file
 * Tests for multi-head CTA attention and the CTA encoder layer:
 * shared-compression correctness, accuracy tracking, and the
 * layer-level op savings.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/backend.h"
#include "core/op_counter.h"
#include "core/rng.h"
#include "cta/error.h"
#include "cta/multihead.h"
#include "nn/workload.h"

namespace {

using cta::alg::CtaEncoderLayer;
using cta::alg::CtaMultiHeadAttention;
using cta::alg::Preset;
using cta::core::Backend;
using cta::core::Index;
using cta::core::Matrix;
using cta::core::NaiveBackend;
using cta::core::OpCounts;
using cta::core::Real;
using cta::core::Rng;
using cta::core::SimdBackend;

class ScopedBackend
{
  public:
    explicit ScopedBackend(Backend *backend)
        : previous_(cta::core::setActiveBackend(backend))
    {
    }
    ~ScopedBackend() { cta::core::setActiveBackend(previous_); }

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

Matrix
clusteredTokens(Index n, Index d, std::uint64_t seed)
{
    cta::nn::WorkloadProfile profile;
    profile.seqLen = n;
    profile.tokenDim = d;
    profile.coarseClusters = 20;
    profile.fineClusters = 12;
    profile.noiseScale = 0.03f;
    cta::nn::WorkloadGenerator gen(profile, seed);
    return gen.sampleTokens();
}

TEST(CtaMultiHeadTest, RequiresCalibration)
{
    Rng rng(1);
    const CtaMultiHeadAttention mha(64, 2, rng);
    const Matrix x = clusteredTokens(64, 64, 2);
    EXPECT_DEATH(mha.forward(x), "before calibrate");
}

TEST(CtaMultiHeadTest, ForwardShapeAndDeterminism)
{
    Rng rng(1);
    CtaMultiHeadAttention mha(64, 2, rng);
    const Matrix x = clusteredTokens(128, 64, 2);
    mha.calibrate(x, Preset::Cta05);
    const Matrix a = mha.forward(x);
    const Matrix b = mha.forward(x);
    EXPECT_EQ(a.rows(), 128);
    EXPECT_EQ(a.cols(), 64);
    EXPECT_LT(maxAbsDiff(a, b), 1e-9f);
}

TEST(CtaMultiHeadTest, TracksExactAttention)
{
    Rng rng(3);
    CtaMultiHeadAttention mha(64, 4, rng);
    const Matrix x = clusteredTokens(192, 64, 4);
    mha.calibrate(x, Preset::Cta0);
    const Matrix approx = mha.forward(x);
    const Matrix exact = mha.forwardExact(x);
    const auto err = cta::alg::compareOutputs(approx, exact);
    EXPECT_GT(err.meanCosine, 0.97f);
}

TEST(CtaMultiHeadTest, SharedCompressionMatchesPerHeadCta)
{
    // Head h of the multi-head block must produce exactly what
    // single-head ctaAttention produces with the same config (same
    // seed -> same LSH -> same clustering), modulo the output
    // projection.
    Rng rng(5);
    CtaMultiHeadAttention mha(64, 2, rng);
    const Matrix x = clusteredTokens(96, 64, 6);
    mha.calibrate(x, Preset::Cta05);
    const auto direct = cta::alg::ctaAttention(
        x, x, mha.heads()[0], mha.config());
    // Reconstruct head 0's slice: forward() concatenates then
    // projects, so compare via a fresh shared-compression call.
    const auto lsh =
        cta::alg::sampleLshParams(mha.config(), x.cols());
    const auto kv =
        cta::alg::compressTwoLevel(x, lsh.lsh1, lsh.lsh2);
    const auto qc = cta::alg::compressTokens(x, lsh.lsh0);
    const auto shared = cta::alg::ctaAttentionFromCompression(
        qc, kv, x.rows(), mha.heads()[0],
        mha.config().subtractRowMax);
    EXPECT_TRUE(bitIdentical(shared.output, direct.output));
}

/** What forward() must equal: the shared compression, each head's
 *  ctaAttentionFromCompression() output in its columns, then the
 *  output projection — with every op charged along the way. */
struct ConcatenatedHeads
{
    Matrix output;
    OpCounts ops;
};

ConcatenatedHeads
concatenatedHeads(const CtaMultiHeadAttention &mha, const Matrix &x)
{
    ConcatenatedHeads ref;
    const auto lsh =
        cta::alg::sampleLshParams(mha.config(), x.cols());
    const auto kv =
        cta::alg::compressTwoLevel(x, lsh.lsh1, lsh.lsh2, &ref.ops);
    const auto qc = cta::alg::compressTokens(x, lsh.lsh0, &ref.ops);
    const Index d = mha.headDim();
    const auto heads = static_cast<Index>(mha.heads().size());
    Matrix all(x.rows(), d * heads);
    for (Index h = 0; h < heads; ++h) {
        const auto r = cta::alg::ctaAttentionFromCompression(
            qc, kv, x.rows(), mha.heads()[static_cast<std::size_t>(h)],
            mha.config().subtractRowMax);
        // The compression is borrowed, never copied into the result.
        EXPECT_TRUE(r.inter.queryComp.table.empty());
        EXPECT_TRUE(r.inter.kvComp.level1.table.empty());
        // Stage 2 projects k0 query and k1 + k2 K/V centroids.
        const auto &st = r.stats;
        EXPECT_EQ(r.linearOps.macs,
                  static_cast<std::uint64_t>(st.k0 + 2 * (st.k1 + st.k2)) *
                      static_cast<std::uint64_t>(st.dw * st.d));
        ref.ops += r.totalOps();
        for (Index i = 0; i < x.rows(); ++i)
            for (Index j = 0; j < d; ++j)
                all(i, h * d + j) = r.output(i, j);
    }
    ref.output = mha.outputProj().forward(all, &ref.ops);
    return ref;
}

TEST(CtaMultiHeadTest, ForwardIsProjectedConcatenationOfHeads)
{
    // Heads write straight into their columns of the concatenated
    // matrix from pool threads; that must be bit for bit the
    // per-head outputs concatenated in head order, with the same op
    // counts, under every backend — and the same bits across them.
    Rng rng(15);
    CtaMultiHeadAttention mha(128, 4, rng);
    const Matrix x = clusteredTokens(160, 128, 16);
    mha.calibrate(x, Preset::Cta05);
    NaiveBackend naive;
    SimdBackend one(1);
    SimdBackend two(2);
    SimdBackend eight(8);
    Matrix first;
    OpCounts first_ops;
    for (Backend *backend :
         std::vector<Backend *>{&naive, &one, &two, &eight}) {
        ScopedBackend guard(backend);
        const ConcatenatedHeads want = concatenatedHeads(mha, x);
        OpCounts ops;
        const Matrix got = mha.forward(x, &ops);
        EXPECT_TRUE(bitIdentical(got, want.output)) << backend->name();
        EXPECT_EQ(ops, want.ops) << backend->name();
        if (backend == &naive) {
            first = got;
            first_ops = ops;
        }
        EXPECT_TRUE(bitIdentical(got, first)) << backend->name();
        EXPECT_EQ(ops, first_ops) << backend->name();
    }
}

TEST(CtaMultiHeadTest, CompressionChargedOncePerLayer)
{
    Rng rng(7);
    const Matrix x = clusteredTokens(128, 64, 8);
    CtaMultiHeadAttention mha1(64, 1, rng);
    Rng rng2(7);
    CtaMultiHeadAttention mha4(64, 4, rng2);
    mha1.calibrate(x, Preset::Cta05);
    mha4.calibrate(x, Preset::Cta05);
    OpCounts ops1, ops4;
    mha1.forward(x, &ops1);
    mha4.forward(x, &ops4);
    // Hashing MACs (3*l*n*dw) appear once in both: the 4-head block
    // must NOT hash 4x.
    const std::uint64_t hash_macs = 3ull * 6 * 128 * 64;
    EXPECT_GE(ops1.macs, hash_macs);
    EXPECT_LT(ops4.macs, 4 * ops1.macs)
        << "shared compression should make 4 heads cheaper than "
           "4x single-head";
}

TEST(CtaEncoderLayerTest, ForwardTracksExact)
{
    Rng rng(9);
    CtaEncoderLayer layer(64, 2, 128, rng);
    const Matrix x = clusteredTokens(128, 64, 10);
    layer.calibrate(x, Preset::Cta0);
    const Matrix approx = layer.forward(x);
    const Matrix exact = layer.forwardExact(x);
    EXPECT_EQ(approx.rows(), 128);
    EXPECT_EQ(approx.cols(), 64);
    // Residual connections keep the layer output close even where
    // attention is approximated.
    EXPECT_LT(relativeError(approx, exact), 0.10f);
}

TEST(CtaEncoderLayerTest, StackRemainsStable)
{
    Rng rng(11);
    CtaEncoderLayer l0(64, 2, 128, rng);
    CtaEncoderLayer l1(64, 2, 128, rng);
    const Matrix x = clusteredTokens(96, 64, 12);
    l0.calibrate(x, Preset::Cta05);
    Matrix mid_exact = l0.forwardExact(x);
    l1.calibrate(mid_exact, Preset::Cta05);

    Matrix a = l1.forward(l0.forward(x));
    Matrix b = l1.forwardExact(l0.forwardExact(x));
    const auto err = cta::alg::compareOutputs(a, b);
    EXPECT_GT(err.meanCosine, 0.95f);
}

TEST(CtaMultiHeadTest, LastStatsPopulated)
{
    Rng rng(13);
    CtaMultiHeadAttention mha(64, 2, rng);
    const Matrix x = clusteredTokens(128, 64, 14);
    mha.calibrate(x, Preset::Cta1);
    mha.forward(x);
    const auto &stats = mha.lastStats();
    EXPECT_EQ(stats.m, 128);
    EXPECT_GT(stats.k0, 0);
    EXPECT_LT(stats.k0, 128);
}

} // namespace
