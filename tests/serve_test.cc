/**
 * @file
 * Tests for the serving layer's incremental compression state and
 * DecodeSession — above all the bit-exactness equivalence contract:
 * incrementally maintained cluster tables, centroids and projections
 * must match a from-scratch rebuild of the same prefix exactly, at
 * every prefix length, however the tokens are batched; step outputs
 * match the batch CTA path over that rebuild to rounding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "cta/compressed_attention.h"
#include "cta/compression.h"
#include "cta/config.h"
#include "nn/model_zoo.h"
#include "nn/workload.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/decode_session.h"

namespace {

using cta::alg::CompressionLevel;
using cta::alg::compressTokens;
using cta::alg::compressTwoLevel;
using cta::alg::compressTwoLevelDecode;
using cta::alg::IncrementalCompression;
using cta::alg::IncrementalTwoLevelCompression;
using cta::alg::TwoLevelCompression;
using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;
using cta::core::Rng;
using cta::serve::DecodeSession;
using cta::serve::ServeConfig;

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    return std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) *
                           sizeof(Real)) == 0;
}

/** Cluster-structured tokens the LSH compression actually compresses
 *  (pure noise would make every token its own cluster). */
Matrix
sampleTokens(Index n, Index dim, std::uint64_t seed)
{
    cta::nn::WorkloadProfile profile;
    profile.seqLen = n;
    profile.tokenDim = dim;
    profile.coarseClusters = 8;
    profile.fineClusters = 6;
    profile.noiseScale = 0.05f;
    cta::nn::WorkloadGenerator gen(profile, seed);
    return gen.sampleTokens();
}

void
expectLevelsBitIdentical(const CompressionLevel &got,
                         const CompressionLevel &want, Index prefix)
{
    ASSERT_EQ(got.numClusters, want.numClusters)
        << "prefix " << prefix;
    ASSERT_EQ(got.table, want.table) << "prefix " << prefix;
    EXPECT_TRUE(bitIdentical(got.centroids, want.centroids))
        << "prefix " << prefix;
}

/** Appends every row of @p rows to @p kv as one batch. */
void
appendRows(IncrementalTwoLevelCompression &kv, const Matrix &rows)
{
    std::vector<Index> c1(static_cast<std::size_t>(rows.rows()));
    std::vector<Index> c2(c1.size());
    kv.appendBatch(rows, c1, c2);
}

TEST(IncrementalCompressionTest, MatchesBatchAtEveryPrefix)
{
    const Index n = 96, dim = 32;
    const Matrix tokens = sampleTokens(n, dim, 11);
    cta::alg::CtaConfig config;
    const auto lsh = cta::alg::sampleLshParams(config, dim);

    IncrementalCompression inc(lsh.lsh1);
    for (Index i = 0; i < n; ++i) {
        Index cluster = -1;
        inc.appendBatch(tokens.rowSlice(i, i + 1), {&cluster, 1});
        ASSERT_EQ(cluster, inc.clusters().assignments()[i]);
        const CompressionLevel ref =
            compressTokens(tokens.rowSlice(0, i + 1), lsh.lsh1);
        expectLevelsBitIdentical(inc.level(), ref, i + 1);
    }
    EXPECT_EQ(inc.size(), n);
}

TEST(IncrementalTwoLevelTest, SnapshotMatchesDecodeRebuildAtEveryPrefix)
{
    const Index n = 96, dim = 32;
    const Matrix tokens = sampleTokens(n, dim, 12);
    cta::alg::CtaConfig config;
    const auto lsh = cta::alg::sampleLshParams(config, dim);

    IncrementalTwoLevelCompression inc(lsh.lsh1, lsh.lsh2);
    for (Index i = 0; i < n; ++i) {
        appendRows(inc, tokens.rowSlice(i, i + 1));
        const TwoLevelCompression ref = compressTwoLevelDecode(
            tokens.rowSlice(0, i + 1), lsh.lsh1, lsh.lsh2);
        const TwoLevelCompression snap = inc.snapshot();
        expectLevelsBitIdentical(snap.level1, ref.level1, i + 1);
        expectLevelsBitIdentical(snap.level2, ref.level2, i + 1);
    }
}

TEST(CompressTwoLevelDecodeTest, Level1MatchesBatchCompression)
{
    // The decode-time semantics only changes level-2 residual
    // formation; level 1 must be exactly the batch compression.
    const Index n = 80, dim = 32;
    const Matrix tokens = sampleTokens(n, dim, 13);
    cta::alg::CtaConfig config;
    const auto lsh = cta::alg::sampleLshParams(config, dim);

    const TwoLevelCompression decode =
        compressTwoLevelDecode(tokens, lsh.lsh1, lsh.lsh2);
    const TwoLevelCompression batch =
        compressTwoLevel(tokens, lsh.lsh1, lsh.lsh2);
    expectLevelsBitIdentical(decode.level1, batch.level1, n);
}

TEST(DecodeSessionTest, StepMatchesBatchRebuildEveryStep)
{
    // At every step the incremental state is bit-identical to a
    // from-scratch rebuild of the prefix, and the output agrees with
    // the batch CTA path over that rebuild to rounding: the fused
    // kernel aggregates per (c1, c2) pair, the batch path per token.
    const Index prefill = 48, steps = 24, dim = 32, d = 16;
    const Matrix tokens = sampleTokens(prefill + steps, dim, 14);
    Rng rng(3);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    const ServeConfig config;
    DecodeSession session(params, config, dim);
    session.prefill(tokens.rowSlice(0, prefill));
    ASSERT_EQ(session.contextLength(), prefill);

    const auto lsh = cta::alg::sampleLshParams(config.cta, dim);
    for (Index i = prefill; i < prefill + steps; ++i) {
        const Matrix out = session.step(tokens.row(i));

        // From-scratch rebuild of the same prefix: the new token is
        // the lone query (its own cluster, centroid = itself).
        const TwoLevelCompression kv_ref = compressTwoLevelDecode(
            tokens.rowSlice(0, i + 1), lsh.lsh1, lsh.lsh2);
        const TwoLevelCompression kv = session.kv().snapshot();
        expectLevelsBitIdentical(kv.level1, kv_ref.level1, i + 1);
        expectLevelsBitIdentical(kv.level2, kv_ref.level2, i + 1);

        CompressionLevel query;
        query.centroids = tokens.rowSlice(i, i + 1);
        query.table = {0};
        query.numClusters = 1;
        const cta::alg::CtaResult ref =
            cta::alg::ctaAttentionFromCompression(
                query, kv_ref, 1, params, config.cta.subtractRowMax);
        ASSERT_EQ(out.cols(), ref.output.cols());
        for (Index j = 0; j < out.cols(); ++j)
            EXPECT_NEAR(out(0, j), ref.output(0, j), 1e-4f)
                << "step " << i << " col " << j;
    }
}

TEST(DecodeSessionTest, CachedProjectionsMatchFullForward)
{
    const Index n = 72, dim = 32, d = 16;
    const Matrix tokens = sampleTokens(n, dim, 15);
    Rng rng(4);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    DecodeSession session(params, ServeConfig{}, dim);
    session.prefill(tokens);

    const TwoLevelCompression snap = session.kv().snapshot();
    EXPECT_TRUE(bitIdentical(session.kBar(1),
                             params.wk.forward(snap.level1.centroids)));
    EXPECT_TRUE(bitIdentical(session.kBar(2),
                             params.wk.forward(snap.level2.centroids)));
    EXPECT_TRUE(bitIdentical(session.vBar(1),
                             params.wv.forward(snap.level1.centroids)));
    EXPECT_TRUE(bitIdentical(session.vBar(2),
                             params.wv.forward(snap.level2.centroids)));
}

TEST(DecodeSessionTest, PairCountsMatchClusterTables)
{
    const Index n = 90, dim = 32;
    const Matrix tokens = sampleTokens(n, dim, 17);
    Rng rng(6);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, 16, rng);

    DecodeSession session(params, ServeConfig{}, dim);
    session.prefill(tokens);

    const TwoLevelCompression snap = session.kv().snapshot();
    EXPECT_EQ(session.pairs().tokens(), n);
    Index total = 0;
    for (const auto &pair : session.pairs().pairs()) {
        Index expect = 0;
        for (std::size_t i = 0; i < snap.level1.table.size(); ++i)
            if (snap.level1.table[i] == pair.c1 &&
                snap.level2.table[i] == pair.c2)
                ++expect;
        EXPECT_EQ(pair.count, expect);
        total += pair.count;
    }
    EXPECT_EQ(total, n);
}

/**
 * Asserts that two sessions hold bit-identical decode state: both
 * levels' tables, member sums, counts and centroids, the four cached
 * projections and the pair multiset (in first-seen order).
 */
void
expectSameSessionState(const DecodeSession &got, const DecodeSession &want,
                       const std::string &where)
{
    ASSERT_EQ(got.contextLength(), want.contextLength()) << where;
    const TwoLevelCompression g = got.kv().snapshot();
    const TwoLevelCompression w = want.kv().snapshot();
    expectLevelsBitIdentical(g.level1, w.level1, got.contextLength());
    expectLevelsBitIdentical(g.level2, w.level2, got.contextLength());
    for (const int level : {1, 2}) {
        const IncrementalCompression &gl =
            level == 1 ? got.kv().level1() : got.kv().level2();
        const IncrementalCompression &wl =
            level == 1 ? want.kv().level1() : want.kv().level2();
        EXPECT_TRUE(bitIdentical(gl.sums().toMatrix(),
                                 wl.sums().toMatrix()))
            << where << " sums" << level;
        EXPECT_EQ(gl.memberCounts(), wl.memberCounts())
            << where << " members" << level;
        EXPECT_TRUE(bitIdentical(got.kBar(level), want.kBar(level)))
            << where << " kBar" << level;
        EXPECT_TRUE(bitIdentical(got.vBar(level), want.vBar(level)))
            << where << " vBar" << level;
    }
    const auto gp = got.pairs().pairs();
    const auto wp = want.pairs().pairs();
    ASSERT_EQ(gp.size(), wp.size()) << where;
    for (std::size_t i = 0; i < gp.size(); ++i) {
        EXPECT_EQ(gp[i].c1, wp[i].c1) << where << " pair " << i;
        EXPECT_EQ(gp[i].c2, wp[i].c2) << where << " pair " << i;
        EXPECT_EQ(gp[i].count, wp[i].count) << where << " pair " << i;
    }
}

/** A session that step()s every row of @p tokens in order. */
void
stepAll(DecodeSession &session, const Matrix &tokens)
{
    for (Index i = 0; i < tokens.rows(); ++i)
        (void)session.step(tokens.row(i));
}

TEST(DecodeSessionTest, PrefillMatchesStepwiseIngestAtEverySplit)
{
    // A prompt ingested as one batch (one batch hash per level, one
    // projection per touched centroid) must land on exactly the state
    // step()'s one-row batches reach — for a prompt split into two
    // prefills anywhere, including empty halves.
    const Index n = 40, dim = 32, d = 16;
    const Matrix tokens = sampleTokens(n + 1, dim, 41);
    const Matrix prompt = tokens.rowSlice(0, n);
    Rng rng(14);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    DecodeSession stepped(params, ServeConfig{}, dim);
    stepAll(stepped, prompt);
    DecodeSession next(params, ServeConfig{}, dim);
    stepAll(next, prompt);
    const Matrix want = next.step(tokens.row(n));
    for (Index a = 0; a <= n; ++a) {
        DecodeSession session(params, ServeConfig{}, dim);
        session.prefill(prompt.rowSlice(0, a));
        session.prefill(prompt.rowSlice(a, n));
        expectSameSessionState(session, stepped,
                               "split " + std::to_string(a));
        if (a % 8 == 0) {
            // The state's consumers agree too: the next step's output.
            const Matrix got = session.step(tokens.row(n));
            EXPECT_TRUE(bitIdentical(got, want)) << "split " << a;
        }
    }
}

TEST(DecodeSessionTest, PrefillSanitizesNonFiniteRowsLikeStep)
{
    const Index n = 24, dim = 32, d = 16;
    Matrix prompt = sampleTokens(n, dim, 42);
    prompt(3, 1) = std::numeric_limits<Real>::quiet_NaN();
    prompt(3, 7) = std::numeric_limits<Real>::infinity();
    prompt(11, 0) = -std::numeric_limits<Real>::infinity();
    prompt(n - 1, dim - 1) = std::numeric_limits<Real>::quiet_NaN();
    Rng rng(15);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    cta::obs::setTraceEnabled(true);
    cta::obs::Counter &sanitized =
        cta::obs::counter("serve.sanitized_tokens");
    const std::uint64_t start = sanitized.value();
    DecodeSession stepped(params, ServeConfig{}, dim);
    stepAll(stepped, prompt);
    const std::uint64_t by_step = sanitized.value() - start;
    DecodeSession session(params, ServeConfig{}, dim);
    session.prefill(prompt);
    const std::uint64_t by_prefill = sanitized.value() - start - by_step;
    cta::obs::setTraceEnabled(false);

#ifndef CTA_OBS_DISABLED
    EXPECT_EQ(by_step, 3u);
#endif
    EXPECT_EQ(by_prefill, by_step);
    EXPECT_FALSE(session.fallbackActive());
    expectSameSessionState(session, stepped, "sanitized prompt");
}

TEST(DecodeSessionTest, PrefillOnForkLeavesDonorPagesUntouched)
{
    const Index base = 48, suffix = 20, dim = 32, d = 16;
    const Matrix tokens = sampleTokens(base + suffix + 1, dim, 43);
    Rng rng(16);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    DecodeSession parent(params, ServeConfig{}, dim);
    parent.prefill(tokens.rowSlice(0, base));
    const auto prefix = parent.sharedPrefix(0);
    // Independent copies of the donor state to compare against later.
    DecodeSession donor_twin(params, ServeConfig{}, dim);
    donor_twin.prefill(tokens.rowSlice(0, base));
    expectSameSessionState(prefix->donor(), donor_twin, "donor before");

    auto child = DecodeSession::forkFrom(prefix);
    child->prefill(tokens.rowSlice(base, base + suffix));

    DecodeSession stepped(params, ServeConfig{}, dim);
    stepAll(stepped, tokens.rowSlice(0, base + suffix));
    expectSameSessionState(*child, stepped, "forked prefill");
    expectSameSessionState(prefix->donor(), donor_twin, "donor after");
    expectSameSessionState(parent, donor_twin, "parent after");
    const Matrix got = child->step(tokens.row(base + suffix));
    const Matrix want = stepped.step(tokens.row(base + suffix));
    EXPECT_TRUE(bitIdentical(got, want));
}

TEST(DecodeSessionTest, PrefillAfterFallbackExtendsTheExactCaches)
{
    // n copies of one token collapse both levels to one cluster, so a
    // step past guardMinContext demotes the session; a later prefill
    // must then grow the exact K/V caches exactly as steps would.
    const Index dim = 32, d = 16;
    Matrix collapsed(9, dim);
    for (Index i = 0; i < collapsed.rows(); ++i)
        for (Index j = 0; j < dim; ++j)
            collapsed(i, j) = 0.1f * static_cast<Real>(j) - 0.3f;
    const Matrix more = sampleTokens(13, dim, 44);
    Rng rng(17);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);
    ServeConfig config;
    config.guardMinContext = 4;

    const auto demoted = [&] {
        auto session =
            std::make_unique<DecodeSession>(params, config, dim);
        session->prefill(collapsed.rowSlice(0, 8));
        (void)session->step(collapsed.row(8));
        return session;
    };
    auto session = demoted();
    auto stepped = demoted();
    ASSERT_TRUE(session->fallbackActive());
    session->prefill(more.rowSlice(0, 12));
    stepAll(*stepped, more.rowSlice(0, 12));
    expectSameSessionState(*session, *stepped, "after fallback");
    // The exact caches are private; the next exact step reads them.
    const Matrix got = session->step(more.row(12));
    const Matrix want = stepped->step(more.row(12));
    EXPECT_TRUE(bitIdentical(got, want));
}

TEST(DecodeSessionTest, StepCostIsFarBelowBatchRecompression)
{
    const Index n = 256, dim = 32, d = 16;
    const Matrix tokens = sampleTokens(n + 1, dim, 18);
    Rng rng(7);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    DecodeSession session(params, ServeConfig{}, dim);
    session.prefill(tokens.rowSlice(0, n));
    (void)session.step(tokens.row(n));

    // A batch CTA evaluation re-hashes and re-projects the whole
    // context; one incremental step touches O(l*d + (k1+k2)*d) state.
    const cta::alg::CtaResult batch = cta::alg::ctaAttention(
        tokens, tokens, params, cta::alg::CtaConfig{});
    EXPECT_LT(session.lastStepOps().flops() * 4,
              batch.totalOps().flops());
}

TEST(IncrementalTwoLevelTest, SaveRestoreRoundTripAtEveryPrefix)
{
    // A full (base-less) delta must rebuild trie, tables and
    // centroids so that continued appends are indistinguishable from
    // an uninterrupted run — checked by interrupting at every prefix.
    const Index n = 64, dim = 32;
    const Matrix tokens = sampleTokens(n, dim, 19);
    cta::alg::CtaConfig config;
    const auto lsh = cta::alg::sampleLshParams(config, dim);

    IncrementalTwoLevelCompression ref(lsh.lsh1, lsh.lsh2);
    for (Index cut = 0; cut < n; ++cut) {
        appendRows(ref, tokens.rowSlice(cut, cut + 1));
        IncrementalTwoLevelCompression resumed(lsh.lsh1, lsh.lsh2);
        resumed.restoreDelta(ref.saveDelta(nullptr));
        ASSERT_EQ(resumed.size(), cut + 1);
        const Index len = std::min(cut + 5, n);
        for (Index i = cut + 1; i < len; ++i)
            appendRows(resumed, tokens.rowSlice(i, i + 1));
        const TwoLevelCompression want = compressTwoLevelDecode(
            tokens.rowSlice(0, len), lsh.lsh1, lsh.lsh2);
        const TwoLevelCompression got = resumed.snapshot();
        expectLevelsBitIdentical(got.level1, want.level1, len);
        expectLevelsBitIdentical(got.level2, want.level2, len);
    }
}

TEST(DecodeSessionTest, EvictRestoreStepsBitIdenticalAtPrefixes)
{
    // The tentpole contract: serialize -> destroy -> deserialize ->
    // restore -> step must produce the same bits as a session that
    // was never evicted, at several interruption points.
    const Index prefill = 40, steps = 24, dim = 32, d = 16;
    const Matrix tokens = sampleTokens(prefill + steps, dim, 20);
    Rng rng(8);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    for (const Index cut : {Index{0}, Index{5}, Index{13}, Index{23}}) {
        DecodeSession reference(params, ServeConfig{}, dim);
        reference.prefill(tokens.rowSlice(0, prefill));
        std::vector<Matrix> want;
        for (Index i = 0; i < steps; ++i)
            want.push_back(reference.step(tokens.row(prefill + i)));

        DecodeSession victim(params, ServeConfig{}, dim);
        victim.prefill(tokens.rowSlice(0, prefill));
        for (Index i = 0; i < cut; ++i) {
            const Matrix out = victim.step(tokens.row(prefill + i));
            ASSERT_TRUE(bitIdentical(out, want[static_cast<
                std::size_t>(i)])) << "cut " << cut << " step " << i;
        }

        // Evict: through the byte codec, into a fresh session.
        const std::vector<std::uint8_t> blob =
            cta::serve::serializeSnapshot(victim.snapshot());
        DecodeSession restored(params, ServeConfig{}, dim);
        restored.restore(cta::serve::deserializeSnapshot(blob));
        ASSERT_EQ(restored.contextLength(), prefill + cut);

        for (Index i = cut; i < steps; ++i) {
            const Matrix out = restored.step(tokens.row(prefill + i));
            EXPECT_TRUE(bitIdentical(out, want[static_cast<
                std::size_t>(i)])) << "cut " << cut << " step " << i;
        }
    }
}

TEST(DecodeSessionTest, RestoredStateMatchesOriginalCaches)
{
    const Index n = 64, dim = 32, d = 16;
    const Matrix tokens = sampleTokens(n, dim, 21);
    Rng rng(9);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    DecodeSession original(params, ServeConfig{}, dim);
    original.prefill(tokens);
    DecodeSession restored(params, ServeConfig{}, dim);
    restored.restore(original.snapshot());

    // Re-derived caches must be bit-identical, not just close.
    EXPECT_TRUE(bitIdentical(restored.kBar(1), original.kBar(1)));
    EXPECT_TRUE(bitIdentical(restored.kBar(2), original.kBar(2)));
    EXPECT_TRUE(bitIdentical(restored.vBar(1), original.vBar(1)));
    EXPECT_TRUE(bitIdentical(restored.vBar(2), original.vBar(2)));
    EXPECT_EQ(restored.pairs().pairs().size(),
              original.pairs().pairs().size());
    EXPECT_EQ(restored.pairs().tokens(), original.pairs().tokens());
}

TEST(DecodeSessionTest, StateBytesAndBlobCompactness)
{
    const Index n = 96, dim = 32, d = 16;
    const Matrix tokens = sampleTokens(n, dim, 22);
    Rng rng(10);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    DecodeSession session(params, ServeConfig{}, dim);
    // Weights and LSH params are model cost, priced separately from
    // the per-session state the eviction budget manages.
    EXPECT_GT(session.modelBytes(),
              static_cast<std::size_t>(3 * dim * d) * sizeof(Real));
    // An empty session owns no state yet: pages, row overlays and the
    // code index all allocate on first use.
    const std::size_t empty_bytes = session.stateBytes();
    EXPECT_EQ(empty_bytes, 0u);
    session.prefill(tokens);
    const std::size_t full_bytes = session.stateBytes();
    EXPECT_GT(full_bytes, empty_bytes);

    // The eviction win: the serialized blob drops weights, tries,
    // centroids and cached projections, so it must be much smaller
    // than the live footprint.
    const auto blob = cta::serve::serializeSnapshot(session.snapshot());
    EXPECT_LT(blob.size(), full_bytes / 2);
}

TEST(DecodeSessionTest, ForkedChildStepsBitIdenticalToUnsharedTwin)
{
    // A forked child shares every prefix page copy-on-write, so its
    // decode must be bit-identical to a standalone session that paid
    // for the whole prefix itself — and diverging the child must not
    // perturb the parent.
    const Index prefill = 64, steps = 8, dim = 32, d = 16;
    const Matrix tokens = sampleTokens(prefill + 2 * steps, dim, 31);
    Rng rng(12);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    auto parent = std::make_unique<DecodeSession>(params, ServeConfig{},
                                                  dim);
    parent->prefill(tokens.rowSlice(0, prefill));
    const auto prefix = parent->sharedPrefix(0);
    auto child = DecodeSession::forkFrom(prefix);
    ASSERT_EQ(child->contextLength(), prefill);

    DecodeSession twin(params, ServeConfig{}, dim);
    twin.prefill(tokens.rowSlice(0, prefill));
    for (Index i = 0; i < steps; ++i) {
        const Matrix got = child->step(tokens.row(prefill + i));
        const Matrix want = twin.step(tokens.row(prefill + i));
        ASSERT_TRUE(bitIdentical(got, want)) << "step " << i;
    }

    // The parent then decodes a *different* continuation; the child's
    // CoW divergence must not have leaked into shared pages.
    DecodeSession parent_twin(params, ServeConfig{}, dim);
    parent_twin.prefill(tokens.rowSlice(0, prefill));
    for (Index i = 0; i < steps; ++i) {
        const Matrix got =
            parent->step(tokens.row(prefill + steps + i));
        const Matrix want =
            parent_twin.step(tokens.row(prefill + steps + i));
        ASSERT_TRUE(bitIdentical(got, want)) << "parent step " << i;
    }
}

TEST(DecodeSessionTest, ForkedDeltaSnapshotRestoresBitIdentically)
{
    // A forked session's snapshot holds only its divergence; applying
    // it to a fresh fork of the same prefix must reproduce the exact
    // state, and the blob must be far smaller than a full snapshot.
    const Index prefill = 64, steps = 4, dim = 32, d = 16;
    const Matrix tokens = sampleTokens(prefill + steps + 1, dim, 32);
    Rng rng(13);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    auto parent = std::make_unique<DecodeSession>(params, ServeConfig{},
                                                  dim);
    parent->prefill(tokens.rowSlice(0, prefill));
    const auto prefix = parent->sharedPrefix(0);
    auto child = DecodeSession::forkFrom(prefix);
    std::vector<Matrix> want;
    for (Index i = 0; i < steps; ++i)
        want.push_back(child->step(tokens.row(prefill + i)));

    const auto blob = cta::serve::serializeSnapshot(child->snapshot());
    const auto full_blob =
        cta::serve::serializeSnapshot(parent->snapshot());
    EXPECT_LT(blob.size(), full_blob.size() / 4)
        << "delta blob should skip the shared prefix";

    auto restored = DecodeSession::forkFrom(prefix);
    restored->restore(cta::serve::deserializeSnapshot(blob));
    ASSERT_EQ(restored->contextLength(), prefill + steps);
    EXPECT_TRUE(bitIdentical(restored->kBar(1), child->kBar(1)));
    EXPECT_TRUE(bitIdentical(restored->vBar(2), child->vBar(2)));
    const Matrix got = restored->step(tokens.row(prefill + steps));
    const Matrix ref = child->step(tokens.row(prefill + steps));
    EXPECT_TRUE(bitIdentical(got, ref));
}

TEST(DecodeSessionTest, StandaloneSessionNeverBuildsAnOverlay)
{
    // Every page of a never-forked session is solely owned, so every
    // write lands in place and no row overlay is ever made.
    const Index prompt = 96, steps = 200, dim = 32, d = 16;
    const Matrix tokens = sampleTokens(prompt + steps, dim, 51);
    Rng rng(21);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);
    DecodeSession session(params, ServeConfig{}, dim);
    session.prefill(tokens.rowSlice(0, prompt));
    stepAll(session, tokens.rowSlice(prompt, prompt + steps));
    EXPECT_EQ(session.overlayRowCount(), 0u);
    EXPECT_EQ(session.arena()->cowCopies(), 0u);
}

TEST(DecodeSessionTest, ForkPrivateBytesScaleWithRowsWritten)
{
    // A fork's private state is the cluster rows it writes, not the
    // pages they sit on. The serving benchmark's shape: one 64 x 64
    // head with CTA-0.5 calibrated on a WikiText-2-profile sample, a
    // 512-token prompt, a template fork of it, and a fork of the
    // template given 16, 40 and 63 private tokens.
    const Index dim = 64, d = 64, prompt = 512;
    Rng rng(20230225);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);
    ServeConfig config;
    const Matrix calib =
        cta::nn::WorkloadGenerator(
            cta::nn::datasetProfile("WikiText-2", 1024, dim), 7)
            .sampleTokens();
    config.cta =
        cta::alg::calibrate(calib, calib, cta::alg::Preset::Cta05);
    std::size_t sum = 0;
    std::size_t at63 = 0;
    for (const std::uint64_t doc_seed : {101u, 102u, 103u}) {
        const Matrix doc =
            cta::nn::WorkloadGenerator(
                cta::nn::datasetProfile("WikiText-2", prompt + 63, dim),
                doc_seed)
                .sampleTokens();
        DecodeSession parent(params, config, dim);
        parent.prefill(doc.rowSlice(0, prompt));
        auto templ = DecodeSession::forkFrom(parent.sharedPrefix(0));
        auto fork = DecodeSession::forkFrom(templ->sharedPrefix(1));
        Index stepped = 0;
        for (const Index tokens : {Index{16}, Index{40}, Index{63}}) {
            stepAll(*fork, doc.rowSlice(prompt + stepped, prompt + tokens));
            stepped = tokens;
            const std::size_t bytes = fork->stateBytes();
            sum += bytes;
            std::cout << "[ fork     ] doc " << doc_seed << ", " << tokens
                      << " private tokens: " << bytes / 1024.0
                      << " KiB private, " << fork->overlayRowCount()
                      << " overlay rows\n";
            if (tokens == 63) {
                at63 = std::max(at63, bytes);
                EXPECT_LE(bytes, std::size_t{110} << 10) << doc_seed;
            }
        }
    }
    EXPECT_LE(sum / 9, std::size_t{80} << 10);
    EXPECT_GT(at63, 0u);
}

TEST(DecodeSessionTest, ForkOfForkWithOverlayRowsMatchesTwin)
{
    // The middle session of a fork chain holds overlay rows when it is
    // frozen: the grandchild, the middle session itself and the
    // donor's own delta must all stay bit-identical to sessions that
    // were never forked.
    const Index base = 64, mid = 12, tail = 10, dim = 32, d = 16;
    const Matrix tokens = sampleTokens(base + mid + 2 * tail, dim, 52);
    Rng rng(22);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    DecodeSession root(params, ServeConfig{}, dim);
    root.prefill(tokens.rowSlice(0, base));
    const auto p0 = root.sharedPrefix(0);
    auto middle = DecodeSession::forkFrom(p0);
    stepAll(*middle, tokens.rowSlice(base, base + mid));
    ASSERT_GT(middle->overlayRowCount(), 0u);
    const auto middle_blob =
        cta::serve::serializeSnapshot(middle->snapshot());
    const auto p1 = middle->sharedPrefix(1);
    EXPECT_EQ(p1->donor().overlayRowCount(), 0u);
    // Freezing leaves the middle session's own delta as it was, and
    // the donor (a fork of p0 too) writes the same delta.
    EXPECT_EQ(cta::serve::serializeSnapshot(middle->snapshot()),
              middle_blob);
    EXPECT_EQ(cta::serve::serializeSnapshot(p1->donor().snapshot()),
              middle_blob);

    auto grandchild = DecodeSession::forkFrom(p1);
    EXPECT_EQ(grandchild->overlayRowCount(), 0u);
    DecodeSession twin(params, ServeConfig{}, dim);
    stepAll(twin, tokens.rowSlice(0, base + mid));
    DecodeSession middle_twin(params, ServeConfig{}, dim);
    stepAll(middle_twin, tokens.rowSlice(0, base + mid));
    const Index t0 = base + mid;
    for (Index i = 0; i < tail; ++i) {
        const Matrix got = grandchild->step(tokens.row(t0 + i));
        const Matrix want = twin.step(tokens.row(t0 + i));
        ASSERT_TRUE(bitIdentical(got, want)) << "grandchild step " << i;
        // The middle session decodes another continuation meanwhile.
        const Matrix got_mid = middle->step(tokens.row(t0 + tail + i));
        const Matrix want_mid =
            middle_twin.step(tokens.row(t0 + tail + i));
        ASSERT_TRUE(bitIdentical(got_mid, want_mid)) << "middle " << i;
    }
    expectSameSessionState(*grandchild, twin, "grandchild");
    expectSameSessionState(*middle, middle_twin, "middle");
    DecodeSession donor_twin(params, ServeConfig{}, dim);
    stepAll(donor_twin, tokens.rowSlice(0, base + mid));
    expectSameSessionState(p1->donor(), donor_twin, "donor");

    // Every session of the chain round-trips through its delta.
    for (const DecodeSession *live : {grandchild.get(), middle.get()}) {
        const auto blob = cta::serve::serializeSnapshot(live->snapshot());
        auto restored = DecodeSession::forkFrom(live->prefix());
        restored->restore(cta::serve::deserializeSnapshot(blob));
        expectSameSessionState(*restored, *live, "restored");
        EXPECT_EQ(cta::serve::serializeSnapshot(restored->snapshot()),
                  blob);
    }
}

TEST(DecodeSessionTest, EvictRestoreOfForkWithOverlayRowsIsBitIdentical)
{
    // A fork evicted and restored mid-stream (its overlay rebuilt from
    // the delta) must decode bit for bit like a fork that never left,
    // and write the same CTAS blob for the same state.
    const Index base = 80, steps = 30, dim = 32, d = 16;
    const Matrix tokens = sampleTokens(base + steps, dim, 53);
    Rng rng(23);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);
    DecodeSession parent(params, ServeConfig{}, dim);
    parent.prefill(tokens.rowSlice(0, base));
    const auto prefix = parent.sharedPrefix(0);
    auto kept = DecodeSession::forkFrom(prefix);
    auto evicted = DecodeSession::forkFrom(prefix);
    for (Index i = 0; i < steps; ++i) {
        if (i % 7 == 3) {
            const auto blob =
                cta::serve::serializeSnapshot(evicted->snapshot());
            EXPECT_EQ(cta::serve::serializeSnapshot(kept->snapshot()),
                      blob)
                << "step " << i;
            evicted = DecodeSession::forkFrom(prefix);
            evicted->restore(cta::serve::deserializeSnapshot(blob));
            EXPECT_GT(evicted->overlayRowCount(), 0u) << "step " << i;
        }
        const Matrix got = evicted->step(tokens.row(base + i));
        const Matrix want = kept->step(tokens.row(base + i));
        ASSERT_TRUE(bitIdentical(got, want)) << "step " << i;
    }
    expectSameSessionState(*evicted, *kept, "after restores");
}

/** The diverged-row rule saveDelta used before it read the sums'
 *  overlay: a base cluster diverged iff its member count or its
 *  bitwise sum differs from the base's. */
std::vector<Index>
memcmpDivergedRows(const IncrementalCompression &level,
                   const IncrementalCompression &base)
{
    std::vector<Index> rows;
    for (Index c = 0; c < base.numClusters(); ++c) {
        const auto mine = level.sums().row(c);
        const auto theirs = base.sums().row(c);
        if (level.memberCounts()[static_cast<std::size_t>(c)] !=
                base.memberCounts()[static_cast<std::size_t>(c)] ||
            std::memcmp(mine.data(), theirs.data(),
                        mine.size() * sizeof(Real)) != 0)
            rows.push_back(c);
    }
    return rows;
}

TEST(IncrementalTwoLevelTest, DivergedRowsMatchTheMemcmpRule)
{
    // Random schedules of forks, forks of forks (frozen with overlay
    // rows), steps (all-zero tokens included: they change a count but
    // not a sum) and evict/restore round trips: after every action
    // each fork's delta lists exactly the rows the old rule finds.
    const Index dim = 32, d = 16;
    Rng params_rng(24);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, params_rng);
    for (const std::uint64_t seed : {61u, 62u, 63u, 64u}) {
        const Matrix tokens = sampleTokens(400, dim, seed);
        Rng rng(seed);
        Index next = 0;
        const auto take = [&]() -> std::vector<Real> {
            std::vector<Real> row(static_cast<std::size_t>(dim), 0);
            if (rng.uniformInt(10) != 0) {
                const auto src = tokens.row(next % tokens.rows());
                std::copy(src.begin(), src.end(), row.begin());
            }
            ++next;
            return row;
        };
        auto root = std::make_unique<DecodeSession>(params, ServeConfig{},
                                                    dim);
        root->prefill(tokens.rowSlice(0, 48));
        next = 48;
        std::vector<std::unique_ptr<DecodeSession>> live;
        live.push_back(DecodeSession::forkFrom(root->sharedPrefix(0)));
        std::int64_t ids = 1;
        for (int action = 0; action < 60; ++action) {
            const auto pick =
                static_cast<std::size_t>(rng.uniformInt(live.size()));
            DecodeSession &s = *live[pick];
            switch (rng.uniformInt(6)) {
            case 0: // fork (of a fork, frozen with its overlay rows)
                if (live.size() < 8)
                    live.push_back(
                        DecodeSession::forkFrom(s.sharedPrefix(ids++)));
                break;
            case 1: { // evict and restore
                const auto blob =
                    cta::serve::serializeSnapshot(s.snapshot());
                auto back = DecodeSession::forkFrom(s.prefix());
                back->restore(cta::serve::deserializeSnapshot(blob));
                live[pick] = std::move(back);
                break;
            }
            default:
                for (auto k = rng.uniformInt(4) + 1; k > 0; --k)
                    (void)s.step(take());
                break;
            }
            for (const auto &fork : live) {
                const auto &base = fork->prefix()->donor().kv();
                const auto delta = fork->kv().saveDelta(&base);
                EXPECT_EQ(delta.level1.divergedRows,
                          memcmpDivergedRows(fork->kv().level1(),
                                             base.level1()))
                    << "seed " << seed << " action " << action;
                EXPECT_EQ(delta.level2.divergedRows,
                          memcmpDivergedRows(fork->kv().level2(),
                                             base.level2()))
                    << "seed " << seed << " action " << action;
            }
        }
    }
}

TEST(IncrementalTwoLevelTest, StateBytesExactAtPrefixes)
{
    // stateBytes() must price every resident arena page exactly once:
    // at any prefix, the session's private footprint covers all live
    // pages (lower bound) with only index/trie overhead on
    // top (upper bound), and the two-level total decomposes exactly
    // into its levels.
    const Index dim = 32, d = 16;
    Rng rng(14);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    std::size_t prev = 0;
    for (const Index n : {Index{1}, Index{17}, Index{64}, Index{96}}) {
        DecodeSession session(params, ServeConfig{}, dim);
        session.prefill(sampleTokens(n, dim, 33));

        const auto &kv = session.kv();
        EXPECT_EQ(kv.stateBytes(), kv.level1().stateBytes() +
                                       kv.level2().stateBytes())
            << "prefix " << n;

        // Never forked: no page is shared, so the session's private
        // bytes must cover every page the arena has live.
        const auto &arena = *session.arena();
        EXPECT_EQ(arena.sharedBytes(), 0u) << "prefix " << n;
        const std::size_t state = session.stateBytes();
        EXPECT_GE(state, arena.liveBytes()) << "prefix " << n;
        // Index/trie overhead rides on top but must stay the
        // same order of magnitude as the paged payload.
        EXPECT_LT(state,
                  3 * arena.liveBytes() + (std::size_t{64} << 10))
            << "prefix " << n;
        EXPECT_GT(state, prev) << "prefix " << n;
        prev = state;
    }
}

TEST(SnapshotCodecDeathTest, RejectsMalformedBlobs)
{
    const Index n = 32, dim = 32;
    const Matrix tokens = sampleTokens(n, dim, 23);
    Rng rng(11);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, 16, rng);
    DecodeSession session(params, ServeConfig{}, dim);
    session.prefill(tokens);
    std::vector<std::uint8_t> blob =
        cta::serve::serializeSnapshot(session.snapshot());

    std::vector<std::uint8_t> truncated(blob.begin(),
                                        blob.end() - 16);
    EXPECT_EXIT(cta::serve::deserializeSnapshot(truncated),
                ::testing::ExitedWithCode(1), "");
    std::vector<std::uint8_t> bad_magic = blob;
    bad_magic[0] ^= 0xff;
    EXPECT_EXIT(cta::serve::deserializeSnapshot(bad_magic),
                ::testing::ExitedWithCode(1), "");
    std::vector<std::uint8_t> trailing = blob;
    trailing.push_back(0);
    EXPECT_EXIT(cta::serve::deserializeSnapshot(trailing),
                ::testing::ExitedWithCode(1), "");
}

} // namespace
