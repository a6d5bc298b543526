/**
 * @file
 * Determinism torture tests for the shared CTA score and aggregation
 * stages (cta/fused_decode.h) through both of their callers:
 *  - a session decoding through the fused decode kernel must produce
 *    bit-identical outputs to the unfused grouped pipeline at EVERY
 *    prefix length, under every compute backend, thread count and
 *    dispatched ISA level, and charge identical operation counts;
 *  - the batch path (ctaAttention) must reproduce the per-token
 *    chain it used before the stages were shared, intermediates,
 *    outputs and op counts bit for bit.
 * Both references are test-local copies of the unshared chains.
 * This file is compiled with -ffp-contract=off (tests/CMakeLists.txt)
 * so the copies round exactly as written, like the production TU.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/matrix.h"
#include "core/op_counter.h"
#include "core/page_arena.h"
#include "core/rng.h"
#include "core/simd.h"
#include "cta/compressed_attention.h"
#include "cta/fused_decode.h"
#include "nn/workload.h"
#include "serve/decode_session.h"

namespace {

using cta::core::Backend;
using cta::core::Index;
using cta::core::Matrix;
using cta::core::OpCounts;
using cta::core::PagedRows;
using cta::core::Real;
using cta::core::Rng;
using cta::core::SimdLevel;
using cta::core::Wide;
using cta::serve::DecodeSession;
using cta::serve::ServeConfig;

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

/** Lane-per-row block geometry a decode step ran under. */
struct BlockCoverage
{
    bool seamInsideBlock = false; ///< some block held K1 and K2 rows
    bool raggedRowCount = false;  ///< k1 + k2 not a multiple of 8
    bool pageInsideBlock = false; ///< fewer rows per page than a block
};

/** Stages 3-5 of one reference decode step. */
struct ReferenceAttend
{
    Matrix unnormalized; ///< 1 x d, before the denominator
    Real rowSum = 0;     ///< probability mass
    Matrix out;          ///< 1 x d, what step() returns
    OpCounts ops;        ///< charged by stages 3-5 only
};

/**
 * The unfused grouped pipeline the fused kernel replaced, over
 * @p session's public state after it ingested the token whose
 * projected query is @p q_bar: materialize [K1-bar; K2-bar] and
 * [V1-bar; V2-bar], then matmulTransB -> scale -> level-1 row-max
 * shift -> a grouped pair loop -> matmul, and step()'s normalization
 * tail.
 */
ReferenceAttend
unfusedGroupedAttend(const DecodeSession &session, const Matrix &q_bar)
{
    ReferenceAttend ref;
    Matrix k_bar = session.kBar(1);
    k_bar.appendRows(session.kBar(2));
    Matrix v_bar = session.vBar(1);
    v_bar.appendRows(session.vBar(2));
    const Index k1 = session.kBar(1).rows();
    const Index k2 = session.kBar(2).rows();
    const Index d = q_bar.cols();
    const Real inv_sqrt_d = 1.0f / std::sqrt(static_cast<Real>(d));

    Matrix s_bar = matmulTransB(q_bar, k_bar, &ref.ops);
    s_bar = scale(s_bar, inv_sqrt_d, &ref.ops);
    if (session.config().cta.subtractRowMax) {
        Real *row = s_bar.row(0).data();
        Real row_max = row[0];
        for (Index j = 1; j < k1; ++j)
            row_max = std::max(row_max, row[j]);
        for (Index j = k1; j < k1 + k2; ++j)
            row[j] -= row_max;
        ref.ops.cmps += static_cast<std::uint64_t>(k1 - 1);
        ref.ops.adds += static_cast<std::uint64_t>(k2);
    }
    // Grouped aggregation: one exp per distinct pair, weighted by its
    // token count, one Wide total chain in pair order.
    Matrix ap(1, k1 + k2);
    Wide total = 0;
    const Real *srow = s_bar.row(0).data();
    const cta::alg::ClusterPairCounts &pairs = session.pairs();
    for (Index pi = 0; pi < pairs.pairCount(); ++pi) {
        const cta::alg::ClusterPairCounts::Pair pair = pairs.pair(pi);
        const Index c1 = pair.c1;
        const Index c2 = k1 + pair.c2;
        const Real p = std::exp(srow[c1] + srow[c2]);
        const Real weighted = static_cast<Real>(pair.count) * p;
        ap(0, c1) += weighted;
        ap(0, c2) += weighted;
        total += 2.0 * weighted;
    }
    const auto pu = static_cast<std::uint64_t>(pairs.pairCount());
    ref.ops.exps += pu;
    ref.ops.muls += pu;
    ref.ops.adds += 3 * pu;
    ref.unnormalized = matmul(ap, v_bar, &ref.ops);
    ref.rowSum = static_cast<Real>(total);

    const Real inv = 1.0f / (ref.rowSum * 0.5f);
    ref.out = Matrix(1, d);
    for (Index j = 0; j < d; ++j)
        ref.out(0, j) = ref.unnormalized(0, j) * inv;
    return ref;
}

/**
 * Runs fusedDecodeAttend directly on PagedRows rebuilt from
 * @p session's cached projections (pages of the session arena's
 * size, so page seams fall where the session's do) and checks its
 * un-normalized row, row sum and OpCounts against @p ref.
 */
void
expectKernelMatchesReference(const DecodeSession &session,
                             const Matrix &q_bar,
                             const ReferenceAttend &ref,
                             const std::string &what)
{
    const Index d = q_bar.cols();
    const auto arena = std::make_shared<cta::core::PageArena>(
        session.arena()->pageBytes());
    const auto paged = [&](const Matrix &m) {
        PagedRows rows(arena, d);
        for (Index r = 0; r < m.rows(); ++r)
            rows.appendRow(m.row(r));
        return rows;
    };
    const PagedRows k_bar1 = paged(session.kBar(1));
    const PagedRows k_bar2 = paged(session.kBar(2));
    const PagedRows v_bar1 = paged(session.vBar(1));
    const PagedRows v_bar2 = paged(session.vBar(2));
    cta::alg::FusedDecodeScratch scratch;
    OpCounts ops;
    const Real row_sum = cta::alg::fusedDecodeAttend(
        q_bar, k_bar1, k_bar2, v_bar1, v_bar2, session.pairs(),
        1.0f / std::sqrt(static_cast<Real>(d)),
        session.config().cta.subtractRowMax, scratch, &ops);
    ASSERT_EQ(std::memcmp(&row_sum, &ref.rowSum, sizeof(Real)), 0)
        << what << ": row sums diverge";
    ASSERT_EQ(std::memcmp(scratch.out.data(), ref.unnormalized.data(),
                          static_cast<std::size_t>(d) * sizeof(Real)),
              0)
        << what << ": un-normalized outputs diverge";
    ASSERT_EQ(ops, ref.ops) << what << ": op counts diverge";
}

/**
 * Decodes a stream through a default (fused) session and asserts, at
 * every prefix length, that its output is bitwise identical to the
 * unfused grouped reference over the session's own state, and that
 * the kernel charges the reference's OpCounts. @p coverage, when
 * set, records the block geometry the steps ran under.
 */
void
expectFusedMatchesUnfused(Index prefill, Index steps,
                          std::uint64_t seed, const ServeConfig &config,
                          const std::string &what,
                          BlockCoverage *coverage = nullptr)
{
    const Index dim = 32, d = 16;
    const Matrix tokens = sampleTokens(prefill + steps, dim, seed);
    Rng rng(seed + 1);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    DecodeSession session(params, config, dim);
    session.prefill(tokens.rowSlice(0, prefill));

    for (Index i = prefill; i < prefill + steps; ++i) {
        const Matrix out = session.step(tokens.row(i));
        ASSERT_FALSE(session.fallbackActive());
        const Matrix q_bar =
            params.wq.forward(tokens.rowSlice(i, i + 1));
        const ReferenceAttend ref =
            unfusedGroupedAttend(session, q_bar);
        ASSERT_TRUE(bitIdentical(out, ref.out))
            << what << ": outputs diverge at prefix " << i;
        ASSERT_NO_FATAL_FAILURE(expectKernelMatchesReference(
            session, q_bar, ref,
            what + " at prefix " + std::to_string(i)));
        if (coverage) {
            const Index k1 = session.kBar(1).rows();
            const Index k2 = session.kBar(2).rows();
            const Index block = cta::core::kSimdDotRows;
            coverage->seamInsideBlock |= k1 % block != 0 && k2 > 0;
            coverage->raggedRowCount |= (k1 + k2) % block != 0;
            coverage->pageInsideBlock |=
                session.arena()->pageBytes() /
                    (static_cast<std::size_t>(d) * sizeof(Real)) <
                static_cast<std::size_t>(block);
        }
    }
}

/** Sets an environment variable for one scope, then restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            previous_ = old;
        setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (previous_)
            setenv(name_, previous_->c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> previous_;
};

TEST(FusedDecodeTest, BitIdenticalToUnfusedAtEveryPrefixLength)
{
    // Long stream under the default backend: every prefix length from
    // the first post-prefill token exercises fresh cluster counts,
    // pair multisets and row-max shifts.
    expectFusedMatchesUnfused(16, 48, 21, ServeConfig{},
                              "default config");
}

TEST(FusedDecodeTest, BitIdenticalWithoutRowMaxShift)
{
    ServeConfig config;
    config.cta.subtractRowMax = false;
    expectFusedMatchesUnfused(16, 32, 22, config,
                              "subtractRowMax off");
}

TEST(FusedDecodeTest, BitIdenticalAcrossBackendsAndThreadCounts)
{
    // Fused must equal unfused under every backend, and — since every
    // projection, score and AV element is the same FMA chain under
    // both backends — the decoded outputs must equal naive's too.
    const Index dim = 32, d = 16, prefill = 16, steps = 24;
    const Matrix tokens = sampleTokens(prefill + steps, dim, 23);
    Rng rng(24);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);
    std::vector<Matrix> reference;
    for (const char *spec :
         {"naive", "simd:1", "simd:4", "simd:8"}) {
        const auto backend = cta::core::makeBackend(spec);
        ScopedBackend guard(backend.get());
        expectFusedMatchesUnfused(16, 24, 23, ServeConfig{},
                                  std::string("backend ") + spec);
        DecodeSession session(params, ServeConfig{}, dim);
        session.prefill(tokens.rowSlice(0, prefill));
        std::vector<Matrix> outputs;
        for (Index i = prefill; i < prefill + steps; ++i)
            outputs.push_back(session.step(tokens.row(i)));
        if (reference.empty()) {
            reference = std::move(outputs);
            continue;
        }
        for (std::size_t s = 0; s < reference.size(); ++s)
            EXPECT_TRUE(bitIdentical(outputs[s], reference[s]))
                << "backend " << spec << " diverges from naive at step "
                << s;
    }
}

TEST(FusedDecodeTest, BitIdenticalWhenDotBlocksStraddleSeamAndPages)
{
    // The score kernel dots kSimdDotRows cluster rows per block,
    // gathered by pointer from the paged K1-bar and K2-bar stores.
    // Three 64-byte rows per page put a page boundary inside every
    // block, and decoding from a short prefill walks k1 and k1 + k2
    // through values that are not multiples of the block, so blocks
    // straddle the K1/K2 seam and end ragged.
    ScopedEnv pages("CTA_PAGE_BYTES", "192");
    for (const char *spec : {"naive", "simd:1", "simd:4"}) {
        const auto backend = cta::core::makeBackend(spec);
        ScopedBackend guard(backend.get());
        BlockCoverage coverage;
        expectFusedMatchesUnfused(4, 40, 31, ServeConfig{},
                                  std::string("small pages, ") + spec,
                                  &coverage);
        EXPECT_TRUE(coverage.seamInsideBlock) << spec;
        EXPECT_TRUE(coverage.raggedRowCount) << spec;
        EXPECT_TRUE(coverage.pageInsideBlock) << spec;
    }
}

TEST(FusedDecodeTest, BitIdenticalAtEveryDispatchedIsaLevel)
{
    // CTA_SIMD-forced levels re-dispatch every vector primitive the
    // fused kernel and the cached-projection updates run through.
    const auto simd = cta::core::makeBackend("simd:4");
    ScopedBackend backend_guard(simd.get());
    for (const SimdLevel level :
         {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512,
          SimdLevel::Neon}) {
        if (!cta::core::simdLevelSupported(level))
            continue;
        ScopedSimdLevel level_guard(level);
        expectFusedMatchesUnfused(
            16, 24, 24, ServeConfig{},
            std::string("level ") + cta::core::simdLevelName(level));
    }
}

TEST(FusedDecodeTest, IsaLevelDoesNotChangeFusedOutputs)
{
    // Stronger than fused==unfused per level: the fused outputs
    // themselves must be bitwise level-invariant, because every SIMD
    // primitive preserves the scalar per-element rounding sequence.
    const Index dim = 32, d = 16, prefill = 16, steps = 16;
    const Matrix tokens = sampleTokens(prefill + steps, dim, 25);
    Rng rng(26);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);
    const auto simd = cta::core::makeBackend("simd:4");
    ScopedBackend backend_guard(simd.get());

    std::vector<Matrix> reference;
    bool have_reference = false;
    for (const SimdLevel level :
         {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512,
          SimdLevel::Neon}) {
        if (!cta::core::simdLevelSupported(level))
            continue;
        ScopedSimdLevel level_guard(level);
        DecodeSession session(params, ServeConfig{}, dim);
        session.prefill(tokens.rowSlice(0, prefill));
        std::vector<Matrix> outputs;
        for (Index i = prefill; i < prefill + steps; ++i)
            outputs.push_back(session.step(tokens.row(i)));
        if (!have_reference) {
            reference = std::move(outputs);
            have_reference = true;
            continue;
        }
        for (std::size_t s = 0; s < reference.size(); ++s)
            EXPECT_TRUE(bitIdentical(outputs[s], reference[s]))
                << "level " << cta::core::simdLevelName(level)
                << " diverges at step " << s;
    }
}

TEST(FusedDecodeTest, SteadyStateStepsDoNotRegrowScratch)
{
    // The session-held scratch makes steady-state steps allocation-
    // free: after the first step the buffers only ever resize when
    // the cluster count grows past their capacity. Smoke-check the
    // plumbing by decoding a long stream and confirming health.
    const Index dim = 32, d = 16;
    const Matrix tokens = sampleTokens(160, dim, 29);
    Rng rng(30);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);
    DecodeSession session(params, ServeConfig{}, dim);
    session.prefill(tokens.rowSlice(0, 32));
    for (Index i = 32; i < 160; ++i) {
        const Matrix out = session.step(tokens.row(i));
        ASSERT_EQ(out.rows(), 1);
        ASSERT_EQ(out.cols(), d);
        for (Index j = 0; j < d; ++j)
            ASSERT_TRUE(std::isfinite(out(0, j)))
                << "step " << i << " col " << j;
    }
    EXPECT_FALSE(session.fallbackActive());
}

/** The batch path's stage 3-5 results and its op counts. */
struct BatchReference
{
    Matrix sBar, ap, apRowSums, output;
    OpCounts attnOps, overheadOps;
};

/**
 * The batch path's stages 3-5 as they ran before the score and
 * aggregation stages were shared, over @p inter's projections and
 * cluster tables: matmulTransB -> scale -> level-1 row-max shift -> a
 * plain per-token aggregation loop -> matmul -> normalization ->
 * expansion to the @p m query rows.
 */
BatchReference
perTokenChain(const cta::alg::CtaIntermediates &inter, Index m,
              bool subtract_row_max)
{
    BatchReference ref;
    const Index k0 = inter.qBar.rows();
    const Index k1 = inter.kvComp.level1.numClusters;
    const Index k2 = inter.kvComp.level2.numClusters;
    const Index d = inter.qBar.cols();
    ref.sBar = matmulTransB(inter.qBar, inter.kBar, &ref.attnOps);
    ref.sBar = scale(ref.sBar, 1.0f / std::sqrt(static_cast<Real>(d)),
                     &ref.attnOps);
    if (subtract_row_max) {
        for (Index i = 0; i < k0; ++i) {
            Real *row = ref.sBar.row(i).data();
            Real row_max = row[0];
            for (Index j = 1; j < k1; ++j)
                row_max = std::max(row_max, row[j]);
            for (Index j = k1; j < k1 + k2; ++j)
                row[j] -= row_max;
        }
        ref.attnOps.cmps += static_cast<std::uint64_t>(k0) * (k1 - 1);
        ref.attnOps.adds += static_cast<std::uint64_t>(k0) * k2;
    }

    const std::vector<Index> &ct1 = inter.kvComp.level1.table;
    const std::vector<Index> &ct2 = inter.kvComp.level2.table;
    ref.ap = Matrix(k0, k1 + k2);
    ref.apRowSums = Matrix(k0, 1);
    for (Index i = 0; i < k0; ++i) {
        const Real *srow = ref.sBar.row(i).data();
        Real *aprow = ref.ap.row(i).data();
        Wide total = 0;
        for (std::size_t j = 0; j < ct1.size(); ++j) {
            const Index c1 = ct1[j];
            const Index c2 = k1 + ct2[j];
            const Real p = std::exp(srow[c1] + srow[c2]);
            aprow[c1] += p;
            aprow[c2] += p;
            total += 2.0 * p;
        }
        ref.apRowSums(i, 0) = static_cast<Real>(total);
    }
    const auto tokens = static_cast<std::uint64_t>(k0) * ct1.size();
    ref.attnOps.exps += tokens;
    ref.overheadOps.adds += 3 * tokens;

    const Matrix o_bar = matmul(ref.ap, inter.vBar, &ref.attnOps);
    ref.output = Matrix(m, d);
    for (Index i = 0; i < m; ++i) {
        const Index c = inter.queryComp.table[static_cast<std::size_t>(i)];
        const Real inv = 1.0f / (ref.apRowSums(c, 0) * 0.5f);
        for (Index j = 0; j < d; ++j)
            ref.output(i, j) = o_bar(c, j) * inv;
    }
    ref.attnOps.divs += static_cast<std::uint64_t>(k0) * d;
    return ref;
}

TEST(CtaAttentionChainTest, BitIdenticalToPerTokenChain)
{
    // ctaAttention runs the shared stages with each token as a pair
    // of count 1; Real(1) * p == p, so every intermediate, the output
    // and every op count must equal the per-token chain's.
    const Index n = 160, dim = 32, d = 16;
    const Matrix x = sampleTokens(n, dim, 41);
    Rng rng(42);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);
    for (const bool row_max : {true, false}) {
        cta::alg::CtaConfig config;
        config.subtractRowMax = row_max;
        // Stages 1-2 are not shared; charge them as ctaAttention does.
        const auto lsh = cta::alg::sampleLshParams(config, dim);
        OpCounts compression_ops;
        const auto kv = cta::alg::compressTwoLevel(x, lsh.lsh1, lsh.lsh2,
                                                   &compression_ops);
        const auto qc =
            cta::alg::compressTokens(x, lsh.lsh0, &compression_ops);
        Matrix c_cat = kv.level1.centroids;
        c_cat.appendRows(kv.level2.centroids);
        OpCounts linear_ops;
        params.wq.forward(qc.centroids, &linear_ops);
        params.wk.forward(c_cat, &linear_ops);
        params.wv.forward(c_cat, &linear_ops);
        // More than one backend row chunk, so simd:4 fans rows out.
        ASSERT_GT(qc.numClusters, 8);

        for (const char *spec : {"naive", "simd:1", "simd:4"}) {
            const auto backend = cta::core::makeBackend(spec);
            ScopedBackend backend_guard(backend.get());
            for (const SimdLevel level :
                 {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512,
                  SimdLevel::Neon}) {
                if (!cta::core::simdLevelSupported(level))
                    continue;
                ScopedSimdLevel level_guard(level);
                const std::string what =
                    std::string(spec) + " level " +
                    cta::core::simdLevelName(level) +
                    (row_max ? ", row max" : ", no row max");
                const cta::alg::CtaResult r =
                    cta::alg::ctaAttention(x, x, params, config);
                const BatchReference ref =
                    perTokenChain(r.inter, n, row_max);
                EXPECT_TRUE(bitIdentical(r.inter.sBar, ref.sBar)) << what;
                EXPECT_TRUE(bitIdentical(r.inter.ap, ref.ap)) << what;
                EXPECT_TRUE(bitIdentical(r.inter.apRowSums,
                                         ref.apRowSums))
                    << what;
                EXPECT_TRUE(bitIdentical(r.output, ref.output)) << what;
                EXPECT_EQ(r.attnOps, ref.attnOps) << what;
                EXPECT_EQ(r.overheadOps,
                          ref.overheadOps + compression_ops)
                    << what;
                EXPECT_EQ(r.linearOps, linear_ops) << what;
            }
        }
    }
}

} // namespace
