/**
 * @file
 * Determinism torture tests for the fused online-softmax decode
 * kernel (cta/fused_decode.h): a session decoding through the fused
 * kernel must produce bit-identical outputs — and identical operation
 * counts — to the unfused grouped pipeline at EVERY prefix length,
 * under every compute backend, thread count and dispatched ISA level.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/matrix.h"
#include "core/rng.h"
#include "core/simd.h"
#include "nn/workload.h"
#include "serve/decode_session.h"

namespace {

using cta::core::Backend;
using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;
using cta::core::Rng;
using cta::core::SimdLevel;
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

/**
 * Decodes the same stream through a fused and an unfused session and
 * asserts bitwise-identical outputs and identical per-step OpCounts
 * at every prefix length. Sessions share (params, tokenDim) and
 * differ ONLY in config.fusedDecode; the standalone constructor
 * samples its LSH set deterministically from the config, so both see
 * identical compression state. @p coverage, when set, records the
 * block geometry the steps ran under.
 */
void
expectFusedMatchesUnfused(Index prefill, Index steps,
                          std::uint64_t seed, ServeConfig base,
                          const std::string &what,
                          BlockCoverage *coverage = nullptr)
{
    const Index dim = 32, d = 16;
    const Matrix tokens = sampleTokens(prefill + steps, dim, seed);
    Rng rng(seed + 1);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    ServeConfig fused = base;
    fused.groupedAggregation = true;
    fused.fusedDecode = true;
    ServeConfig unfused = base;
    unfused.groupedAggregation = true;
    unfused.fusedDecode = false;

    DecodeSession fused_session(params, fused, dim);
    DecodeSession unfused_session(params, unfused, dim);
    fused_session.prefill(tokens.rowSlice(0, prefill));
    unfused_session.prefill(tokens.rowSlice(0, prefill));

    for (Index i = prefill; i < prefill + steps; ++i) {
        const Matrix out_fused = fused_session.step(tokens.row(i));
        const Matrix out_unfused =
            unfused_session.step(tokens.row(i));
        ASSERT_TRUE(bitIdentical(out_fused, out_unfused))
            << what << ": outputs diverge at prefix " << i;
        ASSERT_EQ(fused_session.lastStepOps(),
                  unfused_session.lastStepOps())
            << what << ": op counts diverge at prefix " << i;
        ASSERT_FALSE(fused_session.fallbackActive());
        ASSERT_FALSE(unfused_session.fallbackActive());
        if (coverage) {
            const Index k1 = fused_session.kBar(1).rows();
            const Index k2 = fused_session.kBar(2).rows();
            const Index block = cta::core::kSimdDotRows;
            coverage->seamInsideBlock |= k1 % block != 0 && k2 > 0;
            coverage->raggedRowCount |= (k1 + k2) % block != 0;
            coverage->pageInsideBlock |=
                fused_session.arena()->pageBytes() /
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
    // The decode step's numerics may differ BETWEEN backends (the
    // simd backend runs FMA projection chains), but fused and unfused
    // must agree WITHIN each backend — the kernel dispatches its AV
    // accumulation on Backend::gemmFmaChains to guarantee it.
    for (const char *spec :
         {"naive", "simd:1", "simd:4", "simd:8"}) {
        const auto backend = cta::core::makeBackend(spec);
        ScopedBackend guard(backend.get());
        expectFusedMatchesUnfused(16, 24, 23, ServeConfig{},
                                  std::string("backend ") + spec);
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

TEST(FusedDecodeTest, FusedFlagIgnoredWithoutGroupedAggregation)
{
    // fusedDecode requires the pair multiset; with grouped
    // aggregation off both configs must run the identical per-token
    // pipeline.
    const Index dim = 32, d = 16, prefill = 24, steps = 12;
    const Matrix tokens = sampleTokens(prefill + steps, dim, 27);
    Rng rng(28);
    const auto params =
        cta::nn::AttentionHeadParams::randomInit(dim, d, rng);

    ServeConfig on;
    on.groupedAggregation = false;
    on.fusedDecode = true;
    ServeConfig off;
    off.groupedAggregation = false;
    off.fusedDecode = false;

    DecodeSession session_on(params, on, dim);
    DecodeSession session_off(params, off, dim);
    session_on.prefill(tokens.rowSlice(0, prefill));
    session_off.prefill(tokens.rowSlice(0, prefill));
    for (Index i = prefill; i < prefill + steps; ++i) {
        const Matrix a = session_on.step(tokens.row(i));
        const Matrix b = session_off.step(tokens.row(i));
        ASSERT_TRUE(bitIdentical(a, b)) << "prefix " << i;
        ASSERT_EQ(session_on.lastStepOps(),
                  session_off.lastStepOps());
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

} // namespace
