/**
 * @file
 * Tests for the per-session quality guard and the corruption
 * quarantine path (DESIGN.md §4.5): a degenerate stream demotes the
 * session to exact attention with finite outputs and exactly one
 * "serve.fallback" bump, fallback sessions are pinned against
 * eviction, non-finite input tokens are sanitized, and — with the
 * fault layer armed — a corrupted snapshot quarantines only its own
 * session while its flush reports Corrupted instead of crashing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/rng.h"
#include "cta/error.h"
#include "fault/fault.h"
#include "nn/workload.h"
#include "obs/metrics.h"
#include "serve/session_manager.h"

namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;
using cta::core::Rng;
using cta::serve::DecodeSession;
using cta::serve::ServeConfig;
using cta::serve::SessionManager;
using cta::serve::StepStatus;
using cta::serve::SubmitResult;

constexpr Index kDim = 32;
constexpr Index kHeadDim = 16;

cta::nn::AttentionHeadParams
headParams(std::uint64_t seed = 2)
{
    Rng rng(seed);
    return cta::nn::AttentionHeadParams::randomInit(kDim, kHeadDim,
                                                    rng);
}

/** n copies of one fixed token: every level-1 hash lands in the same
 *  bucket and every frozen residual is exactly zero, so the
 *  compression collapses to k1 == k2 == 1 — the guard's
 *  collapsed-cluster trigger. */
Matrix
identicalTokens(Index n)
{
    Matrix tokens(n, kDim);
    for (Index i = 0; i < n; ++i)
        for (Index j = 0; j < kDim; ++j)
            tokens(i, j) = 0.1f * static_cast<Real>(j) - 0.3f;
    return tokens;
}

Matrix
variedTokens(Index n, std::uint64_t seed)
{
    cta::nn::WorkloadProfile profile;
    profile.seqLen = n;
    profile.tokenDim = kDim;
    profile.coarseClusters = 8;
    profile.fineClusters = 6;
    cta::nn::WorkloadGenerator gen(profile, seed);
    return gen.sampleTokens();
}

ServeConfig
guardedConfig(Index min_context = 4)
{
    ServeConfig config;
    config.guardMinContext = min_context;
    return config;
}

TEST(QualityGuardTest, CollapsedClustersFallBackFinitelyCountedOnce)
{
    DecodeSession session(headParams(), guardedConfig(), kDim);
    session.prefill(identicalTokens(8));
    ASSERT_FALSE(session.fallbackActive());

    const std::uint64_t before =
        cta::obs::counter("serve.fallback").value();
    const Matrix token = identicalTokens(1);

    const Matrix out1 = session.step(token.row(0));
    EXPECT_TRUE(session.fallbackActive());
    EXPECT_STRNE(session.fallbackReason(), "");
    ASSERT_EQ(out1.rows(), 1);
    ASSERT_EQ(out1.cols(), kHeadDim);
    EXPECT_TRUE(cta::alg::allFinite(out1));
    EXPECT_EQ(cta::obs::counter("serve.fallback").value(),
              before + 1);

    // Fallback is sticky and the counter bumps exactly once per
    // session, not once per step.
    const Matrix out2 = session.step(token.row(0));
    EXPECT_TRUE(session.fallbackActive());
    EXPECT_TRUE(cta::alg::allFinite(out2));
    EXPECT_EQ(cta::obs::counter("serve.fallback").value(),
              before + 1);
    EXPECT_EQ(session.contextLength(), 10);
}

TEST(QualityGuardTest, HealthyStreamNeverTripsTheGuard)
{
    DecodeSession session(headParams(), ServeConfig{}, kDim);
    session.prefill(variedTokens(24, 5));
    const Matrix decode = variedTokens(4, 6);
    for (Index i = 0; i < decode.rows(); ++i) {
        const Matrix out = session.step(decode.row(i));
        EXPECT_TRUE(cta::alg::allFinite(out));
    }
    EXPECT_FALSE(session.fallbackActive());
    EXPECT_STREQ(session.fallbackReason(), "");
}

TEST(QualityGuardTest, NonFiniteTokensAreSanitized)
{
    DecodeSession session(headParams(), ServeConfig{}, kDim);
    Matrix prefill = variedTokens(12, 7);
    prefill(3, 1) = std::numeric_limits<Real>::quiet_NaN();
    prefill(5, 0) = std::numeric_limits<Real>::infinity();
    session.prefill(prefill); // must not poison the centroids

    Matrix token = variedTokens(1, 8);
    token(0, 2) = -std::numeric_limits<Real>::infinity();
    const Matrix out = session.step(token.row(0));
    EXPECT_TRUE(cta::alg::allFinite(out));
}

TEST(QualityGuardTest, FallbackSessionIsPinnedAgainstEviction)
{
    SessionManager manager(headParams(), guardedConfig(), kDim,
                           /*mem_budget_bytes=*/0);
    const Index pinned = manager.createSession(identicalTokens(8));
    const Index other = manager.createSession(variedTokens(12, 9));

    const Matrix token = identicalTokens(1);
    manager.acquire(pinned).step(token.row(0));
    ASSERT_TRUE(manager.acquire(pinned).fallbackActive());

    // evict() must be a no-op for the fallback session (its exact K/V
    // caches are not serializable) while others still evict.
    manager.evict(pinned);
    EXPECT_TRUE(manager.isLive(pinned));
    manager.evict(other);
    EXPECT_TRUE(manager.isEvicted(other));
    EXPECT_EQ(manager.stats().evictions, 1u);

    // The pinned session keeps serving.
    const Matrix out = manager.acquire(pinned).step(token.row(0));
    EXPECT_TRUE(cta::alg::allFinite(out));
}

#ifndef CTA_FAULT_DISABLED

/** Restores the process fault configuration on scope exit. */
struct FaultConfigGuard
{
    cta::fault::FaultConfig saved = cta::fault::config();
    ~FaultConfigGuard() { cta::fault::setConfig(saved); }
};

unsigned
siteBit(cta::fault::Site site)
{
    return 1u << static_cast<unsigned>(site);
}

TEST(QualityGuardTest, CorruptSnapshotQuarantinesOnlyThatSession)
{
    FaultConfigGuard guard;
    cta::fault::setConfig(
        {/*seed=*/1, /*rate=*/1.0,
         siteBit(cta::fault::Site::SnapshotBlob)});

    SessionManager manager(headParams(), ServeConfig{}, kDim,
                           /*mem_budget_bytes=*/0);
    const Index doomed = manager.createSession(variedTokens(12, 20));
    const Index healthy = manager.createSession(variedTokens(12, 21));

    manager.evict(doomed); // rate 1.0: the blob is corrupted
    ASSERT_EQ(manager.stats().corruptionsInjected, 1u);

    EXPECT_EQ(manager.tryAcquire(doomed), nullptr);
    EXPECT_TRUE(manager.isQuarantined(doomed));
    EXPECT_EQ(manager.tryAcquire(doomed), nullptr); // stays gone

    const auto stats = manager.stats();
    EXPECT_EQ(stats.quarantined, 1);
    EXPECT_EQ(stats.corruptionsDetected, 1u);
    EXPECT_EQ(stats.corruptionsSilent, 0u);

    // The other session is untouched and keeps serving.
    const Matrix token = variedTokens(1, 22);
    DecodeSession *alive = manager.tryAcquire(healthy);
    ASSERT_NE(alive, nullptr);
    EXPECT_TRUE(cta::alg::allFinite(alive->step(token.row(0))));

    // A quarantined id can still be removed cleanly.
    manager.removeSession(doomed);
    EXPECT_FALSE(manager.exists(doomed));
}

TEST(QualityGuardTest, FlushDegradesQuarantinedSessionsToCorrupted)
{
    FaultConfigGuard guard;
    cta::fault::setConfig(
        {/*seed=*/2, /*rate=*/1.0,
         siteBit(cta::fault::Site::SnapshotBlob)});

    SessionManager manager(headParams(), ServeConfig{}, kDim,
                           /*mem_budget_bytes=*/0);
    const Index doomed = manager.createSession(variedTokens(12, 30));
    const Index healthy = manager.createSession(variedTokens(12, 31));
    manager.evict(doomed);

    const Matrix tokens = variedTokens(2, 32);
    ASSERT_EQ(manager.trySubmit(doomed, tokens.row(0)),
              SubmitResult::Accepted); // evicted, not yet quarantined
    ASSERT_EQ(manager.trySubmit(healthy, tokens.row(1)),
              SubmitResult::Accepted);

    const auto results = manager.flush();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, StepStatus::Corrupted);
    EXPECT_EQ(results[0].output.size(), 0);
    EXPECT_EQ(results[1].status, StepStatus::Ok);
    EXPECT_TRUE(cta::alg::allFinite(results[1].output));
    EXPECT_EQ(manager.stats().corruptedSteps, 1u);

    // Later submits against the quarantined id are refused up front.
    EXPECT_EQ(manager.trySubmit(doomed, tokens.row(0)),
              SubmitResult::Corrupted);
    EXPECT_EQ(manager.trySubmit(healthy, tokens.row(1)),
              SubmitResult::Accepted);
    const auto again = manager.flush();
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].status, StepStatus::Ok);
}

TEST(QualityGuardTest, InjectionsInsideAStepTaintTheSession)
{
    FaultConfigGuard guard;
    cta::fault::setConfig(
        {/*seed=*/3, /*rate=*/1.0,
         siteBit(cta::fault::Site::LshBucket)});

    SessionManager manager(headParams(), ServeConfig{}, kDim,
                           /*mem_budget_bytes=*/0);
    const Index id = manager.createSession();
    EXPECT_FALSE(manager.isFaultTainted(id));
    manager.acquire(id).prefill(variedTokens(8, 40));
    EXPECT_TRUE(manager.isFaultTainted(id));

    // Taint survives an evict/restore round trip (sticky per slot).
    manager.evict(id);
    cta::fault::setConfig({/*seed=*/3, /*rate=*/0.0, 0});
    ASSERT_NE(manager.tryAcquire(id), nullptr);
    EXPECT_TRUE(manager.isFaultTainted(id));
}

TEST(QualityGuardDeathTest, AcquireOnQuarantinedSessionIsFatal)
{
    FaultConfigGuard guard;
    cta::fault::setConfig(
        {/*seed=*/4, /*rate=*/1.0,
         siteBit(cta::fault::Site::SnapshotBlob)});
    SessionManager manager(headParams(), ServeConfig{}, kDim,
                           /*mem_budget_bytes=*/0);
    const Index id = manager.createSession(variedTokens(12, 50));
    manager.evict(id);
    ASSERT_EQ(manager.tryAcquire(id), nullptr);
    EXPECT_DEATH(manager.acquire(id), "");
}

#endif // CTA_FAULT_DISABLED

} // namespace
