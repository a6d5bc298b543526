/**
 * @file
 * Tests for the multi-tenant serving front-end: DRR weighted
 * fairness, per-tenant admission quotas, least-loaded shard
 * placement, exact per-shard budget splitting, retry-after admission
 * hints, per-shard submission-order determinism across thread
 * counts, and the trace-driven load generator it is benched with.
 * Shard fault domains are covered in tests/shard_failover_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "fault/fault.h"
#include "nn/workload.h"
#include "serve/frontend.h"
#include "serve/loadgen.h"

namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;
using cta::core::Rng;
using cta::core::ThreadPool;
using cta::serve::Completion;
using cta::serve::DecodeSession;
using cta::serve::FrontendConfig;
using cta::serve::ServeConfig;
using cta::serve::ServeFrontend;
using cta::serve::StepStatus;
using cta::serve::SubmitResult;
using cta::serve::TenantConfig;

constexpr Index kDim = 32;
constexpr Index kHeadDim = 16;

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

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    return std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) *
                           sizeof(Real)) == 0;
}

cta::nn::AttentionHeadParams
testParams()
{
    Rng rng(5);
    return cta::nn::AttentionHeadParams::randomInit(kDim, kHeadDim,
                                                    rng);
}

TEST(ServeFrontendTest, RoundRobinShardPlacement)
{
    FrontendConfig fc;
    fc.shards = 3;
    ServeFrontend frontend(testParams(), ServeConfig{}, kDim, fc);
    const Index tenant = frontend.registerTenant({"solo", 1, 16});
    for (Index i = 0; i < 7; ++i)
        EXPECT_EQ(frontend.createSession(tenant), i);
    for (Index i = 0; i < 7; ++i) {
        EXPECT_EQ(frontend.shardOf(i), i % 3);
        EXPECT_EQ(frontend.tenantOf(i), tenant);
    }
    EXPECT_EQ(frontend.sessionCount(), 7);
    EXPECT_EQ(frontend.shardCount(), 3);
}

TEST(ServeFrontendTest, CompletionsMatchStandaloneSessions)
{
    const auto params = testParams();
    FrontendConfig fc;
    fc.shards = 2;
    ServeFrontend frontend(params, ServeConfig{}, kDim, fc);
    const Index tenant = frontend.registerTenant({"solo", 1, 64});

    const Matrix ctx_a = sampleTokens(24, kDim, 61);
    const Matrix ctx_b = sampleTokens(32, kDim, 62);
    const Matrix ctx_c = sampleTokens(16, kDim, 63);
    const Index a = frontend.createSession(tenant, ctx_a);
    const Index b = frontend.createSession(tenant, ctx_b);
    const Index c = frontend.createSession(tenant, ctx_c);

    // Two decode steps per session, interleaved across sessions (and
    // therefore across shards).
    const Matrix steps = sampleTokens(6, kDim, 64);
    const Index order[6] = {a, b, c, c, a, b};
    for (Index i = 0; i < 6; ++i)
        ASSERT_EQ(frontend.admit(order[i], steps.row(i)).result,
                  SubmitResult::Accepted);
    const auto completions = frontend.flushOnce();
    ASSERT_EQ(completions.size(), 6u);

    // Reference: the same three streams stepped standalone, serially,
    // in the same per-session order.
    DecodeSession ref_a(params, ServeConfig{}, kDim);
    DecodeSession ref_b(params, ServeConfig{}, kDim);
    DecodeSession ref_c(params, ServeConfig{}, kDim);
    ref_a.prefill(ctx_a);
    ref_b.prefill(ctx_b);
    ref_c.prefill(ctx_c);
    std::vector<std::vector<Matrix>> want(3);
    for (Index i = 0; i < 6; ++i) {
        DecodeSession &ref = order[i] == a   ? ref_a
                             : order[i] == b ? ref_b
                                             : ref_c;
        want[static_cast<std::size_t>(order[i])].push_back(
            ref.step(steps.row(i)));
    }
    std::vector<std::size_t> seen(3, 0);
    for (const Completion &comp : completions) {
        EXPECT_EQ(comp.status, StepStatus::Ok);
        EXPECT_EQ(comp.tenant, tenant);
        EXPECT_EQ(comp.shard, frontend.shardOf(comp.session));
        const auto s = static_cast<std::size_t>(comp.session);
        ASSERT_LT(seen[s], want[s].size());
        EXPECT_TRUE(bitIdentical(comp.output, want[s][seen[s]]))
            << "session " << comp.session << " step " << seen[s];
        ++seen[s];
    }
    for (std::size_t s = 0; s < 3; ++s)
        EXPECT_EQ(seen[s], want[s].size());
}

/** One fixed two-tenant workload over two flush rounds. */
std::vector<Completion>
runFrontendWorkload(ThreadPool *pool)
{
    const auto params = testParams();
    FrontendConfig fc;
    fc.shards = 2;
    fc.pool = pool;
    ServeFrontend frontend(params, ServeConfig{}, kDim, fc);
    const Index gold = frontend.registerTenant({"gold", 4, 64});
    const Index bronze = frontend.registerTenant({"bronze", 1, 64});

    std::vector<Index> sessions;
    for (Index i = 0; i < 4; ++i)
        sessions.push_back(frontend.createSession(
            i % 2 == 0 ? gold : bronze,
            sampleTokens(16 + 4 * i, kDim, 70 + i)));

    const Matrix steps = sampleTokens(16, kDim, 80);
    std::vector<Completion> all;
    for (Index round = 0; round < 2; ++round) {
        for (Index i = 0; i < 8; ++i) {
            const Index sid = sessions[static_cast<std::size_t>(
                (i + round) % 4)];
            EXPECT_EQ(frontend.admit(sid, steps.row(round * 8 + i)).result,
                      SubmitResult::Accepted);
        }
        auto completions = frontend.flushOnce();
        EXPECT_EQ(completions.size(), 8u);
        for (auto &c : completions)
            all.push_back(std::move(c));
    }
    return all;
}

TEST(ServeFrontendTest, DeterministicAcrossThreadCounts)
{
    ThreadPool serial(1);
    ThreadPool wide(8);
    const auto one = runFrontendWorkload(&serial);
    const auto eight = runFrontendWorkload(&wide);
    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].session, eight[i].session) << "slot " << i;
        EXPECT_EQ(one[i].tenant, eight[i].tenant);
        EXPECT_EQ(one[i].shard, eight[i].shard);
        EXPECT_EQ(one[i].status, eight[i].status);
        EXPECT_TRUE(bitIdentical(one[i].output, eight[i].output))
            << "slot " << i;
    }
}

TEST(ServeFrontendTest, DrrDispatchesProportionallyUnderSaturation)
{
    FrontendConfig fc;
    fc.shards = 1;
    fc.drrQuantumScale = 4;
    fc.maxDispatchPerFlush = 16;
    ServeFrontend frontend(testParams(), ServeConfig{}, kDim, fc);
    const Index gold = frontend.registerTenant({"gold", 3, 64});
    const Index bronze = frontend.registerTenant({"bronze", 1, 64});
    const Index gs =
        frontend.createSession(gold, sampleTokens(8, kDim, 90));
    const Index bs =
        frontend.createSession(bronze, sampleTokens(8, kDim, 91));

    // Both tenants heavily backlogged: 40 queued steps each, far more
    // than one flush's dispatch budget.
    const Matrix token = sampleTokens(2, kDim, 92);
    for (Index i = 0; i < 40; ++i) {
        ASSERT_EQ(frontend.admit(gs, token.row(0)).result,
                  SubmitResult::Accepted);
        ASSERT_EQ(frontend.admit(bs, token.row(1)).result,
                  SubmitResult::Accepted);
    }
    const auto completions = frontend.flushOnce();
    // One DRR round banks 3*4 = 12 gold and 1*4 = 4 bronze — exactly
    // the 16-step dispatch budget, so the split is exact: the flush
    // carried weight-proportional work from both classes.
    EXPECT_EQ(completions.size(), 16u);
    EXPECT_EQ(frontend.tenantCounters(gold).dispatched, 12u);
    EXPECT_EQ(frontend.tenantCounters(bronze).dispatched, 4u);
    EXPECT_EQ(frontend.queuedSteps(gold), 28);
    EXPECT_EQ(frontend.queuedSteps(bronze), 36);
}

TEST(ServeFrontendTest, WorkConservingWhenOnlyOneTenantIsBusy)
{
    FrontendConfig fc;
    fc.shards = 2;
    fc.drrQuantumScale = 2; // tiny quantum: re-banking must kick in
    fc.maxDispatchPerFlush = 64;
    ServeFrontend frontend(testParams(), ServeConfig{}, kDim, fc);
    const Index gold = frontend.registerTenant({"gold", 4, 64});
    const Index bronze = frontend.registerTenant({"bronze", 1, 64});
    const Index bs =
        frontend.createSession(bronze, sampleTokens(8, kDim, 95));
    (void)gold;

    const Matrix token = sampleTokens(1, kDim, 96);
    for (Index i = 0; i < 30; ++i)
        ASSERT_EQ(frontend.admit(bs, token.row(0)).result,
                  SubmitResult::Accepted);
    // A lone busy tenant is not throttled to its own quantum: the
    // dispatch loop re-banks until the backlog (or the cap) runs out.
    EXPECT_EQ(frontend.flushOnce().size(), 30u);
    EXPECT_EQ(frontend.queuedSteps(bronze), 0);
    EXPECT_EQ(frontend.tenantCounters(bronze).completed, 30u);
}

TEST(ServeFrontendTest, QuotaRejectsAndReadmitsAfterFlush)
{
    FrontendConfig fc;
    fc.shards = 1;
    ServeFrontend frontend(testParams(), ServeConfig{}, kDim, fc);
    const Index tenant = frontend.registerTenant({"capped", 1, 4});
    const Index other = frontend.registerTenant({"other", 1, 4});
    const Index s =
        frontend.createSession(tenant, sampleTokens(8, kDim, 97));
    const Index o =
        frontend.createSession(other, sampleTokens(8, kDim, 98));

    const Matrix token = sampleTokens(1, kDim, 99);
    for (Index i = 0; i < 4; ++i)
        ASSERT_EQ(frontend.admit(s, token.row(0)).result,
                  SubmitResult::Accepted);
    // The fifth step breaches this tenant's quota — and only this
    // tenant's: the other class still has its full headroom.
    EXPECT_EQ(frontend.admit(s, token.row(0)).result,
              SubmitResult::QuotaExceeded);
    EXPECT_EQ(frontend.tenantCounters(tenant).shedQuota, 1u);
    EXPECT_EQ(frontend.admit(o, token.row(0)).result,
              SubmitResult::Accepted);

    // Draining the queue re-opens admission.
    EXPECT_EQ(frontend.flushOnce().size(), 5u);
    EXPECT_EQ(frontend.queuedSteps(tenant), 0);
    EXPECT_EQ(frontend.admit(s, token.row(0)).result,
              SubmitResult::Accepted);
    const auto counters = frontend.tenantCounters(tenant);
    EXPECT_EQ(counters.submitted, 6u);
    EXPECT_EQ(counters.admitted, 5u);
    EXPECT_EQ(counters.completed, 4u);
}

TEST(ServeFrontendTest, RemoveSessionShedsQueuedStepsAndRejects)
{
    FrontendConfig fc;
    fc.shards = 2;
    ServeFrontend frontend(testParams(), ServeConfig{}, kDim, fc);
    const Index tenant = frontend.registerTenant({"solo", 1, 16});
    const Index a =
        frontend.createSession(tenant, sampleTokens(8, kDim, 101));
    const Index b =
        frontend.createSession(tenant, sampleTokens(8, kDim, 102));

    const Matrix token = sampleTokens(2, kDim, 103);
    for (Index i = 0; i < 3; ++i) {
        ASSERT_EQ(frontend.admit(a, token.row(0)).result,
                  SubmitResult::Accepted);
        ASSERT_EQ(frontend.admit(b, token.row(1)).result,
                  SubmitResult::Accepted);
    }
    frontend.removeSession(a);
    EXPECT_EQ(frontend.admit(a, token.row(0)).result,
              SubmitResult::SessionRemoved);
    // All four sheds (3 queued drops + 1 admission rejection) are
    // removed-session sheds, and the legacy catch-all is exactly the
    // sum of the per-reason counters.
    const auto counters = frontend.tenantCounters(tenant);
    EXPECT_EQ(counters.shedRemoved, 4u);
    EXPECT_EQ(counters.shedCorrupted, 0u);
    EXPECT_EQ(counters.shedBounced, 0u);
    EXPECT_EQ(counters.shedFenced, 0u);
    EXPECT_EQ(counters.shedDispatch(), 4u);

    const auto completions = frontend.flushOnce();
    ASSERT_EQ(completions.size(), 3u);
    for (const Completion &c : completions) {
        EXPECT_EQ(c.session, b);
        EXPECT_EQ(c.status, StepStatus::Ok);
    }
}

TEST(ServeFrontendTest, EnvKnobsParse)
{
    setenv("CTA_SHARDS", "5", 1);
    EXPECT_EQ(ServeFrontend::shardsFromEnv(), 5);
    unsetenv("CTA_SHARDS");
    EXPECT_EQ(ServeFrontend::shardsFromEnv(), 4);

    setenv("CTA_TENANT_QUOTA", "77", 1);
    EXPECT_EQ(ServeFrontend::tenantQuotaFromEnv(), 77);
    unsetenv("CTA_TENANT_QUOTA");
    EXPECT_EQ(ServeFrontend::tenantQuotaFromEnv(), 1024);

    setenv("CTA_SHARD_FAIL_AFTER", "7", 1);
    EXPECT_EQ(ServeFrontend::shardFailAfterFromEnv(), 7);
    unsetenv("CTA_SHARD_FAIL_AFTER");
    EXPECT_EQ(ServeFrontend::shardFailAfterFromEnv(), 3);

    setenv("CTA_RETRY_BASE", "0.25", 1);
    EXPECT_DOUBLE_EQ(ServeFrontend::retryBaseFromEnv(), 0.25);
    unsetenv("CTA_RETRY_BASE");
    EXPECT_DOUBLE_EQ(ServeFrontend::retryBaseFromEnv(), 1e-3);

    setenv("CTA_RETRY_MAX", "8", 1);
    EXPECT_DOUBLE_EQ(ServeFrontend::retryMaxFromEnv(), 8.0);
    unsetenv("CTA_RETRY_MAX");
    EXPECT_DOUBLE_EQ(ServeFrontend::retryMaxFromEnv(), 1.0);
}

TEST(ServeFrontendDeathTest, MalformedEnvKnobsAreFatal)
{
    setenv("CTA_SHARDS", "0", 1);
    EXPECT_EXIT(ServeFrontend::shardsFromEnv(),
                ::testing::ExitedWithCode(1), "CTA_SHARDS");
    setenv("CTA_SHARDS", "nope", 1);
    EXPECT_EXIT(ServeFrontend::shardsFromEnv(),
                ::testing::ExitedWithCode(1), "CTA_SHARDS");
    unsetenv("CTA_SHARDS");
    setenv("CTA_TENANT_QUOTA", "-2", 1);
    EXPECT_EXIT(ServeFrontend::tenantQuotaFromEnv(),
                ::testing::ExitedWithCode(1), "CTA_TENANT_QUOTA");
    unsetenv("CTA_TENANT_QUOTA");
    setenv("CTA_SHARD_FAIL_AFTER", "0", 1);
    EXPECT_EXIT(ServeFrontend::shardFailAfterFromEnv(),
                ::testing::ExitedWithCode(1), "CTA_SHARD_FAIL_AFTER");
    unsetenv("CTA_SHARD_FAIL_AFTER");
    setenv("CTA_RETRY_BASE", "-0.5", 1);
    EXPECT_EXIT(ServeFrontend::retryBaseFromEnv(),
                ::testing::ExitedWithCode(1), "CTA_RETRY_BASE");
    unsetenv("CTA_RETRY_BASE");
    setenv("CTA_RETRY_MAX", "nope", 1);
    EXPECT_EXIT(ServeFrontend::retryMaxFromEnv(),
                ::testing::ExitedWithCode(1), "CTA_RETRY_MAX");
    unsetenv("CTA_RETRY_MAX");
}

TEST(ServeFrontendDeathTest, DuplicateTenantNameIsFatal)
{
    FrontendConfig fc;
    fc.shards = 1;
    ServeFrontend frontend(testParams(), ServeConfig{}, kDim, fc);
    frontend.registerTenant({"gold", 1, 4});
    EXPECT_EXIT(frontend.registerTenant({"gold", 2, 8}),
                ::testing::ExitedWithCode(1), "already registered");
}

TEST(ServeFrontendTest, ShardBudgetSplitSumsExactly)
{
    FrontendConfig fc;
    fc.shards = 3;
    fc.memBudgetBytes = 1'000'001; // 3 * 333'333 + 2
    ServeFrontend frontend(testParams(), ServeConfig{}, kDim, fc);
    // The first budget % shards shards take the extra byte; an even
    // split would silently shave the operator's stated limit.
    EXPECT_EQ(frontend.manager(0).memBudgetBytes(), 333'334u);
    EXPECT_EQ(frontend.manager(1).memBudgetBytes(), 333'334u);
    EXPECT_EQ(frontend.manager(2).memBudgetBytes(), 333'333u);
    std::size_t sum = 0;
    for (Index s = 0; s < frontend.shardCount(); ++s)
        sum += frontend.manager(s).memBudgetBytes();
    EXPECT_EQ(sum, 1'000'001u);
}

TEST(ServeFrontendDeathTest, BudgetSmallerThanShardCountIsFatal)
{
    FrontendConfig fc;
    fc.shards = 4;
    fc.memBudgetBytes = 3; // some shard would get a zero budget
    EXPECT_EXIT(ServeFrontend(testParams(), ServeConfig{}, kDim, fc),
                ::testing::ExitedWithCode(1), "memBudgetBytes");
}

TEST(ServeFrontendTest, PlacementPrefersLeastLoadedShard)
{
    FrontendConfig fc;
    fc.shards = 2;
    ServeFrontend frontend(testParams(), ServeConfig{}, kDim, fc);
    const Index tenant = frontend.registerTenant({"solo", 1, 16});
    const Index heavy =
        frontend.createSession(tenant, sampleTokens(64, kDim, 110));
    const Index light = frontend.createSession(tenant);
    EXPECT_EQ(frontend.shardOf(heavy), 0);
    EXPECT_EQ(frontend.shardOf(light), 1);
    // An empty flush refreshes the placement load cache; shard 1 now
    // holds far fewer resident bytes, so new sessions go to it until
    // the next refresh evens the picture out.
    EXPECT_TRUE(frontend.flushOnce().empty());
    EXPECT_EQ(frontend.shardOf(frontend.createSession(tenant)), 1);
    EXPECT_EQ(frontend.shardOf(frontend.createSession(tenant)), 1);
    // A fork shares its parent's pages copy-on-write, so it lands on
    // the parent's shard regardless of load.
    EXPECT_EQ(frontend.shardOf(frontend.forkSession(heavy)), 0);
}

TEST(ServeFrontendTest, RetryAfterBacksOffExponentiallyAndResets)
{
    FrontendConfig fc;
    fc.shards = 1;
    fc.retryBaseSeconds = 0.5;
    fc.retryMaxSeconds = 1.0;
    ServeFrontend frontend(testParams(), ServeConfig{}, kDim, fc);
    const Index tenant = frontend.registerTenant({"capped", 1, 2});
    const Index s =
        frontend.createSession(tenant, sampleTokens(8, kDim, 115));
    const Matrix token = sampleTokens(1, kDim, 116);
    for (Index i = 0; i < 2; ++i)
        ASSERT_EQ(frontend.admit(s, token.row(0)).result,
                  SubmitResult::Accepted);
    // Consecutive temporary rejections double the hint from the base
    // up to the cap.
    const auto first = frontend.admit(s, token.row(0));
    EXPECT_EQ(first.result, SubmitResult::QuotaExceeded);
    EXPECT_DOUBLE_EQ(first.retryAfterSeconds, 0.5);
    EXPECT_DOUBLE_EQ(frontend.admit(s, token.row(0)).retryAfterSeconds,
                     1.0);
    EXPECT_DOUBLE_EQ(frontend.admit(s, token.row(0)).retryAfterSeconds,
                     1.0); // capped at retryMaxSeconds
    // Draining re-opens admission; an acceptance resets the streak,
    // so the next rejection starts over at the base.
    EXPECT_EQ(frontend.flushOnce().size(), 2u);
    const auto accepted = frontend.admit(s, token.row(0));
    EXPECT_EQ(accepted.result, SubmitResult::Accepted);
    EXPECT_DOUBLE_EQ(accepted.retryAfterSeconds, 0.0);
    ASSERT_EQ(frontend.admit(s, token.row(0)).result,
              SubmitResult::Accepted);
    const auto again = frontend.admit(s, token.row(0));
    EXPECT_EQ(again.result, SubmitResult::QuotaExceeded);
    EXPECT_DOUBLE_EQ(again.retryAfterSeconds, 0.5);
}

#ifndef CTA_FAULT_DISABLED
TEST(ServeFrontendTest, ForcedQueueDelayExpiryLeavesStreamsIntact)
{
    const auto params = testParams();
    FrontendConfig fc;
    fc.shards = 1;
    ServeFrontend frontend(params, ServeConfig{}, kDim, fc);
    const Index alpha = frontend.registerTenant({"alpha", 1, 16});
    const Index beta = frontend.registerTenant({"beta", 1, 16});
    const Matrix ctx_a = sampleTokens(8, kDim, 120);
    const Matrix ctx_b = sampleTokens(8, kDim, 121);
    const Index sa = frontend.createSession(alpha, ctx_a);
    const Index sb = frontend.createSession(beta, ctx_b);
    const Matrix steps = sampleTokens(4, kDim, 122);

    // Arm only the queue-delay site at rate 1: every dispatched step
    // is treated as having overstayed its deadline.
    cta::fault::FaultConfig injecting;
    injecting.seed = 11;
    injecting.rate = 1.0;
    injecting.sites =
        1u << static_cast<unsigned>(cta::fault::Site::QueueDelay);
    cta::fault::setConfig(injecting);
    for (Index i = 0; i < 2; ++i) {
        ASSERT_EQ(frontend.admit(sa, steps.row(i)).result,
                  SubmitResult::Accepted);
        ASSERT_EQ(frontend.admit(sb, steps.row(2 + i)).result,
                  SubmitResult::Accepted);
    }
    const auto expired = frontend.flushOnce();
    cta::fault::setConfig(cta::fault::FaultConfig{});
    ASSERT_EQ(expired.size(), 4u);
    for (const Completion &c : expired)
        EXPECT_EQ(c.status, StepStatus::Expired);
    // The forced expiries are charged to the right tenants...
    EXPECT_EQ(frontend.tenantCounters(alpha).expired, 2u);
    EXPECT_EQ(frontend.tenantCounters(beta).expired, 2u);
    EXPECT_EQ(frontend.tenantCounters(alpha).completed, 0u);
    EXPECT_EQ(frontend.tenantCounters(beta).completed, 0u);

    // ...and no expired step touched any stream: with the fault
    // disarmed the same steps complete bit-identically to reference
    // sessions that never saw the expired attempts.
    DecodeSession ref_a(params, ServeConfig{}, kDim);
    DecodeSession ref_b(params, ServeConfig{}, kDim);
    ref_a.prefill(ctx_a);
    ref_b.prefill(ctx_b);
    for (Index i = 0; i < 2; ++i) {
        ASSERT_EQ(frontend.admit(sa, steps.row(i)).result,
                  SubmitResult::Accepted);
        ASSERT_EQ(frontend.admit(sb, steps.row(2 + i)).result,
                  SubmitResult::Accepted);
    }
    const auto done = frontend.flushOnce();
    ASSERT_EQ(done.size(), 4u);
    Index seen_a = 0;
    Index seen_b = 0;
    for (const Completion &c : done) {
        ASSERT_EQ(c.status, StepStatus::Ok);
        const Matrix want =
            c.session == sa ? ref_a.step(steps.row(seen_a++))
                            : ref_b.step(steps.row(2 + seen_b++));
        EXPECT_TRUE(bitIdentical(c.output, want));
    }
    EXPECT_EQ(seen_a, 2);
    EXPECT_EQ(seen_b, 2);
}
#endif // CTA_FAULT_DISABLED

// ---- load generator ----------------------------------------------

TEST(LoadGenTest, TracesAreDeterministicAndSorted)
{
    cta::serve::LoadGenConfig lg;
    lg.sessions = 16;
    lg.ratePerSecond = 500;
    lg.burstFactor = 1.5;
    lg.durationSeconds = 2.0;
    lg.seed = 42;
    const auto a = cta::serve::generateArrivals(lg);
    const auto b = cta::serve::generateArrivals(lg);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].session, b[i].session);
        EXPECT_EQ(a[i].steps, b[i].steps);
        if (i > 0) {
            EXPECT_GE(a[i].time, a[i - 1].time);
        }
        EXPECT_GE(a[i].session, 0);
        EXPECT_LT(a[i].session, lg.sessions);
        EXPECT_GE(a[i].steps, lg.minSteps);
        EXPECT_LE(a[i].steps, lg.maxSteps);
        EXPECT_GE(a[i].time, 0.0);
        EXPECT_LT(a[i].time, lg.durationSeconds);
    }
    // The thinned process realizes roughly rate * duration arrivals.
    const double expected = lg.ratePerSecond * lg.durationSeconds;
    EXPECT_GT(static_cast<double>(a.size()), 0.7 * expected);
    EXPECT_LT(static_cast<double>(a.size()), 1.3 * expected);
}

TEST(LoadGenTest, ZipfSkewsTowardLowSlots)
{
    cta::serve::LoadGenConfig lg;
    lg.sessions = 32;
    lg.zipfExponent = 1.0;
    lg.ratePerSecond = 2000;
    lg.durationSeconds = 2.0;
    lg.seed = 7;
    const auto trace = cta::serve::generateArrivals(lg);
    std::vector<int> hits(static_cast<std::size_t>(lg.sessions), 0);
    for (const auto &a : trace)
        ++hits[static_cast<std::size_t>(a.session)];
    // Slot 0 must dominate the tail slot by a wide margin (the exact
    // Zipf ratio is 32:1; demand at least 4:1 to stay robust).
    EXPECT_GT(hits[0], 4 * std::max(hits.back(), 1));
}

TEST(LoadGenTest, MergeInterleavesSortedWithOffset)
{
    cta::serve::LoadGenConfig lg;
    lg.sessions = 4;
    lg.ratePerSecond = 300;
    lg.durationSeconds = 1.0;
    lg.seed = 8;
    const auto a = cta::serve::generateArrivals(lg);
    lg.seed = 9;
    const auto b = cta::serve::generateArrivals(lg);
    const auto merged = cta::serve::mergeArrivals(a, b, 4);
    ASSERT_EQ(merged.size(), a.size() + b.size());
    std::size_t fromB = 0;
    for (std::size_t i = 0; i < merged.size(); ++i) {
        if (i > 0) {
            EXPECT_GE(merged[i].time, merged[i - 1].time);
        }
        if (merged[i].session >= 4)
            ++fromB;
    }
    EXPECT_EQ(fromB, b.size());
}

TEST(LoadGenDeathTest, RejectsOutOfRangeParameters)
{
    cta::serve::LoadGenConfig lg;
    lg.burstFactor = 3.0; // > 2 would drive the modulated rate negative
    EXPECT_EXIT(cta::serve::generateArrivals(lg),
                ::testing::ExitedWithCode(1), "burstFactor");
    lg.burstFactor = 1.0;
    lg.ratePerSecond = 0;
    EXPECT_EXIT(cta::serve::generateArrivals(lg),
                ::testing::ExitedWithCode(1), "ratePerSecond");
}

} // namespace
