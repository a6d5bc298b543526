/**
 * @file
 * Tests for shard fault domains (DESIGN.md §4.10): the health state
 * machine, flush wedging and step bouncing, snapshot failover with
 * root-first prefix-chain migration, quarantine drops, deferred
 * re-homing when no shard survives, operator drain/recovery, and the
 * export/adopt migration primitives at the SessionManager level.
 * The through-line is the bit-identity contract: no fence, bounce or
 * migration may ever change a surviving session's output stream.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/rng.h"
#include "fault/fault.h"
#include "nn/workload.h"
#include "serve/frontend.h"
#include "serve/session_manager.h"

namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;
using cta::core::Rng;
using cta::serve::Completion;
using cta::serve::DecodeSession;
using cta::serve::FrontendConfig;
using cta::serve::PrefixExport;
using cta::serve::ServeConfig;
using cta::serve::ServeFrontend;
using cta::serve::SessionExport;
using cta::serve::SessionManager;
using cta::serve::ShardHealth;
using cta::serve::StepStatus;
using cta::serve::SubmitResult;

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

// ---- manager-level migration primitives --------------------------

TEST(SessionMigrationTest, ExportAdoptRoundTripIsBitIdentical)
{
    const auto params = testParams();
    const Matrix ctx = sampleTokens(24, kDim, 130);
    const Matrix steps = sampleTokens(4, kDim, 131);

    // Source and an identical twin that never migrates: the twin is
    // the bit-identity reference for the migrated session.
    SessionManager src(params, ServeConfig{}, kDim, 0);
    SessionManager twin(params, ServeConfig{}, kDim, 0);
    const Index s = src.createSession(ctx);
    const Index t = twin.createSession(ctx);
    const Matrix before = src.acquire(s).step(steps.row(0));
    ASSERT_TRUE(
        bitIdentical(before, twin.acquire(t).step(steps.row(0))));

    // The destination already holds its own sessions, so adopted ids
    // never collide with source ids by accident.
    SessionManager dst(params, ServeConfig{}, kDim, 0);
    dst.createSession(sampleTokens(8, kDim, 132));

    SessionExport exp = src.exportSession(s);
    EXPECT_EQ(exp.prefixId, -1); // standalone session
    EXPECT_FALSE(exp.corruptionInjected);
    const Index adopted = dst.adoptSession(std::move(exp), -1);
    src.removeSession(s);
    EXPECT_TRUE(dst.isEvicted(adopted)); // restores lazily

    // The migrated restore replays the exact bytes the source would
    // have restored, so the stream continues bit-identically.
    for (Index i = 1; i < 4; ++i) {
        const Matrix got = dst.acquire(adopted).step(steps.row(i));
        EXPECT_TRUE(
            bitIdentical(got, twin.acquire(t).step(steps.row(i))))
            << "step " << i;
    }
}

TEST(SessionMigrationTest, AdoptRemapsPrefixReferences)
{
    const auto params = testParams();
    const Matrix ctx = sampleTokens(16, kDim, 135);
    const Matrix steps = sampleTokens(4, kDim, 136);

    SessionManager src(params, ServeConfig{}, kDim, 0);
    SessionManager twin(params, ServeConfig{}, kDim, 0);
    const Index parent = src.createSession(ctx);
    const Index child = src.forkSession(parent); // registers prefix 0
    const Index tp = twin.createSession(ctx);
    const Index tc = twin.forkSession(tp);

    // The destination's prefix id space is offset by one pre-existing
    // prefix, so the migrated blob's embedded reference MUST be
    // rewritten or the child would silently resolve a stranger.
    SessionManager dst(params, ServeConfig{}, kDim, 0);
    const Index filler = dst.createSession(sampleTokens(8, kDim, 137));
    dst.forkSession(filler); // occupies dst prefix 0

    SessionExport exp = src.exportSession(child);
    ASSERT_EQ(exp.prefixId, 0);
    PrefixExport pexp = src.exportPrefix(exp.prefixId);
    EXPECT_EQ(pexp.parentId, -1); // single-level chain
    const std::int64_t newPrefix = dst.adoptPrefix(std::move(pexp), -1);
    EXPECT_EQ(newPrefix, 1);
    const Index adopted =
        dst.adoptSession(std::move(exp), newPrefix);
    for (Index i = 0; i < 4; ++i) {
        const Matrix got = dst.acquire(adopted).step(steps.row(i));
        EXPECT_TRUE(
            bitIdentical(got, twin.acquire(tc).step(steps.row(i))))
            << "step " << i;
    }
}

TEST(SessionMigrationDeathTest, ExportingQuarantinedOrRemovedIsFatal)
{
    const auto params = testParams();
    SessionManager mgr(params, ServeConfig{}, kDim, 0);
    const Index s = mgr.createSession(sampleTokens(8, kDim, 138));
    mgr.removeSession(s);
    EXPECT_EXIT(mgr.exportSession(s), ::testing::ExitedWithCode(1),
                "removed");
}

#ifndef CTA_FAULT_DISABLED
TEST(SessionMigrationTest, PoisonedSnapshotIsQuarantinedOnArrival)
{
    const auto params = testParams();
    SessionManager src(params, ServeConfig{}, kDim, 0);
    SessionManager dst(params, ServeConfig{}, kDim, 0);
    const Index s = src.createSession(sampleTokens(8, kDim, 140));
    ASSERT_TRUE(src.poisonSession(s, 0xB10Bull));
    ASSERT_TRUE(src.isEvicted(s)); // poisoned, not yet detected
    EXPECT_EQ(src.stats().corruptionsInjected, 1u);

    SessionExport exp = src.exportSession(s);
    EXPECT_TRUE(exp.corruptionInjected);
    const Index adopted = dst.adoptSession(std::move(exp), -1);
    // The corrupt blob is detected right at adoption: the injection
    // was counted on the source, the detection lands on the
    // destination — the cross-shard ledger still balances.
    EXPECT_TRUE(dst.isQuarantined(adopted));
    EXPECT_EQ(dst.stats().corruptionsDetected, 1u);
    EXPECT_EQ(dst.stats().corruptionsSilent, 0u);
}
#endif // CTA_FAULT_DISABLED

// ---- front-end failover ------------------------------------------

TEST(ShardFailoverTest, FailShardMigratesSessionsBitIdentically)
{
    const auto params = testParams();
    FrontendConfig fc;
    fc.shards = 2;
    ServeFrontend frontend(params, ServeConfig{}, kDim, fc);
    const Index tenant = frontend.registerTenant({"solo", 1, 64});
    const Matrix ctx_a = sampleTokens(24, kDim, 150);
    const Matrix ctx_b = sampleTokens(16, kDim, 151);
    const Index sa = frontend.createSession(tenant, ctx_a);
    const Index sb = frontend.createSession(tenant, ctx_b);
    ASSERT_EQ(frontend.shardOf(sa), 0);
    ASSERT_EQ(frontend.shardOf(sb), 1);

    DecodeSession ref_a(params, ServeConfig{}, kDim);
    DecodeSession ref_b(params, ServeConfig{}, kDim);
    ref_a.prefill(ctx_a);
    ref_b.prefill(ctx_b);

    const Matrix steps = sampleTokens(4, kDim, 152);
    ASSERT_EQ(frontend.admit(sa, steps.row(0)).result,
              SubmitResult::Accepted);
    ASSERT_EQ(frontend.admit(sb, steps.row(1)).result,
              SubmitResult::Accepted);
    for (const Completion &c : frontend.flushOnce()) {
        ASSERT_EQ(c.status, StepStatus::Ok);
        EXPECT_TRUE(bitIdentical(
            c.output, c.session == sa ? ref_a.step(steps.row(0))
                                      : ref_b.step(steps.row(1))));
    }

    frontend.failShard(0);
    EXPECT_EQ(frontend.shardHealth(0), ShardHealth::Failed);
    EXPECT_EQ(frontend.shardOf(sa), 1); // re-homed to the survivor
    EXPECT_EQ(frontend.shardStats(0).sessionsMigratedOut, 1u);
    EXPECT_EQ(frontend.shardStats(0).failovers, 1u);
    EXPECT_EQ(frontend.shardStats(1).sessionsMigratedIn, 1u);

    // Post-migration steps replay the snapshot through the ordinary
    // restore path — bit-identical to the never-migrated twins.
    ASSERT_EQ(frontend.admit(sa, steps.row(2)).result,
              SubmitResult::Accepted);
    ASSERT_EQ(frontend.admit(sb, steps.row(3)).result,
              SubmitResult::Accepted);
    const auto after = frontend.flushOnce();
    ASSERT_EQ(after.size(), 2u);
    for (const Completion &c : after) {
        ASSERT_EQ(c.status, StepStatus::Ok);
        EXPECT_EQ(c.shard, 1);
        EXPECT_TRUE(bitIdentical(
            c.output, c.session == sa ? ref_a.step(steps.row(2))
                                      : ref_b.step(steps.row(3))));
    }

    // Recovery returns the (now empty) shard to rotation, and the
    // load-aware placement immediately prefers it.
    frontend.recoverShard(0);
    EXPECT_EQ(frontend.shardHealth(0), ShardHealth::Healthy);
    EXPECT_EQ(frontend.shardStats(0).recoveries, 1u);
    EXPECT_EQ(frontend.shardOf(frontend.createSession(tenant)), 0);
}

TEST(ShardFailoverTest, PrefixChainMigratesWithItsSessions)
{
    const auto params = testParams();
    FrontendConfig fc;
    fc.shards = 2;
    ServeFrontend frontend(params, ServeConfig{}, kDim, fc);
    const Index tenant = frontend.registerTenant({"solo", 1, 64});
    const Matrix ctx = sampleTokens(24, kDim, 160);
    const Index parent = frontend.createSession(tenant, ctx);
    const Index child = frontend.forkSession(parent);
    ASSERT_EQ(frontend.shardOf(parent), 0);
    ASSERT_EQ(frontend.shardOf(child), 0);

    // Reference: the same fork pair on a standalone manager.
    SessionManager ref(params, ServeConfig{}, kDim, 0);
    const Index rp = ref.createSession(ctx);
    const Index rc = ref.forkSession(rp);

    const Matrix steps = sampleTokens(4, kDim, 161);
    ASSERT_EQ(frontend.admit(parent, steps.row(0)).result,
              SubmitResult::Accepted);
    ASSERT_EQ(frontend.admit(child, steps.row(1)).result,
              SubmitResult::Accepted);
    for (const Completion &c : frontend.flushOnce()) {
        ASSERT_EQ(c.status, StepStatus::Ok);
        EXPECT_TRUE(bitIdentical(
            c.output,
            c.session == parent
                ? ref.acquire(rp).step(steps.row(0))
                : ref.acquire(rc).step(steps.row(1))));
    }

    // Both sessions — and the shared prefix the child's snapshot
    // references — re-home together, root-first.
    frontend.failShard(0);
    EXPECT_EQ(frontend.shardOf(parent), 1);
    EXPECT_EQ(frontend.shardOf(child), 1);
    EXPECT_EQ(frontend.shardStats(0).sessionsMigratedOut, 2u);
    EXPECT_GE(frontend.shardStats(1).prefixesMigratedIn, 1u);

    ASSERT_EQ(frontend.admit(parent, steps.row(2)).result,
              SubmitResult::Accepted);
    ASSERT_EQ(frontend.admit(child, steps.row(3)).result,
              SubmitResult::Accepted);
    const auto after = frontend.flushOnce();
    ASSERT_EQ(after.size(), 2u);
    for (const Completion &c : after) {
        ASSERT_EQ(c.status, StepStatus::Ok);
        EXPECT_TRUE(bitIdentical(
            c.output,
            c.session == parent
                ? ref.acquire(rp).step(steps.row(2))
                : ref.acquire(rc).step(steps.row(3))));
    }
}

TEST(ShardFailoverTest, LastShardFencesDefersAndRecovers)
{
    const auto params = testParams();
    FrontendConfig fc;
    fc.shards = 1;
    fc.retryBaseSeconds = 0.25;
    fc.retryMaxSeconds = 2.0;
    ServeFrontend frontend(params, ServeConfig{}, kDim, fc);
    const Index tenant = frontend.registerTenant({"solo", 1, 16});
    const Matrix ctx = sampleTokens(16, kDim, 170);
    const Index s = frontend.createSession(tenant, ctx);

    DecodeSession ref(params, ServeConfig{}, kDim);
    ref.prefill(ctx);

    const Matrix steps = sampleTokens(2, kDim, 171);
    ASSERT_EQ(frontend.admit(s, steps.row(0)).result,
              SubmitResult::Accepted);
    const auto first = frontend.flushOnce();
    ASSERT_EQ(first.size(), 1u);
    EXPECT_TRUE(
        bitIdentical(first[0].output, ref.step(steps.row(0))));

    // With no survivor the failover defers: the session stays fenced
    // on the Failed shard instead of being dropped.
    frontend.failShard(0);
    EXPECT_EQ(frontend.shardStats(0).sessionsMigratedOut, 0u);
    EXPECT_EQ(frontend.shardStats(0).sessionsDropped, 0u);
    const auto fenced = frontend.admit(s, steps.row(1));
    EXPECT_EQ(fenced.result, SubmitResult::ShardFenced);
    EXPECT_DOUBLE_EQ(fenced.retryAfterSeconds, 0.25);
    EXPECT_DOUBLE_EQ(frontend.admit(s, steps.row(1)).retryAfterSeconds,
                     0.5); // the backoff hint keeps doubling
    EXPECT_EQ(frontend.tenantCounters(tenant).shedFenced, 2u);

    // Recovery resumes serving with the stream exactly where the
    // fence left it.
    frontend.recoverShard(0);
    ASSERT_EQ(frontend.admit(s, steps.row(1)).result,
              SubmitResult::Accepted);
    const auto second = frontend.flushOnce();
    ASSERT_EQ(second.size(), 1u);
    ASSERT_EQ(second[0].status, StepStatus::Ok);
    EXPECT_TRUE(
        bitIdentical(second[0].output, ref.step(steps.row(1))));
}

TEST(ShardFailoverDeathTest, LifecycleGuards)
{
    FrontendConfig fc;
    fc.shards = 2;
    ServeFrontend frontend(testParams(), ServeConfig{}, kDim, fc);
    const Index tenant = frontend.registerTenant({"solo", 1, 16});
    EXPECT_EXIT(frontend.recoverShard(0),
                ::testing::ExitedWithCode(1),
                "only a Failed shard can recover");
    frontend.failShard(0);
    EXPECT_EXIT(frontend.failShard(0), ::testing::ExitedWithCode(1),
                "already Failed");
    frontend.failShard(1);
    EXPECT_EXIT(frontend.createSession(tenant),
                ::testing::ExitedWithCode(1),
                "every shard is Failed");
}

#ifndef CTA_FAULT_DISABLED

/** The ShardFault site bit, alone. */
unsigned
shardFaultSite()
{
    return 1u << static_cast<unsigned>(cta::fault::Site::ShardFault);
}

/**
 * A seed whose ShardFault poison mix-bit is clear for shard 0's
 * first @p flushes flush ordinals: the wedges fire (rate 1) but the
 * poison arm stays quiet, so the test exercises pure wedge/bounce
 * behavior without losing its sessions to snapshot corruption. The
 * draw is a pure function of (seed, site, key), so probing with
 * fault::mix is exact, not statistical.
 */
std::uint64_t
seedWithoutPoison(Index flushes)
{
    for (std::uint64_t seed = 1; seed < 10'000; ++seed) {
        cta::fault::FaultConfig probe;
        probe.seed = seed;
        probe.rate = 1.0;
        probe.sites = shardFaultSite();
        cta::fault::setConfig(probe);
        bool clean = true;
        for (std::uint64_t ord = 1;
             ord <= static_cast<std::uint64_t>(flushes); ++ord)
            if ((cta::fault::mix(cta::fault::Site::ShardFault,
                                 ord ^ 0xD15EA5Eull) &
                 1u) != 0)
                clean = false;
        if (clean)
            return seed;
    }
    ADD_FAILURE() << "no poison-free seed below 10000";
    return 1;
}

TEST(ShardFailoverTest, WedgedFlushBouncesAndHealthEscalates)
{
    const auto params = testParams();
    FrontendConfig fc;
    fc.shards = 1;
    fc.shardFailAfter = 2;
    ServeFrontend frontend(params, ServeConfig{}, kDim, fc);
    const Index tenant = frontend.registerTenant({"solo", 1, 16});
    const Matrix ctx = sampleTokens(16, kDim, 180);
    const Index s = frontend.createSession(tenant, ctx);

    DecodeSession ref(params, ServeConfig{}, kDim);
    ref.prefill(ctx);
    const Matrix steps = sampleTokens(2, kDim, 181);

    const std::uint64_t injectedBefore =
        cta::fault::totalInjections(cta::fault::Site::ShardFault);
    cta::fault::FaultConfig wedging;
    wedging.seed = seedWithoutPoison(2);
    wedging.rate = 1.0;
    wedging.sites = shardFaultSite();
    cta::fault::setConfig(wedging);

    // First wedge: every dispatched step bounces, health degrades.
    for (Index i = 0; i < 2; ++i)
        ASSERT_EQ(frontend.admit(s, steps.row(i)).result,
                  SubmitResult::Accepted);
    const auto bounced = frontend.flushOnce();
    ASSERT_EQ(bounced.size(), 2u);
    for (const Completion &c : bounced)
        EXPECT_EQ(c.status, StepStatus::Bounced);
    EXPECT_EQ(frontend.shardHealth(0), ShardHealth::Degraded);
    EXPECT_EQ(frontend.shardStats(0).consecutiveFlushFailures, 1u);
    EXPECT_EQ(frontend.tenantCounters(tenant).shedBounced, 2u);

    // Second consecutive wedge crosses shardFailAfter: the shard
    // fails, and with no survivor its session defers, fenced.
    ASSERT_EQ(frontend.admit(s, steps.row(0)).result,
              SubmitResult::Accepted);
    for (const Completion &c : frontend.flushOnce())
        EXPECT_EQ(c.status, StepStatus::Bounced);
    cta::fault::setConfig(cta::fault::FaultConfig{});
    EXPECT_EQ(frontend.shardHealth(0), ShardHealth::Failed);
    EXPECT_EQ(frontend.shardStats(0).flushFailures, 2u);
    EXPECT_EQ(frontend.shardStats(0).failovers, 1u);
    EXPECT_EQ(frontend.admit(s, steps.row(0)).result,
              SubmitResult::ShardFenced);
    // Every wedge came from one counted ShardFault draw: the chaos
    // soak's detected == injected ledger hinges on this equality.
    EXPECT_EQ(cta::fault::totalInjections(
                  cta::fault::Site::ShardFault) -
                  injectedBefore,
              2u);

    // Bounces never touched the stream: after recovery the same
    // steps complete bit-identically to the fault-free reference.
    frontend.recoverShard(0);
    for (Index i = 0; i < 2; ++i)
        ASSERT_EQ(frontend.admit(s, steps.row(i)).result,
                  SubmitResult::Accepted);
    const auto done = frontend.flushOnce();
    ASSERT_EQ(done.size(), 2u);
    for (Index i = 0; i < 2; ++i) {
        ASSERT_EQ(done[static_cast<std::size_t>(i)].status,
                  StepStatus::Ok);
        EXPECT_TRUE(bitIdentical(
            done[static_cast<std::size_t>(i)].output,
            ref.step(steps.row(i))));
    }
    EXPECT_EQ(frontend.shardHealth(0), ShardHealth::Healthy);
}

TEST(ShardFailoverTest, QuarantinedSessionsAreDroppedAtFailover)
{
    const auto params = testParams();
    FrontendConfig fc;
    fc.shards = 2;
    fc.shardFailAfter = 5; // keep corruption from auto-failing shard 0
    fc.memBudgetBytes = 2; // 1 byte per shard: evict all but the MRU
    ServeFrontend frontend(params, ServeConfig{}, kDim, fc);
    const Index tenant = frontend.registerTenant({"solo", 1, 64});
    const Matrix ctx = sampleTokens(8, kDim, 190);
    const Index s0 = frontend.createSession(tenant, ctx);
    const Index s1 =
        frontend.createSession(tenant, sampleTokens(8, kDim, 191));
    const Index s2 =
        frontend.createSession(tenant, sampleTokens(8, kDim, 192));
    ASSERT_EQ(frontend.shardOf(s0), 0);
    ASSERT_EQ(frontend.shardOf(s1), 1);
    ASSERT_EQ(frontend.shardOf(s2), 0);

    DecodeSession ref(params, ServeConfig{}, kDim);
    ref.prefill(ctx);
    const Matrix steps = sampleTokens(3, kDim, 193);

    // Every blob evicted while armed corrupts. Stepping only s0
    // makes it the MRU, so budget enforcement evicts s2 — with a
    // corrupt snapshot.
    cta::fault::FaultConfig corrupting;
    corrupting.seed = 31;
    corrupting.rate = 1.0;
    corrupting.sites =
        1u << static_cast<unsigned>(cta::fault::Site::SnapshotBlob);
    cta::fault::setConfig(corrupting);
    ASSERT_EQ(frontend.admit(s0, steps.row(0)).result,
              SubmitResult::Accepted);
    const auto first = frontend.flushOnce();
    cta::fault::setConfig(cta::fault::FaultConfig{});
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(first[0].status, StepStatus::Ok);
    EXPECT_TRUE(
        bitIdentical(first[0].output, ref.step(steps.row(0))));

    // The corrupt blob is detected at the next restore: s2 comes
    // back Corrupted and is quarantined.
    ASSERT_EQ(frontend.admit(s2, steps.row(1)).result,
              SubmitResult::Accepted);
    const auto second = frontend.flushOnce();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].status, StepStatus::Corrupted);
    EXPECT_EQ(frontend.admit(s2, steps.row(1)).result,
              SubmitResult::Corrupted);

    // Failover drops the quarantined tombstone and migrates the
    // healthy session.
    frontend.failShard(0);
    EXPECT_EQ(frontend.shardStats(0).sessionsDropped, 1u);
    EXPECT_EQ(frontend.shardStats(0).sessionsMigratedOut, 1u);
    EXPECT_EQ(frontend.shardOf(s0), 1);
    const auto verdict = frontend.admit(s2, steps.row(1));
    EXPECT_EQ(verdict.result, SubmitResult::Corrupted);
    EXPECT_DOUBLE_EQ(verdict.retryAfterSeconds, 0); // terminal

    // The survivor still serves bit-identically after migration.
    ASSERT_EQ(frontend.admit(s0, steps.row(1)).result,
              SubmitResult::Accepted);
    const auto third = frontend.flushOnce();
    ASSERT_EQ(third.size(), 1u);
    ASSERT_EQ(third[0].status, StepStatus::Ok);
    EXPECT_TRUE(
        bitIdentical(third[0].output, ref.step(steps.row(1))));
    (void)s1;

    // Regression: the dropped tombstone's ref still names shard 0,
    // so a second fail/recover cycle of that shard revisits it. The
    // failover loop must skip the already-removed slot instead of
    // trying to export it.
    frontend.recoverShard(0);
    frontend.failShard(0);
    EXPECT_EQ(frontend.shardStats(0).sessionsDropped, 1u);
    EXPECT_EQ(frontend.admit(s2, steps.row(1)).result,
              SubmitResult::Corrupted);
    frontend.recoverShard(0);

    // And the survivor keeps serving through the churn.
    ASSERT_EQ(frontend.admit(s0, steps.row(2)).result,
              SubmitResult::Accepted);
    const auto fourth = frontend.flushOnce();
    ASSERT_EQ(fourth.size(), 1u);
    ASSERT_EQ(fourth[0].status, StepStatus::Ok);
    EXPECT_TRUE(
        bitIdentical(fourth[0].output, ref.step(steps.row(2))));
}

#endif // CTA_FAULT_DISABLED

} // namespace
