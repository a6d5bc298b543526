/**
 * @file
 * Tests for SessionManager: byte accounting, LRU eviction under a
 * budget, bit-identical restore through the manager, lifecycle
 * (remove) semantics, env-knob parsing, the no-livelock guarantee
 * when the budget is smaller than a single session, and restore and
 * budget enforcement around a flush. The submit queue and the flush
 * itself are covered by batcher_test. Managers are built with an
 * explicit byte budget, so CTA_MEM_BUDGET cannot leak into the tests.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/rng.h"
#include "nn/workload.h"
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

Matrix
sampleTokens(Index n, std::uint64_t seed)
{
    cta::nn::WorkloadProfile profile;
    profile.seqLen = n;
    profile.tokenDim = kDim;
    profile.coarseClusters = 8;
    profile.fineClusters = 6;
    profile.noiseScale = 0.05f;
    cta::nn::WorkloadGenerator gen(profile, seed);
    return gen.sampleTokens();
}

cta::nn::AttentionHeadParams
headParams(std::uint64_t seed = 2)
{
    Rng rng(seed);
    return cta::nn::AttentionHeadParams::randomInit(kDim, kHeadDim,
                                                    rng);
}

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) *
                           sizeof(Real)) == 0;
}

TEST(SessionManagerTest, AccountsBytesAndTracksStates)
{
    SessionManager manager(headParams(), ServeConfig{}, kDim,
                           /*mem_budget_bytes=*/0);
    EXPECT_EQ(manager.sessionCount(), 0);
    EXPECT_EQ(manager.liveStateBytes(), 0u);

    const Index a = manager.createSession(sampleTokens(48, 100));
    const Index b = manager.createSession();
    EXPECT_EQ(manager.sessionCount(), 2);
    EXPECT_TRUE(manager.isLive(a));
    EXPECT_TRUE(manager.isLive(b));

    // A prefilled session owns strictly more state than an empty one,
    // and the aggregate equals the per-session sum.
    const std::size_t bytes_a = manager.acquire(a).stateBytes();
    const std::size_t bytes_b = manager.acquire(b).stateBytes();
    EXPECT_GT(bytes_a, bytes_b);
    EXPECT_EQ(manager.liveStateBytes(), bytes_a + bytes_b);

    const auto stats = manager.stats();
    EXPECT_EQ(stats.created, 2);
    EXPECT_EQ(stats.live, 2);
    EXPECT_EQ(stats.evicted, 0);
    EXPECT_EQ(stats.liveBytes, bytes_a + bytes_b);
}

TEST(SessionManagerTest, EvictsLruFirstUnderBudget)
{
    // Size one session to compute a ~2.5-session budget.
    SessionManager sizer(headParams(), ServeConfig{}, kDim, 0);
    const std::size_t per_session =
        sizer.acquire(sizer.createSession(sampleTokens(32, 200)))
            .stateBytes();

    SessionManager enforced(headParams(), ServeConfig{}, kDim,
                            per_session * 5 / 2);
    std::vector<Index> eids;
    for (int i = 0; i < 4; ++i)
        eids.push_back(enforced.createSession(
            sampleTokens(32, 200 + static_cast<std::uint64_t>(i))));
    enforced.touch(eids[2]);
    enforced.touch(eids[0]);
    enforced.touch(eids[3]);
    enforced.touch(eids[1]);
    enforced.enforceBudget();

    EXPECT_TRUE(enforced.isEvicted(eids[2]));
    EXPECT_TRUE(enforced.isEvicted(eids[0]));
    EXPECT_TRUE(enforced.isLive(eids[3]));
    EXPECT_TRUE(enforced.isLive(eids[1]));
    EXPECT_LE(enforced.liveStateBytes(), per_session * 5 / 2);
    EXPECT_GT(enforced.evictedBlobBytes(), 0u);
    EXPECT_EQ(enforced.stats().evictions, 2u);
}

TEST(SessionManagerTest, RestoreThroughManagerIsBitIdentical)
{
    const Index prefill = 40, steps = 8;
    const Matrix tokens = sampleTokens(prefill + steps, 300);

    // Reference: never evicted.
    SessionManager ref_manager(headParams(), ServeConfig{}, kDim, 0);
    const Index ref = ref_manager.createSession(
        tokens.rowSlice(0, prefill));
    std::vector<Matrix> want;
    for (Index i = 0; i < steps; ++i)
        want.push_back(
            ref_manager.acquire(ref).step(tokens.row(prefill + i)));

    // Victim: evicted and restored between every step.
    SessionManager manager(headParams(), ServeConfig{}, kDim, 0);
    const Index id = manager.createSession(
        tokens.rowSlice(0, prefill));
    for (Index i = 0; i < steps; ++i) {
        manager.evict(id);
        ASSERT_TRUE(manager.isEvicted(id));
        const Matrix out =
            manager.acquire(id).step(tokens.row(prefill + i));
        ASSERT_TRUE(manager.isLive(id));
        EXPECT_TRUE(bitIdentical(
            out, want[static_cast<std::size_t>(i)]))
            << "step " << i;
    }
    EXPECT_EQ(manager.stats().evictions, manager.stats().restores);
}

TEST(SessionManagerTest, TinyBudgetDegradesToOneResidentNoLivelock)
{
    // Budget below a single session: the never-evict-MRU rule must
    // leave exactly the most recent session resident and still make
    // forward progress.
    SessionManager manager(headParams(), ServeConfig{}, kDim, 1);
    const Index a = manager.createSession(sampleTokens(32, 400));
    const Index b = manager.createSession(sampleTokens(32, 401));
    const Matrix decode = sampleTokens(4, 402);

    for (Index i = 0; i < 4; ++i) {
        (void)manager.acquire(a).step(decode.row(i));
        manager.enforceBudget();
        EXPECT_TRUE(manager.isLive(a));
        EXPECT_TRUE(manager.isEvicted(b));
        (void)manager.acquire(b).step(decode.row(i));
        manager.enforceBudget();
        EXPECT_TRUE(manager.isLive(b));
        EXPECT_TRUE(manager.isEvicted(a));
    }
    EXPECT_EQ(manager.stats().live, 1);
}

TEST(SessionManagerTest, RemoveFreesBytesAndBlocksAccess)
{
    SessionManager manager(headParams(), ServeConfig{}, kDim, 0);
    const Index a = manager.createSession(sampleTokens(32, 500));
    const Index b = manager.createSession(sampleTokens(32, 501));
    manager.evict(b);
    EXPECT_GT(manager.liveStateBytes(), 0u);
    EXPECT_GT(manager.evictedBlobBytes(), 0u);

    manager.removeSession(a);
    manager.removeSession(b);
    EXPECT_EQ(manager.liveStateBytes(), 0u);
    EXPECT_EQ(manager.evictedBlobBytes(), 0u);
    EXPECT_FALSE(manager.exists(a));
    EXPECT_FALSE(manager.exists(b));
    EXPECT_EQ(manager.stats().removed, 2);
    // Ids are not reused.
    EXPECT_EQ(manager.createSession(), 2);
}

TEST(SessionManagerDeathTest, InvalidAccessIsFatal)
{
    SessionManager manager(headParams(), ServeConfig{}, kDim, 0);
    const Index id = manager.createSession();
    manager.removeSession(id);
    EXPECT_EXIT(manager.acquire(id), ::testing::ExitedWithCode(1),
                "removed");
    EXPECT_EXIT(manager.acquire(99), ::testing::ExitedWithCode(1),
                "out of range");
    EXPECT_EXIT(manager.touch(id), ::testing::ExitedWithCode(1),
                "removed");
    EXPECT_EXIT(manager.evict(id), ::testing::ExitedWithCode(1),
                "removed");
    EXPECT_EXIT(manager.removeSession(id),
                ::testing::ExitedWithCode(1), "removed");
    // Submitting to an unknown id is a caller bug, fatal on both
    // submit paths; a removed id is a recoverable rejection, which
    // only submit() turns fatal.
    const std::vector<Real> token(static_cast<std::size_t>(kDim), 0.0f);
    EXPECT_EXIT(manager.submit(3, token), ::testing::ExitedWithCode(1),
                "out of range");
    EXPECT_EXIT(manager.trySubmit(7, token),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(manager.submit(id, token), ::testing::ExitedWithCode(1),
                "SessionRemoved");
}

TEST(SessionManagerDeathTest, EnvBudgetParsing)
{
    // Death-test subprocesses inherit the env we set here; each EXIT
    // clause runs in a child, so setenv/unsetenv around them is safe.
    setenv("CTA_MEM_BUDGET", "garbage", 1);
    EXPECT_EXIT(SessionManager::memBudgetFromEnv(),
                ::testing::ExitedWithCode(1), "CTA_MEM_BUDGET");
    setenv("CTA_MEM_BUDGET", "-5", 1);
    EXPECT_EXIT(SessionManager::memBudgetFromEnv(),
                ::testing::ExitedWithCode(1), "positive");
    setenv("CTA_MEM_BUDGET", "1048576", 1);
    EXPECT_EQ(SessionManager::memBudgetFromEnv(), 1048576u);
    // Human-scale suffixes parse through core::envBytes.
    setenv("CTA_MEM_BUDGET", "64M", 1);
    EXPECT_EQ(SessionManager::memBudgetFromEnv(),
              std::size_t{64} << 20);
    unsetenv("CTA_MEM_BUDGET");
    EXPECT_EQ(SessionManager::memBudgetFromEnv(), 0u);
}

TEST(SessionManagerFlushTest, FlushRestoresEvictedSessionsAndEnforces)
{
    const Index prefill = 32, steps = 6;

    // Reference outputs from a standalone session stepped directly.
    std::vector<Matrix> want;
    {
        DecodeSession ref(headParams(), ServeConfig{}, kDim);
        ref.prefill(sampleTokens(prefill, 600));
        const Matrix decode = sampleTokens(steps, 601);
        for (Index i = 0; i < steps; ++i)
            want.push_back(ref.step(decode.row(i)));
    }

    // Managed: two sessions under a one-session budget, alternating —
    // every flush restores one and evicts the other.
    SessionManager manager(headParams(), ServeConfig{}, kDim, 1);
    const Index a = manager.createSession(sampleTokens(prefill, 600));
    const Index b = manager.createSession(sampleTokens(prefill, 600));
    const Matrix decode = sampleTokens(steps, 601);
    for (Index i = 0; i < steps; ++i) {
        ASSERT_EQ(manager.trySubmit(a, decode.row(i)),
                  SubmitResult::Accepted);
        ASSERT_EQ(manager.trySubmit(b, decode.row(i)),
                  SubmitResult::Accepted);
        const auto results = manager.flush();
        ASSERT_EQ(results.size(), 2u);
        for (const auto &r : results) {
            EXPECT_EQ(r.status, StepStatus::Ok);
            EXPECT_TRUE(bitIdentical(
                r.output, want[static_cast<std::size_t>(i)]))
                << "step " << i;
        }
    }
    const auto stats = manager.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.restores, 0u);
    EXPECT_EQ(stats.live, 1);
}

TEST(SessionManagerFlushTest, PlanFlagsRestoresBeforeResolving)
{
    // beginFlush() only drains and groups; it reports whether an
    // evicted session has work, and resolveFlush() restores it.
    SessionManager manager(headParams(), ServeConfig{}, kDim, 0);
    const Index a = manager.createSession(sampleTokens(16, 620));
    const Index b = manager.createSession(sampleTokens(16, 621));
    const Matrix decode = sampleTokens(2, 622);

    ASSERT_EQ(manager.trySubmit(a, decode.row(0)),
              SubmitResult::Accepted);
    SessionManager::FlushPlan live = manager.beginFlush();
    EXPECT_FALSE(live.needsRestore());
    manager.resolveFlush(live);
    for (Index t = 0; t < live.taskCount(); ++t)
        manager.runPlanTask(live, t);
    EXPECT_EQ(manager.finishFlush(std::move(live)).results.size(), 1u);

    manager.evict(b);
    ASSERT_EQ(manager.trySubmit(b, decode.row(1)),
              SubmitResult::Accepted);
    SessionManager::FlushPlan evicted = manager.beginFlush();
    EXPECT_TRUE(evicted.needsRestore());
    EXPECT_TRUE(manager.isEvicted(b));
    manager.resolveFlush(evicted);
    EXPECT_TRUE(manager.isLive(b));
    for (Index t = 0; t < evicted.taskCount(); ++t)
        manager.runPlanTask(evicted, t);
    const SessionManager::FlushResult done =
        manager.finishFlush(std::move(evicted));
    ASSERT_EQ(done.results.size(), 1u);
    EXPECT_EQ(done.results[0].status, StepStatus::Ok);
    EXPECT_EQ(done.residentBytes, manager.residentBytes());
}

TEST(SessionManagerForkTest, ForkSharesPagesAndStepsBitIdentically)
{
    const Index prefill = 64, steps = 4;
    const Matrix prompt = sampleTokens(prefill, 700);
    const Matrix decode = sampleTokens(steps, 701);

    // Dense 256-byte pages so sharing is visible at this small scale.
    SessionManager manager(headParams(), ServeConfig{}, kDim, 0, 256);
    const Index parent = manager.createSession(prompt);
    const std::size_t parent_bytes =
        manager.acquire(parent).stateBytes();
    const Index c1 = manager.forkSession(parent);
    const Index c2 = manager.forkSession(parent);

    // Freshly forked children share every prefix page: their private
    // footprint is a small fraction of a full copy, and the arena
    // reports shared pages.
    const auto stats = manager.stats();
    EXPECT_EQ(stats.forks, 2u);
    EXPECT_EQ(stats.prefixes, 1);
    EXPECT_EQ(stats.prefixesLive, 1);
    EXPECT_GT(stats.sharedPageBytes, 0u);
    EXPECT_LT(manager.acquire(c1).stateBytes(), parent_bytes / 4);
    // Three sessions over one prompt must cost far less than three
    // full copies.
    EXPECT_LT(manager.residentBytes(), 2 * 3 * parent_bytes / 2);

    // Decode through the fork must match an unshared session bit for
    // bit, for both children (same stream -> same bits).
    SessionManager solo(headParams(), ServeConfig{}, kDim, 0, 256);
    const Index twin = solo.createSession(prompt);
    for (Index i = 0; i < steps; ++i) {
        const Matrix want = solo.acquire(twin).step(decode.row(i));
        EXPECT_TRUE(bitIdentical(
            manager.acquire(c1).step(decode.row(i)), want))
            << "child 1 step " << i;
        EXPECT_TRUE(bitIdentical(
            manager.acquire(c2).step(decode.row(i)), want))
            << "child 2 step " << i;
    }
}

TEST(SessionManagerForkTest, ForkedEvictRestoreIsBitIdentical)
{
    const Index prefill = 48, steps = 6;
    const Matrix prompt = sampleTokens(prefill, 710);
    const Matrix decode = sampleTokens(steps, 711);

    SessionManager manager(headParams(), ServeConfig{}, kDim, 0, 256);
    const Index parent = manager.createSession(prompt);
    const Index victim = manager.forkSession(parent);
    const Index twin = manager.forkSession(parent);

    // The victim is squeezed through its delta blob between every
    // step; the twin never is. Same stream, same bits.
    for (Index i = 0; i < steps; ++i) {
        manager.evict(victim);
        ASSERT_TRUE(manager.isEvicted(victim));
        const Matrix got =
            manager.acquire(victim).step(decode.row(i));
        const Matrix want =
            manager.acquire(twin).step(decode.row(i));
        EXPECT_TRUE(bitIdentical(got, want)) << "step " << i;
    }
    // Forked snapshots are deltas: far smaller than the standalone
    // parent's full snapshot of the same prompt.
    manager.evict(victim);
    const std::size_t delta_blob = manager.evictedBlobBytes();
    manager.evict(parent);
    const std::size_t full_blob =
        manager.evictedBlobBytes() - delta_blob;
    EXPECT_LT(delta_blob, full_blob / 2);
}

TEST(SessionManagerForkTest, PrefixEvictsOnlyWhenColdAndResolvesBack)
{
    const Index prefill = 48, steps = 3;
    const Matrix prompt = sampleTokens(prefill, 720);
    const Matrix decode = sampleTokens(steps, 721);

    SessionManager manager(headParams(), ServeConfig{}, kDim, 0, 256);
    const Index parent = manager.createSession(prompt);
    const Index child = manager.forkSession(parent);
    ASSERT_EQ(manager.prefixCount(), 1);
    ASSERT_TRUE(manager.isPrefixLive(0));

    // A prefix with a live forked session is hot: not evictable. So
    // is one its live parent still caches for the next fork
    // (PrefixCachedByALiveParentIsNotCold); evicting both leaves it
    // cold.
    EXPECT_FALSE(manager.evictPrefixIfCold(0));
    manager.evict(child);
    manager.evict(parent);
    EXPECT_TRUE(manager.evictPrefixIfCold(0));
    EXPECT_FALSE(manager.isPrefixLive(0));
    EXPECT_EQ(manager.stats().prefixEvictions, 1u);
    EXPECT_GT(manager.stats().prefixBlobBytes, 0u);

    // Touching the child resolves the prefix back from its blob and
    // the decode is still bit-identical to an unshared twin.
    SessionManager solo(headParams(), ServeConfig{}, kDim, 0, 256);
    const Index twin = solo.createSession(prompt);
    for (Index i = 0; i < steps; ++i) {
        const Matrix got =
            manager.acquire(child).step(decode.row(i));
        const Matrix want = solo.acquire(twin).step(decode.row(i));
        EXPECT_TRUE(bitIdentical(got, want)) << "step " << i;
    }
    EXPECT_TRUE(manager.isPrefixLive(0));
    EXPECT_EQ(manager.stats().prefixRestores, 1u);
}

TEST(SessionManagerForkTest, PrefixCachedByALiveParentIsNotCold)
{
    // forkSession() freezes the parent into a donor that the parent
    // caches until it next mutates, so a second fork reuses it.
    // Evicting the registry entry while that cache lives would free
    // none of the donor's bytes and hand the next fork a donor the
    // registry no longer holds.
    const Matrix prompt = sampleTokens(48, 730);
    const Matrix decode = sampleTokens(2, 731);
    SessionManager manager(headParams(), ServeConfig{}, kDim, 0, 256);
    const Index parent = manager.createSession(prompt);
    const Index first = manager.forkSession(parent);
    manager.evict(first);
    EXPECT_FALSE(manager.evictPrefixIfCold(0));
    EXPECT_TRUE(manager.isPrefixLive(0));
    EXPECT_EQ(manager.residentBytes(), manager.walkedResidentBytes());

    // The second fork reuses the cached donor and its registry entry.
    const Index second = manager.forkSession(parent);
    EXPECT_EQ(manager.prefixCount(), 1);
    EXPECT_EQ(manager.stats().forks, 2u);
    manager.evict(second);
    EXPECT_EQ(manager.residentBytes(), manager.walkedResidentBytes());

    // Once the parent steps, its cache is gone and the prefix is cold.
    (void)manager.acquire(parent).step(decode.row(0));
    EXPECT_TRUE(manager.evictPrefixIfCold(0));
    EXPECT_FALSE(manager.isPrefixLive(0));
    EXPECT_EQ(manager.residentBytes(), manager.walkedResidentBytes());
}

TEST(SessionManagerForkTest, RunningTotalEqualsTheWalkThroughoutASchedule)
{
    // A seeded random schedule of every operation that moves bytes:
    // create, fork (of a standalone or a forked session), steps
    // through a flush and through acquire(), evict, restore, remove,
    // migrate-style adopt and cold-prefix evict. After each one the
    // O(1) running totals must equal their page walks exactly.
    const Matrix decode = sampleTokens(16, 820);
    for (const std::size_t budget :
         {std::size_t{0}, std::size_t{1}, std::size_t{6000},
          std::size_t{20000}, std::size_t{60000}}) {
        SessionManager manager(headParams(), ServeConfig{}, kDim,
                               budget, 256);
        Rng rng(821 + budget);
        std::vector<Index> forks;
        const auto pick = [&](bool forked) {
            std::vector<Index> ids;
            for (Index id = 0; id < manager.sessionCount(); ++id)
                if (manager.exists(id) && !manager.isQuarantined(id))
                    ids.push_back(id);
            if (forked && !forks.empty())
                ids = forks;
            return ids.empty()
                       ? Index{-1}
                       : ids[static_cast<std::size_t>(
                             rng.uniformInt(ids.size()))];
        };
        const auto forget = [&](Index id) {
            std::erase(forks, id);
        };
        for (int op = 0; op < 120; ++op) {
            const std::uint64_t kind = rng.uniformInt(10);
            Index id = pick(kind == 2);
            if (kind == 0 || id < 0) {
                manager.createSession(sampleTokens(
                    16 + static_cast<Index>(rng.uniformInt(48)),
                    830 + static_cast<std::uint64_t>(op)));
            } else if (kind == 1 || kind == 2) {
                forks.push_back(manager.forkSession(id));
            } else if (kind == 3) {
                for (int k = 0; k < 3; ++k) {
                    const Index target = pick(false);
                    ASSERT_EQ(manager.trySubmit(
                                  target, decode.row(op % 16)),
                              SubmitResult::Accepted);
                }
                manager.flush();
            } else if (kind == 4) {
                (void)manager.acquire(id).step(decode.row(op % 16));
                manager.enforceBudget();
            } else if (kind == 5) {
                manager.evict(id);
            } else if (kind == 6) {
                (void)manager.acquire(id);
            } else if (kind == 7) {
                manager.removeSession(id);
                forget(id);
            } else if (kind == 8) {
                cta::serve::SessionExport exported =
                    manager.exportSession(id);
                manager.removeSession(id);
                forget(id);
                const std::int64_t prefix = exported.prefixId;
                const Index adopted =
                    manager.adoptSession(std::move(exported), prefix);
                if (prefix >= 0)
                    forks.push_back(adopted);
            } else if (manager.prefixCount() > 0) {
                manager.evictPrefixIfCold(static_cast<std::int64_t>(
                    rng.uniformInt(static_cast<std::uint64_t>(
                        manager.prefixCount()))));
            }
            ASSERT_EQ(manager.residentBytes(),
                      manager.walkedResidentBytes())
                << "budget " << budget << " op " << op << " kind "
                << kind;
            ASSERT_EQ(manager.evictedBlobBytes(),
                      manager.stats().evictedBytes)
                << "budget " << budget << " op " << op << " kind "
                << kind;
        }
        const auto stats = manager.stats();
        EXPECT_GT(stats.forks, 0u) << "budget " << budget;
        if (budget > 0 && budget < 20000) {
            EXPECT_GT(stats.evictions, 0u) << "budget " << budget;
            EXPECT_GT(stats.restores, 0u) << "budget " << budget;
        }
    }
}

TEST(SessionManagerForkTest, BudgetPassReturnsTheResidentTotal)
{
    // The front-end caches enforceBudget()'s result as its placement
    // load instead of walking the sessions again, so after every pass
    // of a fork-heavy schedule it must equal residentBytes() exactly —
    // through session evictions, cold-prefix evictions, restores and
    // forks of evicted sessions, at every budget from none to tiny.
    const Matrix decode = sampleTokens(8, 811);
    for (const std::size_t budget :
         {std::size_t{0}, std::size_t{1}, std::size_t{6000},
          std::size_t{20000}, std::size_t{60000}}) {
        SessionManager manager(headParams(), ServeConfig{}, kDim,
                               budget, 256);
        std::vector<Index> forks;
        for (Index p = 0; p < 2; ++p) {
            const Index prompt =
                manager.createSession(sampleTokens(64, 810 + p));
            for (Index f = 0; f < 4; ++f)
                forks.push_back(manager.forkSession(prompt));
        }
        for (Index round = 0; round < 16; ++round) {
            // From round 8 on only the first prompt's forks resume, so
            // the second prompt's donor goes cold.
            const Index span = round < 8 ? 8 : 4;
            for (Index k = 0; k < 3; ++k) {
                const Index id = forks[static_cast<std::size_t>(
                    (3 * round + k) % span)];
                manager.acquire(id).step(decode.row((round + k) % 8));
            }
            if (round == 4) // a fork of a (possibly evicted) fork
                forks.insert(forks.begin(),
                             manager.forkSession(forks[0]));
            const std::size_t total = manager.enforceBudget();
            EXPECT_EQ(total, manager.residentBytes())
                << "budget " << budget << " round " << round;
            EXPECT_EQ(total, manager.walkedResidentBytes())
                << "budget " << budget << " round " << round;
        }
        const auto stats = manager.stats();
        if (budget > 0 && budget < 20000) {
            EXPECT_GT(stats.evictions, 0u) << "budget " << budget;
            EXPECT_GT(stats.restores, 0u) << "budget " << budget;
        }
        if (budget == 1) {
            EXPECT_GT(stats.prefixEvictions, 0u);
        }
    }
}

} // namespace
