/**
 * @file
 * Tests for a shard's submit queue and batched flush (the batching
 * half of SessionManager): submission-order outputs, per-session
 * sequencing, determinism across thread counts, admission control,
 * deadline expiry and rejection accounting. Every manager is built
 * with an explicit zero (unlimited) byte budget, so CTA_MEM_BUDGET
 * cannot leak into these tests.
 */


#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "nn/workload.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/session_manager.h"

namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;
using cta::core::Rng;
using cta::core::ThreadPool;
using cta::serve::DecodeSession;
using cta::serve::ServeConfig;
using cta::serve::SessionManager;
using cta::serve::StepResult;
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

/** An unbudgeted manager whose submit queue holds @p cap steps:
 *  CTA_QUEUE_CAP is the one way to bound it, so it is set only
 *  around the construction. */
std::unique_ptr<SessionManager>
cappedManager(std::uint64_t seed, Index cap)
{
    setenv("CTA_QUEUE_CAP", std::to_string(cap).c_str(), 1);
    auto manager = std::make_unique<SessionManager>(
        headParams(seed), ServeConfig{}, kDim, /*mem_budget_bytes=*/0);
    unsetenv("CTA_QUEUE_CAP");
    return manager;
}

double
gaugeValue(const char *name)
{
    for (const auto &[n, v] : cta::obs::gaugeSnapshot())
        if (n == name)
            return v;
    return 0;
}

TEST(SessionManagerDeathTest, SubmitAbortsWhenQueueFull)
{
    const Matrix steps = sampleTokens(3, 81);
    const auto manager = cappedManager(15, 2);
    const Index id = manager->createSession(sampleTokens(16, 80));
    manager->submit(id, steps.row(0));
    manager->submit(id, steps.row(1));
    EXPECT_EXIT(manager->submit(id, steps.row(2)),
                ::testing::ExitedWithCode(1), "QueueFull");
}

TEST(SessionManagerDeathTest, MalformedQueueCapacityEnvIsFatal)
{
    // Each EXPECT_EXIT clause forks, so setting the env in the parent
    // is visible to the child that constructs the manager.
    const auto make = [] {
        SessionManager manager(headParams(), ServeConfig{}, kDim, 0);
    };
    setenv("CTA_QUEUE_CAP", "not-a-number", 1);
    EXPECT_EXIT(make(), ::testing::ExitedWithCode(1), "CTA_QUEUE_CAP");
    setenv("CTA_QUEUE_CAP", "0", 1);
    EXPECT_EXIT(make(), ::testing::ExitedWithCode(1), "positive");
    setenv("CTA_QUEUE_CAP", "-3", 1);
    EXPECT_EXIT(make(), ::testing::ExitedWithCode(1), "positive");
    unsetenv("CTA_QUEUE_CAP");
}

/** Runs the same interleaved workload through a manager's flush on
 *  @p pool; returns the flush outputs. */
std::vector<StepResult>
runWorkload(ThreadPool &pool)
{
    const Matrix steps = sampleTokens(12, 23);
    SessionManager manager(headParams(9), ServeConfig{}, kDim, 0);
    const Index a = manager.createSession(sampleTokens(40, 21));
    const Index b = manager.createSession(sampleTokens(48, 22));
    // Interleave sessions: a b a b ... so the flush must demultiplex.
    for (Index i = 0; i < steps.rows(); ++i)
        manager.submit(i % 2 == 0 ? a : b, steps.row(i));
    EXPECT_EQ(manager.pendingCount(), steps.rows());
    auto results = manager.flush(pool);
    EXPECT_EQ(manager.pendingCount(), 0);
    return results;
}

TEST(SessionManagerFlushTest, FlushMatchesStandaloneSessions)
{
    const auto results = runWorkload(ThreadPool::global());
    ASSERT_EQ(static_cast<Index>(results.size()), 12);

    // Reference: the same two streams stepped directly, serially.
    const auto params = headParams(9);
    DecodeSession ref_a(params, ServeConfig{}, kDim);
    DecodeSession ref_b(params, ServeConfig{}, kDim);
    ref_a.prefill(sampleTokens(40, 21));
    ref_b.prefill(sampleTokens(48, 22));
    const Matrix steps = sampleTokens(12, 23);

    for (Index i = 0; i < steps.rows(); ++i) {
        const auto &result = results[static_cast<std::size_t>(i)];
        EXPECT_EQ(result.session, i % 2);
        DecodeSession &ref = i % 2 == 0 ? ref_a : ref_b;
        const Matrix want = ref.step(steps.row(i));
        EXPECT_TRUE(bitIdentical(result.output, want))
            << "submission " << i;
    }
}

TEST(SessionManagerFlushTest, DeterministicAcrossThreadCounts)
{
    ThreadPool serial(1);
    // Forced fan-out: without it a pool wider than the host's
    // hardware threads runs inline and both runs would be serial.
    ThreadPool wide(8, /*force_fanout=*/true);
    const auto one = runWorkload(serial);
    const auto eight = runWorkload(wide);
    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].session, eight[i].session);
        EXPECT_TRUE(bitIdentical(one[i].output, eight[i].output))
            << "submission " << i;
    }
}

TEST(SessionManagerFlushTest, MultipleStepsPerSessionStaySequential)
{
    const auto params = headParams(10);
    const Matrix ctx = sampleTokens(32, 31);
    const Matrix steps = sampleTokens(5, 32);

    SessionManager manager(params, ServeConfig{}, kDim, 0);
    const Index id = manager.createSession(ctx);
    for (Index i = 0; i < steps.rows(); ++i)
        manager.submit(id, steps.row(i));
    const auto results = manager.flush();
    ASSERT_EQ(static_cast<Index>(results.size()), steps.rows());

    DecodeSession ref(params, ServeConfig{}, kDim);
    ref.prefill(ctx);
    for (Index i = 0; i < steps.rows(); ++i) {
        const Matrix want = ref.step(steps.row(i));
        EXPECT_TRUE(bitIdentical(
            results[static_cast<std::size_t>(i)].output, want))
            << "queued step " << i;
    }
    // The batched session advanced exactly like the reference.
    EXPECT_EQ(manager.acquire(id).contextLength(), ref.contextLength());
}

TEST(SessionManagerFlushTest, FlushWithNothingPendingIsANoop)
{
    SessionManager manager(headParams(1), ServeConfig{}, kDim, 0);
    EXPECT_TRUE(manager.flush().empty());
    EXPECT_EQ(manager.pendingCount(), 0);
}

TEST(SessionManagerFlushTest, BoundedQueueShedsLoad)
{
    const Matrix steps = sampleTokens(6, 41);
    const auto manager = cappedManager(11, 4);
    EXPECT_EQ(manager->queueCapacity(), 4);
    const Index id = manager->createSession(sampleTokens(16, 40));

    for (Index i = 0; i < 4; ++i)
        EXPECT_EQ(manager->trySubmit(id, steps.row(i)),
                  SubmitResult::Accepted);
    // Queue at capacity: trySubmit rejects (submit would abort —
    // covered by SessionManagerDeathTest, which runs before any pool
    // work).
    EXPECT_EQ(manager->trySubmit(id, steps.row(4)),
              SubmitResult::QueueFull);
    EXPECT_EQ(manager->stats().rejections.total(), 1u);
    EXPECT_EQ(manager->pendingCount(), 4);

    // Flushing drains the queue and re-opens admission.
    EXPECT_EQ(static_cast<Index>(manager->flush().size()), 4);
    EXPECT_EQ(manager->trySubmit(id, steps.row(4)),
              SubmitResult::Accepted);
}

TEST(SessionManagerFlushTest, QueueCapacityEnvKnob)
{
    EXPECT_EQ(cappedManager(1, 2)->queueCapacity(), 2);
    // Unset env falls back to the compiled-in default.
    SessionManager fallback(headParams(1), ServeConfig{}, kDim, 0);
    EXPECT_EQ(fallback.queueCapacity(),
              SessionManager::kDefaultQueueCapacity);
}

TEST(SessionManagerFlushTest, RemoveSessionDropsPendingAndRejectsResubmit)
{
    const Matrix steps = sampleTokens(6, 51);
    SessionManager manager(headParams(12), ServeConfig{}, kDim, 0);
    const Index a = manager.createSession(sampleTokens(16, 50));
    const Index b = manager.createSession(sampleTokens(16, 50));

    // Interleave, then remove a: its queued steps vanish, b's stay.
    for (Index i = 0; i < 6; ++i)
        manager.submit(i % 2 == 0 ? a : b, steps.row(i));
    manager.removeSession(a);
    EXPECT_EQ(manager.pendingCount(), 3);
    EXPECT_EQ(manager.trySubmit(a, steps.row(0)),
              SubmitResult::SessionRemoved);

    const auto results = manager.flush();
    ASSERT_EQ(static_cast<Index>(results.size()), 3);
    for (const auto &r : results)
        EXPECT_EQ(r.session, b);
    // Ids are not reused.
    EXPECT_EQ(manager.sessionCount(), 2);
}

TEST(SessionManagerFlushTest, ExpiredDeadlinesCascadePerSession)
{
    const Matrix steps = sampleTokens(4, 71);
    SessionManager manager(headParams(14), ServeConfig{}, kDim, 0);
    const Index a = manager.createSession(sampleTokens(16, 70));
    const Index b = manager.createSession(sampleTokens(16, 70));

    // a's first step carries a deadline that is still live at
    // admission (already-lapsed ones are rejected there — see
    // DeadOnArrivalSubmitsRejectedAtAdmission) but lapses while
    // queued; its second has none — yet must still expire via the
    // per-session cascade so the token stream keeps no holes. b is
    // unconstrained.
    const auto soon = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(5);
    ASSERT_EQ(manager.trySubmit(a, steps.row(0), soon),
              SubmitResult::Accepted);
    ASSERT_EQ(manager.trySubmit(b, steps.row(1)), SubmitResult::Accepted);
    ASSERT_EQ(manager.trySubmit(a, steps.row(2)), SubmitResult::Accepted);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    const auto results = manager.flush();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].status, StepStatus::Expired);
    EXPECT_EQ(results[0].output.size(), 0);
    EXPECT_EQ(results[1].status, StepStatus::Ok);
    EXPECT_GT(results[1].output.size(), 0);
    EXPECT_EQ(results[2].status, StepStatus::Expired);
    EXPECT_EQ(manager.stats().expiredSteps, 2u);
    // a ingested nothing beyond its prefill; b advanced by one.
    EXPECT_EQ(manager.acquire(a).contextLength(), 16);
    EXPECT_EQ(manager.acquire(b).contextLength(), 17);

    // A generous future deadline does not expire.
    const auto future = std::chrono::steady_clock::now() +
                        std::chrono::hours(1);
    ASSERT_EQ(manager.trySubmit(a, steps.row(0), future),
              SubmitResult::Accepted);
    const auto ok = manager.flush();
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_EQ(ok[0].status, StepStatus::Ok);
}

TEST(SessionManagerFlushTest, DeadOnArrivalSubmitsRejectedAtAdmission)
{
    const Matrix steps = sampleTokens(2, 91);
    SessionManager manager(headParams(16), ServeConfig{}, kDim, 0);
    const Index id = manager.createSession(sampleTokens(16, 90));

    // A deadline already in the past must be rejected at admission —
    // it can only ever come back Expired, so queueing it would waste
    // a bounded-queue slot — with its own distinct result.
    const auto past = std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1);
    EXPECT_EQ(manager.trySubmit(id, steps.row(0), past),
              SubmitResult::DeadlineExpired);
    EXPECT_EQ(manager.pendingCount(), 0);
    const auto stats = manager.stats();
    EXPECT_EQ(stats.rejections.total(), 1u);
    EXPECT_EQ(stats.rejections.deadlineExpired, 1u);
    EXPECT_EQ(stats.expiredSteps, 0u); // never queued, not expired

    // Future and absent deadlines still admit normally.
    const auto future = std::chrono::steady_clock::now() +
                        std::chrono::hours(1);
    EXPECT_EQ(manager.trySubmit(id, steps.row(0), future),
              SubmitResult::Accepted);
    EXPECT_EQ(manager.trySubmit(id, steps.row(1)),
              SubmitResult::Accepted);
    EXPECT_EQ(manager.pendingCount(), 2);
}

TEST(SessionManagerFlushTest, PerReasonRejectionGaugesSumToCounter)
{
    const Matrix steps = sampleTokens(4, 93);

    cta::obs::setTraceEnabled(true);
    cta::obs::resetMetrics();

    const auto manager = cappedManager(17, 1);
    const Index a = manager->createSession(sampleTokens(16, 92));
    const Index b = manager->createSession(sampleTokens(16, 92));
    manager->removeSession(b);

    // One rejection of each flavor: full queue, removed target, and
    // a dead-on-arrival deadline.
    ASSERT_EQ(manager->trySubmit(a, steps.row(0)),
              SubmitResult::Accepted);
    EXPECT_EQ(manager->trySubmit(a, steps.row(1)),
              SubmitResult::QueueFull);
    EXPECT_EQ(manager->trySubmit(b, steps.row(2)),
              SubmitResult::SessionRemoved);
    const auto past = std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1);
    EXPECT_EQ(manager->trySubmit(a, steps.row(3), past),
              SubmitResult::DeadlineExpired);

    const auto reasons = manager->stats().rejections;
    EXPECT_EQ(reasons.queueFull, 1u);
    EXPECT_EQ(reasons.sessionRemoved, 1u);
    EXPECT_EQ(reasons.corrupted, 0u);
    EXPECT_EQ(reasons.deadlineExpired, 1u);
    // The exported per-reason gauges sum to the counted total.
    const double gaugeSum =
        gaugeValue("serve.rejected.queue_full") +
        gaugeValue("serve.rejected.session_removed") +
        gaugeValue("serve.rejected.corrupted") +
        gaugeValue("serve.rejected.deadline_expired");
    EXPECT_DOUBLE_EQ(gaugeSum, static_cast<double>(reasons.total()));

    cta::obs::setTraceEnabled(false);
}

TEST(SessionManagerFlushTest, QueueWaitRecordedForExpiredSteps)
{
    const Matrix steps = sampleTokens(1, 95);

    cta::obs::setTraceEnabled(true);
    cta::obs::resetMetrics();

    SessionManager manager(headParams(18), ServeConfig{}, kDim, 0);
    const Index id = manager.createSession(sampleTokens(16, 94));
    // Admit with a deadline that will lapse while queued, then wait
    // it out so the flush sees an expired step.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(5);
    ASSERT_EQ(manager.trySubmit(id, steps.row(0), deadline),
              SubmitResult::Accepted);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    const auto results = manager.flush();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, StepStatus::Expired);
    // The regression: expired steps used to skip the queue-wait
    // gauges entirely, hiding exactly the waits that caused the
    // expiry. The step waited ~30ms, so both gauges must show it.
    EXPECT_GT(gaugeValue("serve.queue_wait_total_s"), 0.0);
    EXPECT_GE(gaugeValue("serve.queue_wait_max_s"), 0.005);

    cta::obs::setTraceEnabled(false);
}

/** Hammers trySubmit from several threads while sessions are being
 *  removed underneath them: the check and the enqueue must not let
 *  a step for a removed session survive the purge. Run under TSan in
 *  CI. */
TEST(SessionManagerTortureTest, ConcurrentTrySubmitVsRemove)
{
    constexpr Index kSessions = 8;
    constexpr int kThreads = 3;
    constexpr int kSubmitsPerThread = 160;

    SessionManager manager(headParams(19), ServeConfig{}, kDim, 0);
    for (Index s = 0; s < kSessions; ++s)
        manager.createSession(sampleTokens(8, 100 + s));
    const Matrix tokens = sampleTokens(kSessions, 120);

    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> accepted{0};
    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int w = 0; w < kThreads; ++w)
        submitters.emplace_back([&, w] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < kSubmitsPerThread; ++i) {
                const Index sid = (w * 31 + i) % kSessions;
                const auto result =
                    manager.trySubmit(sid, tokens.row(sid));
                if (result == SubmitResult::Accepted)
                    accepted.fetch_add(1, std::memory_order_relaxed);
                else
                    // The only shed reason this workload can hit.
                    EXPECT_EQ(result, SubmitResult::SessionRemoved);
            }
        });

    // Remove every odd session while the submitters run. No flush
    // during the torture — flush may not race removeSession (that is
    // the documented front-end contract), but submits may.
    go.store(true, std::memory_order_release);
    for (Index s = 1; s < kSessions; s += 2)
        manager.removeSession(s);
    for (std::thread &t : submitters)
        t.join();

    // Everything accepted and not purged by a removal must flush to
    // an Ok result on a surviving even session.
    const auto results = manager.flush();
    for (const auto &r : results) {
        EXPECT_EQ(r.session % 2, 0) << "step for removed session "
                                    << r.session << " survived";
        EXPECT_EQ(r.status, StepStatus::Ok);
    }
    EXPECT_LE(static_cast<std::uint64_t>(results.size()),
              accepted.load());
}

} // namespace
