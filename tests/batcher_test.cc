/**
 * @file
 * Tests for the serving-layer Batcher: submission-order outputs,
 * per-session sequencing, determinism across thread counts, admission
 * control and rejection accounting. Every batcher runs over a
 * SessionManager built with an explicit zero (unlimited) byte budget,
 * so CTA_MEM_BUDGET cannot leak into these tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "nn/workload.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/session_manager.h"

namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;
using cta::core::Rng;
using cta::core::ThreadPool;
using cta::serve::Batcher;
using cta::serve::DecodeSession;
using cta::serve::ServeConfig;
using cta::serve::SessionManager;
using cta::serve::StepResult;

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

constexpr Index kDim = 32;
constexpr Index kHeadDim = 16;

cta::nn::AttentionHeadParams
headParams(std::uint64_t seed)
{
    Rng rng(seed);
    return cta::nn::AttentionHeadParams::randomInit(kDim, kHeadDim,
                                                    rng);
}

/** A manager without a byte budget over a head seeded by @p seed. */
std::unique_ptr<SessionManager>
makeManager(std::uint64_t seed)
{
    return std::make_unique<SessionManager>(
        headParams(seed), ServeConfig{}, kDim, /*mem_budget_bytes=*/0);
}

/** Runs the same interleaved workload through a Batcher on @p pool;
 *  returns the flush outputs. */
std::vector<StepResult>
runWorkload(ThreadPool *pool)
{
    const Matrix steps = sampleTokens(12, kDim, 23);

    const auto manager = makeManager(9);
    Batcher batcher(*manager, pool);
    const Index a = manager->createSession(sampleTokens(40, kDim, 21));
    const Index b = manager->createSession(sampleTokens(48, kDim, 22));
    // Interleave sessions: a b a b ... so the flush must demultiplex.
    for (Index i = 0; i < steps.rows(); ++i)
        batcher.submit(i % 2 == 0 ? a : b, steps.row(i));
    EXPECT_EQ(batcher.pendingCount(), steps.rows());
    auto results = batcher.flush();
    EXPECT_EQ(batcher.pendingCount(), 0);
    return results;
}

TEST(BatcherTest, FlushMatchesStandaloneSessions)
{
    const auto results = runWorkload(nullptr);
    ASSERT_EQ(static_cast<Index>(results.size()), 12);

    // Reference: the same two streams stepped directly, serially.
    const auto params = headParams(9);
    DecodeSession ref_a(params, ServeConfig{}, kDim);
    DecodeSession ref_b(params, ServeConfig{}, kDim);
    ref_a.prefill(sampleTokens(40, kDim, 21));
    ref_b.prefill(sampleTokens(48, kDim, 22));
    const Matrix steps = sampleTokens(12, kDim, 23);

    for (Index i = 0; i < steps.rows(); ++i) {
        const auto &result = results[static_cast<std::size_t>(i)];
        EXPECT_EQ(result.session, i % 2);
        DecodeSession &ref = i % 2 == 0 ? ref_a : ref_b;
        const Matrix want = ref.step(steps.row(i));
        EXPECT_TRUE(bitIdentical(result.output, want))
            << "submission " << i;
    }
}

TEST(BatcherTest, DeterministicAcrossThreadCounts)
{
    ThreadPool serial(1);
    // Forced fan-out: without it a pool wider than the host's
    // hardware threads runs inline and both runs would be serial.
    ThreadPool wide(8, /*force_fanout=*/true);
    const auto one = runWorkload(&serial);
    const auto eight = runWorkload(&wide);
    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].session, eight[i].session);
        EXPECT_TRUE(bitIdentical(one[i].output, eight[i].output))
            << "submission " << i;
    }
}

TEST(BatcherTest, MultipleStepsPerSessionStaySequential)
{
    const auto params = headParams(10);
    const Matrix ctx = sampleTokens(32, kDim, 31);
    const Matrix steps = sampleTokens(5, kDim, 32);

    SessionManager manager(params, ServeConfig{}, kDim,
                           /*mem_budget_bytes=*/0);
    Batcher batcher(manager);
    const Index id = manager.createSession(ctx);
    for (Index i = 0; i < steps.rows(); ++i)
        batcher.submit(id, steps.row(i));
    const auto results = batcher.flush();
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
    EXPECT_EQ(batcher.session(id).contextLength(),
              ref.contextLength());
}

TEST(BatcherTest, FlushWithNothingPendingIsANoop)
{
    const auto manager = makeManager(1);
    Batcher batcher(*manager);
    EXPECT_TRUE(batcher.flush().empty());
    EXPECT_EQ(batcher.pendingCount(), 0);
}

TEST(BatcherDeathTest, RejectsUnknownSessionIds)
{
    const auto manager = makeManager(1);
    Batcher batcher(*manager);
    const std::vector<Real> token(static_cast<std::size_t>(kDim), 0.0f);
    EXPECT_EXIT(batcher.submit(0, token),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(batcher.session(3), ::testing::ExitedWithCode(1),
                "out of range");
    // trySubmit treats bad ids as caller bugs too — only full queues
    // and removed sessions are recoverable rejections.
    EXPECT_EXIT(batcher.trySubmit(7, token),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(BatcherTest, BoundedQueueShedsLoad)
{
    const Matrix steps = sampleTokens(6, kDim, 41);

    const auto manager = makeManager(11);
    Batcher batcher(*manager, nullptr, /*queue_cap=*/4);
    EXPECT_EQ(batcher.queueCapacity(), 4);
    const Index id = manager->createSession(sampleTokens(16, kDim, 40));

    for (Index i = 0; i < 4; ++i)
        EXPECT_EQ(batcher.trySubmit(id, steps.row(i)),
                  cta::serve::SubmitResult::Accepted);
    // Queue at capacity: trySubmit rejects (submit would abort —
    // covered in BatcherDeathTest, which runs before any pool work).
    EXPECT_EQ(batcher.trySubmit(id, steps.row(4)),
              cta::serve::SubmitResult::QueueFull);
    EXPECT_EQ(batcher.rejectedSubmits(), 1u);
    EXPECT_EQ(batcher.pendingCount(), 4);

    // Flushing drains the queue and re-opens admission.
    EXPECT_EQ(static_cast<Index>(batcher.flush().size()), 4);
    EXPECT_EQ(batcher.trySubmit(id, steps.row(4)),
              cta::serve::SubmitResult::Accepted);
}

TEST(BatcherTest, QueueCapacityEnvKnob)
{
    const auto manager = makeManager(1);
    setenv("CTA_QUEUE_CAP", "2", 1);
    Batcher batcher(*manager);
    unsetenv("CTA_QUEUE_CAP");
    EXPECT_EQ(batcher.queueCapacity(), 2);

    // Unset env falls back to the compiled-in default.
    Batcher fallback(*manager);
    EXPECT_EQ(fallback.queueCapacity(),
              Batcher::kDefaultQueueCapacity);
}

TEST(BatcherDeathTest, MalformedQueueCapacityEnvIsFatal)
{
    // Each EXPECT_EXIT clause forks, so setting the env in the parent
    // is visible to the child that constructs the Batcher.
    const auto manager = makeManager(1);
    setenv("CTA_QUEUE_CAP", "not-a-number", 1);
    EXPECT_EXIT({ Batcher batcher(*manager); },
                ::testing::ExitedWithCode(1), "CTA_QUEUE_CAP");
    setenv("CTA_QUEUE_CAP", "0", 1);
    EXPECT_EXIT({ Batcher batcher(*manager); },
                ::testing::ExitedWithCode(1), "positive");
    setenv("CTA_QUEUE_CAP", "-3", 1);
    EXPECT_EXIT({ Batcher batcher(*manager); },
                ::testing::ExitedWithCode(1), "positive");
    unsetenv("CTA_QUEUE_CAP");
}

TEST(BatcherTest, RemoveSessionDropsPendingAndRejectsResubmit)
{
    const Matrix steps = sampleTokens(6, kDim, 51);

    const auto manager = makeManager(12);
    Batcher batcher(*manager);
    const Index a = manager->createSession(sampleTokens(16, kDim, 50));
    const Index b = manager->createSession(sampleTokens(16, kDim, 50));

    // Interleave, then remove a: its queued steps vanish, b's stay.
    for (Index i = 0; i < 6; ++i)
        batcher.submit(i % 2 == 0 ? a : b, steps.row(i));
    batcher.removeSession(a);
    EXPECT_EQ(batcher.pendingCount(), 3);
    EXPECT_EQ(batcher.trySubmit(a, steps.row(0)),
              cta::serve::SubmitResult::SessionRemoved);

    const auto results = batcher.flush();
    ASSERT_EQ(static_cast<Index>(results.size()), 3);
    for (const auto &r : results)
        EXPECT_EQ(r.session, b);
    // Ids are not reused; the removed id stays fatal to access.
    EXPECT_EQ(batcher.sessionCount(), 2);
}

TEST(BatcherDeathTest, SubmitAbortsWhenQueueFull)
{
    const Matrix steps = sampleTokens(3, kDim, 81);
    const auto manager = makeManager(15);
    Batcher batcher(*manager, nullptr, /*queue_cap=*/2);
    const Index id = manager->createSession(sampleTokens(16, kDim, 80));
    batcher.submit(id, steps.row(0));
    batcher.submit(id, steps.row(1));
    EXPECT_EXIT(batcher.submit(id, steps.row(2)),
                ::testing::ExitedWithCode(1), "QueueFull");
}

TEST(BatcherDeathTest, AccessAfterRemoveIsFatal)
{
    const auto manager = makeManager(13);
    Batcher batcher(*manager);
    const Index id = manager->createSession(sampleTokens(16, kDim, 60));
    batcher.removeSession(id);
    EXPECT_EXIT(batcher.session(id), ::testing::ExitedWithCode(1),
                "removed");
    EXPECT_EXIT(batcher.removeSession(id),
                ::testing::ExitedWithCode(1), "removed");
    const std::vector<Real> token(static_cast<std::size_t>(kDim),
                                  0.0f);
    EXPECT_EXIT(batcher.submit(id, token),
                ::testing::ExitedWithCode(1), "SessionRemoved");
}

TEST(BatcherTest, ExpiredDeadlinesCascadePerSession)
{
    const Matrix steps = sampleTokens(4, kDim, 71);

    const auto manager = makeManager(14);
    Batcher batcher(*manager);
    const Index a = manager->createSession(sampleTokens(16, kDim, 70));
    const Index b = manager->createSession(sampleTokens(16, kDim, 70));

    // a's first step carries a deadline that is still live at
    // admission (already-lapsed ones are rejected there — see
    // DeadOnArrivalSubmitsRejectedAtAdmission) but lapses while
    // queued; its second has none — yet must still expire via the
    // per-session cascade so the token stream keeps no holes. b is
    // unconstrained.
    const auto soon = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(5);
    ASSERT_EQ(batcher.trySubmit(a, steps.row(0), soon),
              cta::serve::SubmitResult::Accepted);
    ASSERT_EQ(batcher.trySubmit(b, steps.row(1)),
              cta::serve::SubmitResult::Accepted);
    ASSERT_EQ(batcher.trySubmit(a, steps.row(2)),
              cta::serve::SubmitResult::Accepted);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    const auto results = batcher.flush();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].status, cta::serve::StepStatus::Expired);
    EXPECT_EQ(results[0].output.size(), 0);
    EXPECT_EQ(results[1].status, cta::serve::StepStatus::Ok);
    EXPECT_GT(results[1].output.size(), 0);
    EXPECT_EQ(results[2].status, cta::serve::StepStatus::Expired);
    EXPECT_EQ(batcher.expiredSteps(), 2u);
    // a ingested nothing beyond its prefill; b advanced by one.
    EXPECT_EQ(batcher.session(a).contextLength(), 16);
    EXPECT_EQ(batcher.session(b).contextLength(), 17);

    // A generous future deadline does not expire.
    const auto future = std::chrono::steady_clock::now() +
                        std::chrono::hours(1);
    ASSERT_EQ(batcher.trySubmit(a, steps.row(0), future),
              cta::serve::SubmitResult::Accepted);
    const auto ok = batcher.flush();
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_EQ(ok[0].status, cta::serve::StepStatus::Ok);
}

TEST(BatcherTest, DeadOnArrivalSubmitsRejectedAtAdmission)
{
    const Matrix steps = sampleTokens(2, kDim, 91);

    const auto manager = makeManager(16);
    Batcher batcher(*manager);
    const Index id = manager->createSession(sampleTokens(16, kDim, 90));

    // A deadline already in the past must be rejected at admission —
    // it can only ever come back Expired, so queueing it would waste
    // a bounded-queue slot — with its own distinct result.
    const auto past = std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1);
    EXPECT_EQ(batcher.trySubmit(id, steps.row(0), past),
              cta::serve::SubmitResult::DeadlineExpired);
    EXPECT_EQ(batcher.pendingCount(), 0);
    EXPECT_EQ(batcher.rejectedSubmits(), 1u);
    EXPECT_EQ(batcher.rejectedSubmitsByReason().deadlineExpired, 1u);
    EXPECT_EQ(batcher.expiredSteps(), 0u); // never queued, not expired

    // Future and absent deadlines still admit normally.
    const auto future = std::chrono::steady_clock::now() +
                        std::chrono::hours(1);
    EXPECT_EQ(batcher.trySubmit(id, steps.row(0), future),
              cta::serve::SubmitResult::Accepted);
    EXPECT_EQ(batcher.trySubmit(id, steps.row(1)),
              cta::serve::SubmitResult::Accepted);
    EXPECT_EQ(batcher.pendingCount(), 2);
}

double
gaugeValue(const char *name)
{
    for (const auto &[n, v] : cta::obs::gaugeSnapshot())
        if (n == name)
            return v;
    return 0;
}

TEST(BatcherTest, PerReasonRejectionGaugesSumToCounter)
{
    const Matrix steps = sampleTokens(4, kDim, 93);

    cta::obs::setTraceEnabled(true);
    cta::obs::resetMetrics();

    const auto manager = makeManager(17);
    Batcher batcher(*manager, nullptr, /*queue_cap=*/1);
    const Index a = manager->createSession(sampleTokens(16, kDim, 92));
    const Index b = manager->createSession(sampleTokens(16, kDim, 92));
    batcher.removeSession(b);

    // One rejection of each flavor: full queue, removed target, and
    // a dead-on-arrival deadline.
    ASSERT_EQ(batcher.trySubmit(a, steps.row(0)),
              cta::serve::SubmitResult::Accepted);
    EXPECT_EQ(batcher.trySubmit(a, steps.row(1)),
              cta::serve::SubmitResult::QueueFull);
    EXPECT_EQ(batcher.trySubmit(b, steps.row(2)),
              cta::serve::SubmitResult::SessionRemoved);
    const auto past = std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1);
    EXPECT_EQ(batcher.trySubmit(a, steps.row(3), past),
              cta::serve::SubmitResult::DeadlineExpired);

    const auto reasons = batcher.rejectedSubmitsByReason();
    EXPECT_EQ(reasons.queueFull, 1u);
    EXPECT_EQ(reasons.sessionRemoved, 1u);
    EXPECT_EQ(reasons.corrupted, 0u);
    EXPECT_EQ(reasons.deadlineExpired, 1u);
    // The invariant the old accounting broke: the headline counter is
    // exactly the sum of the per-reason breakdown...
    EXPECT_EQ(batcher.rejectedSubmits(), reasons.total());
    // ...and the exported per-reason gauges agree with it too.
    const double gaugeSum =
        gaugeValue("serve.rejected.queue_full") +
        gaugeValue("serve.rejected.session_removed") +
        gaugeValue("serve.rejected.corrupted") +
        gaugeValue("serve.rejected.deadline_expired");
    EXPECT_DOUBLE_EQ(gaugeSum,
                     static_cast<double>(batcher.rejectedSubmits()));

    cta::obs::setTraceEnabled(false);
}

TEST(BatcherTest, QueueWaitRecordedForExpiredSteps)
{
    const Matrix steps = sampleTokens(1, kDim, 95);

    cta::obs::setTraceEnabled(true);
    cta::obs::resetMetrics();

    const auto manager = makeManager(18);
    Batcher batcher(*manager);
    const Index id = manager->createSession(sampleTokens(16, kDim, 94));
    // Admit with a deadline that will lapse while queued, then wait
    // it out so the flush sees an expired step.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(5);
    ASSERT_EQ(batcher.trySubmit(id, steps.row(0), deadline),
              cta::serve::SubmitResult::Accepted);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    const auto results = batcher.flush();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, cta::serve::StepStatus::Expired);
    // The regression: expired steps used to skip the queue-wait
    // gauges entirely, hiding exactly the waits that caused the
    // expiry. The step waited ~30ms, so both gauges must show it.
    EXPECT_GT(gaugeValue("serve.queue_wait_total_s"), 0.0);
    EXPECT_GE(gaugeValue("serve.queue_wait_max_s"), 0.005);

    cta::obs::setTraceEnabled(false);
}

/** Hammers trySubmit from several threads while sessions are being
 *  removed underneath them — the race the old Batcher had (lifecycle
 *  state read without its mutex). Run under TSan in CI. */
TEST(BatcherTortureTest, ConcurrentTrySubmitVsRemove)
{
    constexpr Index kSessions = 8;
    constexpr int kThreads = 3;
    constexpr int kSubmitsPerThread = 160;

    const auto manager = makeManager(19);
    Batcher batcher(*manager);
    for (Index s = 0; s < kSessions; ++s)
        manager->createSession(sampleTokens(8, kDim, 100 + s));
    const Matrix tokens = sampleTokens(kSessions, kDim, 120);

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
                const auto result = batcher.trySubmit(
                    sid, tokens.row(sid));
                if (result == cta::serve::SubmitResult::Accepted)
                    accepted.fetch_add(1,
                                       std::memory_order_relaxed);
                else
                    // The only shed reason this workload can hit.
                    EXPECT_EQ(
                        result,
                        cta::serve::SubmitResult::SessionRemoved);
            }
        });

    // Remove every odd session while the submitters run. No flush
    // during the torture — flush may not race removeSession (that is
    // the documented front-end contract), but submits may.
    go.store(true, std::memory_order_release);
    for (Index s = 1; s < kSessions; s += 2)
        batcher.removeSession(s);
    for (std::thread &t : submitters)
        t.join();

    // Everything accepted and not purged by a removal must flush to
    // an Ok result on a surviving even session.
    const auto results = batcher.flush();
    for (const auto &r : results) {
        EXPECT_EQ(r.session % 2, 0) << "step for removed session "
                                    << r.session << " survived";
        EXPECT_EQ(r.status, cta::serve::StepStatus::Ok);
    }
    EXPECT_LE(static_cast<std::uint64_t>(results.size()),
              accepted.load());
    // Rejection accounting stayed coherent under the contention.
    EXPECT_EQ(batcher.rejectedSubmits(),
              batcher.rejectedSubmitsByReason().total());
}

} // namespace
