/**
 * @file
 * Unit tests for the thread pool and deterministic parallel-for
 * (core/parallel.h): chunking policy, empty/small ranges, ranges
 * smaller than the thread count, exception propagation,
 * re-entrant (nested) invocation, and fatal() exiting with status 1
 * once the global pool has run, from the caller or from a pool task.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/logging.h"
#include "core/parallel.h"

namespace {

using cta::core::chunkSpans;
using cta::core::configuredThreadCount;
using cta::core::Index;
using cta::core::parallelFor;
using cta::core::parseEnvInt;
using cta::core::resolveThreadCount;
using cta::core::ThreadPool;

/** RAII guard setting an environment variable for one test. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        setenv(name, value, /*overwrite=*/1);
    }

    ~ScopedEnv()
    {
        if (old_)
            setenv(name_, old_->c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

TEST(ChunkSpansTest, EmptyRangeYieldsNoSpans)
{
    EXPECT_TRUE(chunkSpans(0, 0).empty());
    EXPECT_TRUE(chunkSpans(5, 5).empty());
    EXPECT_TRUE(chunkSpans(7, 3).empty());
}

TEST(ChunkSpansTest, SpansAreDisjointAndCoverTheRange)
{
    for (const Index n : {1, 2, 7, 63, 64, 65, 100, 512, 1000}) {
        const auto spans = chunkSpans(10, 10 + n);
        ASSERT_FALSE(spans.empty());
        EXPECT_LE(static_cast<Index>(spans.size()),
                  cta::core::kMaxChunks);
        Index expect_begin = 10;
        for (const auto &[begin, end] : spans) {
            EXPECT_EQ(begin, expect_begin);
            EXPECT_LT(begin, end);
            expect_begin = end;
        }
        EXPECT_EQ(expect_begin, 10 + n);
    }
}

TEST(ChunkSpansTest, GrainIsRespected)
{
    const auto spans = chunkSpans(0, 100, /*grain=*/32);
    for (std::size_t c = 0; c + 1 < spans.size(); ++c)
        EXPECT_GE(spans[c].second - spans[c].first, 32);
}

TEST(ChunkSpansTest, PartitionIsIndependentOfThreadCount)
{
    // The partition is a pure function of (range, grain); nothing
    // about pools or CTA_THREADS can appear here. Two calls agree.
    EXPECT_EQ(chunkSpans(0, 777, 4), chunkSpans(0, 777, 4));
}

TEST(ParallelForTest, EmptyRangeBodyNeverRuns)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    parallelFor(pool, 0, 0, [&](Index, Index) { ++calls; });
    parallelFor(pool, 9, 3, [&](Index, Index) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, RangeSmallerThanThreadCount)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> visits(3);
    parallelFor(pool, 0, 3, [&](Index begin, Index end) {
        for (Index i = begin; i < end; ++i)
            ++visits[static_cast<std::size_t>(i)];
    });
    for (const auto &count : visits)
        EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, EveryIndexVisitedExactlyOnce)
{
    ThreadPool pool(4);
    constexpr Index kN = 1000;
    std::vector<std::atomic<int>> visits(kN);
    parallelFor(pool, 0, kN, [&](Index begin, Index end) {
        for (Index i = begin; i < end; ++i)
            ++visits[static_cast<std::size_t>(i)];
    });
    for (const auto &count : visits)
        EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, ExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        parallelFor(pool, 0, 100,
                    [&](Index begin, Index) {
                        if (begin == 0)
                            throw std::runtime_error("chunk failed");
                    }),
        std::runtime_error);
}

TEST(ParallelForTest, LowestFailingChunkWins)
{
    // Several chunks throw; the rethrown exception is the one from
    // the lowest-numbered failing task (deterministic choice).
    ThreadPool pool(4);
    try {
        pool.run(16, [&](Index task) {
            if (task >= 2)
                throw std::runtime_error("task " +
                                         std::to_string(task));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "task 2");
    }
}

TEST(ParallelForTest, PoolSurvivesAnExceptionBatch)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.run(8,
                          [&](Index) {
                              throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    // The pool keeps working after a failed batch.
    std::atomic<Index> sum{0};
    pool.run(8, [&](Index task) { sum += task; });
    EXPECT_EQ(sum.load(), 28);
}

TEST(ParallelForTest, NestedInvocationRunsInline)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> visits(64);
    parallelFor(pool, 0, 8, [&](Index obegin, Index oend) {
        for (Index o = obegin; o < oend; ++o) {
            // Nested parallelFor on the SAME pool must not deadlock;
            // it degrades to inline execution.
            parallelFor(pool, 0, 8, [&](Index ibegin, Index iend) {
                for (Index i = ibegin; i < iend; ++i)
                    ++visits[static_cast<std::size_t>(o * 8 + i)];
            });
        }
    });
    for (const auto &count : visits)
        EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, SingleThreadPoolWorks)
{
    ThreadPool pool(1);
    Index sum = 0; // no atomics needed: single worker
    parallelFor(pool, 0, 100, [&](Index begin, Index end) {
        for (Index i = begin; i < end; ++i)
            sum += i;
    });
    EXPECT_EQ(sum, 4950);
}

TEST(ConfiguredThreadCountTest, IsPositive)
{
    EXPECT_GE(cta::core::configuredThreadCount(), 1);
}

TEST(ParseEnvIntTest, ParsesPlainIntegers)
{
    EXPECT_EQ(parseEnvInt("8", "test"), 8);
    EXPECT_EQ(parseEnvInt("-3", "test"), -3);
    EXPECT_EQ(parseEnvInt("0", "test"), 0);
}

TEST(ParseEnvIntDeathTest, RejectsMalformedValues)
{
    // Regression: strtol-without-endptr accepted "8x" as 8 and
    // silently parsed "abc" as 0.
    EXPECT_EXIT(parseEnvInt("8x", "CTA_THREADS"),
                ::testing::ExitedWithCode(1), "malformed CTA_THREADS");
    EXPECT_EXIT(parseEnvInt("abc", "CTA_THREADS"),
                ::testing::ExitedWithCode(1), "malformed CTA_THREADS");
    EXPECT_EXIT(parseEnvInt("", "CTA_THREADS"),
                ::testing::ExitedWithCode(1), "empty CTA_THREADS");
    EXPECT_EXIT(parseEnvInt(" 8", "CTA_THREADS"),
                ::testing::ExitedWithCode(1), "empty CTA_THREADS");
    EXPECT_EXIT(parseEnvInt("99999999999999999999", "CTA_THREADS"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(FatalDeathTest, ExitsWithOneAfterThePoolHasRun)
{
    // Regression: fatal() ran the static destructors (std::exit),
    // and the global pool's joins threads a forked death-test child
    // does not have: the child died by SIGSEGV.
    std::atomic<Index> visited{0};
    parallelFor(0, 64, [&](Index begin, Index end) {
        visited += end - begin;
    });
    ASSERT_EQ(visited.load(), 64);
    EXPECT_EXIT(CTA_REQUIRE(visited.load() < 0, "after the pool ran"),
                ::testing::ExitedWithCode(1), "requirement failed");
}

TEST(FatalDeathTest, ExitsWithOneFromInsideAPoolTask)
{
    // Regression: fatal() from a worker ran the global pool's
    // destructor on that worker, which then joined itself and aborted
    // ("Resource deadlock avoided"), so repeat it. The first task a
    // worker claims fails; when the pool runs inline (one hardware
    // thread) the caller fails after the batch instead.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto failInAWorker = [] {
        const std::thread::id caller = std::this_thread::get_id();
        std::atomic<bool> failed{false};
        parallelFor(0, 64, [&](Index, Index) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            if (std::this_thread::get_id() != caller &&
                !failed.exchange(true))
                CTA_FATAL("fatal in a pool task");
        });
        CTA_FATAL("fatal in a pool task (the pool ran inline)");
    };
    for (int run = 0; run < 20; ++run)
        EXPECT_EXIT(failInAWorker(), ::testing::ExitedWithCode(1),
                    "fatal in a pool task")
            << "run " << run;
}

TEST(ConfiguredThreadCountTest, ReadsValidEnv)
{
    ScopedEnv env("CTA_THREADS", "5");
    EXPECT_EQ(configuredThreadCount(), 5);
}

TEST(ConfiguredThreadCountTest, ClampsOutOfRangeValues)
{
    {
        ScopedEnv env("CTA_THREADS", "1000");
        EXPECT_EQ(configuredThreadCount(), 64);
    }
    {
        ScopedEnv env("CTA_THREADS", "0");
        EXPECT_EQ(configuredThreadCount(), 1);
    }
    {
        ScopedEnv env("CTA_THREADS", "-4");
        EXPECT_EQ(configuredThreadCount(), 1);
    }
}

TEST(ConfiguredThreadCountDeathTest, RejectsMalformedEnv)
{
    // Regression: CTA_THREADS=abc used to degrade silently to one
    // thread instead of failing loudly.
    ScopedEnv env("CTA_THREADS", "abc");
    EXPECT_EXIT(configuredThreadCount(),
                ::testing::ExitedWithCode(1), "malformed CTA_THREADS");
}

TEST(ResolveThreadCountTest, UnknownHardwareConcurrencyResolvesToOne)
{
    // Regression: hardware_concurrency() may legally return 0
    // ("unknown"); the pool must size to 1, not 0 (which formerly
    // spawned std::thread::hardware_concurrency() - 1 == UINT_MAX
    // workers' worth of nonsense downstream).
    EXPECT_EQ(resolveThreadCount(std::nullopt, 0), 1);
    EXPECT_EQ(resolveThreadCount(std::nullopt, 1), 1);
}

TEST(ResolveThreadCountTest, DefaultsFollowHardwareClampedTo16)
{
    EXPECT_EQ(resolveThreadCount(std::nullopt, 4), 4);
    EXPECT_EQ(resolveThreadCount(std::nullopt, 16), 16);
    EXPECT_EQ(resolveThreadCount(std::nullopt, 64), 16);
}

TEST(ResolveThreadCountTest, EnvWinsEvenOnUnknownHardware)
{
    EXPECT_EQ(resolveThreadCount(8, 0), 8);
    EXPECT_EQ(resolveThreadCount(2, 64), 2);
}

TEST(ResolveThreadCountTest, EnvClampsToValidRange)
{
    EXPECT_EQ(resolveThreadCount(1000, 4), 64);
    EXPECT_EQ(resolveThreadCount(0, 4), 1);
    EXPECT_EQ(resolveThreadCount(-3, 4), 1);
}

TEST(ResolveThreadCountTest, ReportsOversubscription)
{
    // The out-param reports the condition on every call, independent
    // of the once-per-process warning latch (which an earlier test in
    // this binary may already have tripped).
    bool warned = false;
    EXPECT_EQ(resolveThreadCount(8, 1, &warned), 8);
    EXPECT_TRUE(warned);

    warned = true;
    EXPECT_EQ(resolveThreadCount(4, 4, &warned), 4);
    EXPECT_FALSE(warned);

    warned = false;
    EXPECT_EQ(resolveThreadCount(1000, 4, &warned), 64);
    EXPECT_TRUE(warned);
}

TEST(ThreadPoolTest, OversubscribedPoolRunsInlineByDefault)
{
    // A pool bigger than the machine must fall back to inline
    // draining (fan-out can only add context switches). The calling
    // thread then claims every task itself.
    const unsigned hw = std::thread::hardware_concurrency();
    const int threads = static_cast<int>(hw == 0 ? 1 : hw) + 4;
    ThreadPool pool(threads);
    std::set<std::thread::id> ids;
    std::mutex ids_mutex;
    pool.run(32, [&](Index) {
        const std::lock_guard<std::mutex> lock(ids_mutex);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ThreadPoolTest, ForceFanoutExercisesCrossThreadClaiming)
{
    // force_fanout disables the oversubscription shortcut so the
    // cross-thread ticket-claiming path runs even on a single-core
    // host. Workers race the caller for tickets; retry with slow
    // tasks until at least one task lands off the calling thread.
    ThreadPool pool(4, /*force_fanout=*/true);
    constexpr Index kTasks = 16;
    bool saw_other_thread = false;
    for (int attempt = 0; attempt < 50 && !saw_other_thread;
         ++attempt) {
        std::vector<std::atomic<int>> visits(kTasks);
        std::set<std::thread::id> ids;
        std::mutex ids_mutex;
        pool.run(kTasks, [&](Index task) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
            ++visits[static_cast<std::size_t>(task)];
            const std::lock_guard<std::mutex> lock(ids_mutex);
            ids.insert(std::this_thread::get_id());
        });
        for (const auto &count : visits)
            ASSERT_EQ(count.load(), 1); // exactly once, every batch
        saw_other_thread =
            ids.size() > 1 ||
            ids.find(std::this_thread::get_id()) == ids.end();
    }
    EXPECT_TRUE(saw_other_thread)
        << "no worker ever claimed a task in 50 batches";
}

} // namespace
