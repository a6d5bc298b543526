/**
 * @file
 * Groups pending decode steps of many sessions into one batched
 * flush over the thread pool.
 *
 * Sessions are stateful and strictly sequential, so the batching
 * model is: within a session, queued steps run in submission order on
 * one worker; across sessions, work fans out over the pool
 * (ThreadPool::run, one task per session with pending work). Outputs
 * come back in global submission order, and because sessions are
 * independent and each is processed serially, results are
 * deterministic for any thread count — the same contract the compute
 * backends follow. (A session's inner GEMMs may themselves hit the
 * pool; re-entrant run() degrades to inline execution with identical
 * results.)
 *
 * Admission control and backpressure: the submit queue is bounded
 * (default 64Ki entries, CTA_QUEUE_CAP overrides) — trySubmit()
 * reports QueueFull instead of growing without limit, and submit()
 * treats every rejection as fatal. Each request may carry a deadline;
 * a step whose deadline has already passed *at submission* is
 * rejected right there (DeadlineExpired) instead of occupying a
 * bounded-queue slot it can never use, and steps whose deadline
 * passes while queued are skipped at flush and returned as Expired
 * (and, to keep the session's token stream a prefix, every later
 * queued step of that session in the same flush expires with it).
 * Every rejection reason is counted separately
 * (rejectedSubmitsByReason()) and exported as a per-reason
 * "serve.rejected.*" gauge; the reasons always sum to
 * rejectedSubmits().
 *
 * Thread-safety and locking order: the submit path (submit /
 * trySubmit) is thread-safe against itself and against session
 * lifecycle mutation (forkSession / removeSession). Every
 * SessionManager call lives under sessionsMutex_; the pending queue
 * and the rejection/expiry counters live under mutex_. The locking
 * order is sessionsMutex_ BEFORE mutex_, never the reverse:
 * trySubmit validates the session under sessionsMutex_ and enqueues
 * under the nested mutex_, and removeSession mutates lifecycle state
 * under sessionsMutex_ before purging the queue under the nested
 * mutex_, so a submit can never slip a step for a freshly removed
 * session past the purge. flush() itself must be driven from one
 * thread at a time and must not run concurrently with removeSession
 * (a removed session's state would be destroyed under a running
 * step); the serving front-end serializes them.
 *
 * Sessions are owned by a SessionManager (a zero byte budget means
 * unlimited). flush() restores evicted sessions before fanning out
 * and enforces the byte budget after — both serial within the
 * batcher, outside its per-session fan-out, so eviction decisions
 * stay deterministic for any thread count. The beginFlush()/
 * resolveFlush()/runPlanTask()/finishFlush() split exposes those same
 * phases to the sharded serving front-end (serve/frontend.h), which
 * runs every shard's resolve and finish as one pool task per shard
 * (a shard's manager is never shared, so its serial order — and with
 * it every tick and eviction — is unchanged) and merges many shards'
 * session tasks into one pool batch so idle workers steal flush work
 * across shards.
 */

#pragma once

#include <chrono>
#include <mutex>
#include <span>
#include <vector>

#include "serve/decode_session.h"

namespace cta::core {
class ThreadPool;
} // namespace cta::core

namespace cta::serve {

class SessionManager;

/** Admission verdict of one trySubmit() call. */
enum class SubmitResult
{
    Accepted,        ///< queued for the next flush
    QueueFull,       ///< bounded queue at capacity — shed load
    SessionRemoved,  ///< target session was removed
    Corrupted,       ///< target session is quarantined (corrupt
                     ///< snapshot); its state is unrecoverable
    DeadlineExpired, ///< the step's deadline had already passed at
                     ///< submission — dead on arrival, never queued
    QuotaExceeded,   ///< the tenant's admission quota is exhausted
                     ///< (returned by the serving front-end's
                     ///< per-tenant admission, never by Batcher)
    ShardFenced,     ///< the target session sits on a Failed shard
                     ///< that has no healthy destination to re-home
                     ///< to yet — temporary, retry after recovery
                     ///< (front-end only, never returned by Batcher)
};

/** Human-readable name of a SubmitResult. */
const char *toString(SubmitResult result);

/**
 * Per-reason breakdown of trySubmit() rejections. The reasons are
 * disjoint, so total() always equals Batcher::rejectedSubmits().
 */
struct SubmitRejections
{
    std::uint64_t queueFull = 0;
    std::uint64_t sessionRemoved = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t deadlineExpired = 0;

    std::uint64_t total() const
    {
        return queueFull + sessionRemoved + corrupted +
               deadlineExpired;
    }
};

/** Outcome of one queued step. */
enum class StepStatus
{
    Ok,        ///< step ran; output is valid
    Expired,   ///< deadline passed before the step started; no output
    Corrupted, ///< session was quarantined (corrupt snapshot) before
               ///< the step could run; no output
    Bounced,   ///< the step's shard wedged before the step ran; the
               ///< session's stream is untouched, so resubmitting the
               ///< same token is always safe
};

/** One completed decode step, in submission order. */
struct StepResult
{
    core::Index session = 0;          ///< target session id
    StepStatus status = StepStatus::Ok;
    core::Matrix output;              ///< 1 x d output (empty if Expired)
};

/** Batches queued per-session steps over a thread pool. */
class Batcher
{
  private:
    struct Pending
    {
        core::Index session = 0;
        std::vector<core::Real> token;
        std::size_t slot = 0; ///< submission index within the flush
        std::chrono::steady_clock::time_point submitted{};
        std::chrono::steady_clock::time_point deadline{
            std::chrono::steady_clock::time_point::max()};
    };

  public:
    /** Queue bound used when CTA_QUEUE_CAP is unset. */
    static constexpr core::Index kDefaultQueueCapacity = 1 << 16;

    /** No-deadline sentinel for trySubmit(). */
    static constexpr std::chrono::steady_clock::time_point kNoDeadline =
        std::chrono::steady_clock::time_point::max();

    /**
     * One drained flush batch: the pending steps swapped out by
     * beginFlush(), grouped per session; resolveFlush() then resolves
     * every session to a live pointer (restores happen there, serially
     * within the batcher, so eviction decisions stay
     * thread-count-invariant). The taskCount() session tasks are
     * mutually independent — run them in any order, concurrently, via
     * runPlanTask() — then hand the plan back to finishFlush() for
     * accounting. Lifecycle mutation (removeSession) must not run
     * between beginFlush() and finishFlush() of the same batcher.
     */
    struct FlushPlan
    {
        /** Independent per-session tasks ready for runPlanTask(). */
        core::Index taskCount() const
        {
            return static_cast<core::Index>(active.size());
        }

        bool empty() const { return batch.empty(); }

        /** True when resolveFlush() has an evicted session to
         *  restore (otherwise it only marks recency). */
        bool needsRestore() const { return restoring; }

      private:
        friend class Batcher;
        bool restoring = false;
        std::vector<Pending> batch;
        /** Indices into batch per session id, submission order. */
        std::vector<std::vector<std::size_t>> perSession;
        std::vector<core::Index> active;    ///< session ids with work
        std::vector<DecodeSession *> resolved; ///< parallel to active
        std::vector<StepResult> results;    ///< slot-indexed
        std::vector<std::uint64_t> expired;   ///< per active session
        std::vector<std::uint64_t> corrupted; ///< per active session
    };

    /** What finishFlush() hands back. */
    struct FlushResult
    {
        std::vector<StepResult> results; ///< submission order
        /** The manager's residentBytes() after the budget pass. */
        std::size_t residentBytes = 0;
    };

    /**
     * @param manager owns the sessions; must outlive the batcher.
     *        flush() restores evicted sessions on demand and enforces
     *        the manager's byte budget afterwards.
     * @param pool worker pool; nullptr means the process-global pool.
     * @param queue_cap submit-queue bound; 0 reads CTA_QUEUE_CAP
     *        (default kDefaultQueueCapacity when unset).
     */
    explicit Batcher(SessionManager &manager,
                     core::ThreadPool *pool = nullptr,
                     core::Index queue_cap = 0);

    /** Parses CTA_QUEUE_CAP (must be positive); the default bound
     *  when unset. */
    static core::Index queueCapacityFromEnv();

    /**
     * Forks a new session off @p parent's current state via
     * SessionManager::forkSession() — the child shares the parent's
     * state pages copy-on-write and its snapshots serialize only its
     * divergence.
     */
    core::Index forkSession(core::Index parent);

    core::Index sessionCount() const;

    /** The live session for @p id (restoring it first if evicted).
     *  Fatal for out-of-range or removed ids. */
    DecodeSession &session(core::Index id);

    /**
     * Frees session @p id: it is dropped from the manager, any
     * queued steps for it are discarded, and every later access to
     * the id is fatal. Ids are not reused.
     * Thread-safe against the submit path; must not run concurrently
     * with flush() (see the locking-order notes above).
     */
    void removeSession(core::Index id);

    /** Queues one decode step (copies @p token). Thread-safe. Fatal
     *  when the bounded queue is full or the session was removed —
     *  use trySubmit() to shed load instead. */
    void submit(core::Index session, std::span<const core::Real> token);

    /**
     * Admission-controlled submit: returns QueueFull when the bounded
     * queue is at capacity, SessionRemoved when the target session
     * was removed, Corrupted when the manager quarantined it over a
     * corrupt snapshot, and DeadlineExpired when @p deadline had
     * already passed at submission (dead-on-arrival work never
     * occupies a queue slot) — instead of aborting. Out-of-range ids
     * are still fatal (caller bug, not load). @p deadline: steps not
     * *started* by then come back Expired from flush(). Thread-safe,
     * including against removeSession().
     */
    SubmitResult trySubmit(core::Index session,
                           std::span<const core::Real> token,
                           std::chrono::steady_clock::time_point
                               deadline = kNoDeadline);

    /** Queued steps not yet flushed. */
    core::Index pendingCount() const;

    /** Configured submit-queue bound. */
    core::Index queueCapacity() const { return queueCapacity_; }

    /**
     * Cumulative trySubmit() rejections over every reason — queue
     * full, session removed, quarantined-corrupt, and dead-on-arrival
     * deadline. Always equals rejectedSubmitsByReason().total().
     */
    std::uint64_t rejectedSubmits() const;

    /** Per-reason breakdown of rejectedSubmits(). */
    SubmitRejections rejectedSubmitsByReason() const;

    /** Cumulative steps returned as Expired by flush(). */
    std::uint64_t expiredSteps() const;

    /** Cumulative steps returned as Corrupted by flush(). */
    std::uint64_t corruptedSteps() const;

    /** Cumulative steps returned as Bounced by bounceFlush(). */
    std::uint64_t bouncedSteps() const;

    /**
     * Runs every queued step — per-session sequential, cross-session
     * parallel — and returns outputs in submission order. Steps past
     * their deadline are skipped and returned as Expired. A session
     * whose snapshot fails integrity checks at restore time is
     * quarantined and its queued steps come back Corrupted — the
     * other sessions in the same flush are unaffected.
     *
     * Equivalent to beginFlush() + resolveFlush() + runPlanTask()
     * over every task on the pool + finishFlush().
     */
    std::vector<StepResult> flush();

    /**
     * Sharding hook, phase 1a of flush(): drains the pending queue and
     * groups it per session, noting whether any session with work is
     * evicted (FlushPlan::needsRestore()). The front-end calls this
     * per shard, serially in shard order.
     */
    FlushPlan beginFlush();

    /**
     * Sharding hook, phase 1b: resolves every session of @p plan to a
     * live pointer, in session order — this is where evicted sessions
     * restore, serially within this batcher, so its LRU ticks and
     * eviction decisions are thread-count-invariant. Must run exactly
     * once per plan, before any runPlanTask(). Distinct batchers' plans
     * may resolve concurrently (the front-end runs one pool task per
     * shard).
     */
    void resolveFlush(FlushPlan &plan);

    /**
     * Sharding hook, phase 2: executes session task @p t of @p plan
     * (all queued steps of one session, in submission order). Tasks
     * of one plan are mutually independent and may run concurrently;
     * each task must run exactly once before finishFlush().
     */
    void runPlanTask(FlushPlan &plan, core::Index t);

    /**
     * Sharding hook, phase 3: folds @p plan's expiry/corruption
     * totals into the counters, marks recency and enforces the
     * manager budget, and returns the results in submission order
     * with the resident total the budget pass ended at. Distinct
     * batchers may finish concurrently (one pool task per shard).
     */
    FlushResult finishFlush(FlushPlan &&plan);

    /**
     * Failure-path alternative to runPlanTask()+finishFlush(): the
     * shard wedged after resolveFlush(), so no task of @p plan may
     * run.
     * Every drained step comes back StepStatus::Bounced and no
     * session is stepped, touched or evicted — the sessions' token
     * streams are exactly as if the steps were never dispatched, so
     * the caller can resubmit them (possibly to another shard after
     * failover) without breaking the stream-prefix invariant. Must
     * not be mixed with runPlanTask() on the same plan.
     */
    std::vector<StepResult> bounceFlush(FlushPlan &&plan);

  private:
    core::ThreadPool &pool() const;

    /** Counts one rejection for @p reason (caller holds mutex_) and
     *  bumps the matching per-reason gauge; returns @p reason. */
    SubmitResult recordRejectionLocked(SubmitResult reason);

    core::ThreadPool *pool_;
    SessionManager &manager_;

    /**
     * Guards every manager_ call. Locking order: sessionsMutex_
     * BEFORE mutex_ (see the file header).
     */
    mutable std::mutex sessionsMutex_;
    core::Index queueCapacity_ = kDefaultQueueCapacity;

    /** Guards pending_ and the rejection/expiry counters below.
     *  Inner lock — never acquire sessionsMutex_ while holding it. */
    mutable std::mutex mutex_;
    std::vector<Pending> pending_;
    SubmitRejections rejections_;
    std::uint64_t expiredSteps_ = 0;
    std::uint64_t corruptedSteps_ = 0;
    std::uint64_t bouncedSteps_ = 0;
};

} // namespace cta::serve
