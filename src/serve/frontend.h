/**
 * @file
 * Multi-tenant traffic front-end over a sharded, memory-budgeted
 * serving stack: per-tenant QoS classes with deficit-round-robin
 * (DRR) fair scheduling, per-tenant admission quotas, continuous
 * batching, cross-shard work stealing at flush, and shard fault
 * domains with snapshot failover.
 *
 * Topology: the front-end owns CTA_SHARDS shards, each one
 * SessionManager: its own page arena, a slice of the byte budget, its
 * own bounded submit queue and the flush phases, under one lock.
 * Sessions are placed on the healthy shard with the fewest resident
 * bytes (ties broken by placements-since-last-flush, then shard
 * index) — a pure function of the observable event order, so shard
 * placement is deterministic for a fixed call sequence. forkSession()
 * is the exception: a child shares its parent's state pages
 * copy-on-write, so it always lands on the parent's shard.
 *
 * Submission path (thread-safe): admit() lands steps in the owning
 * tenant's FIFO queue after admission — a tenant whose queue holds
 * maxQueued steps gets QuotaExceeded, so one tenant's overload can
 * never consume another tenant's headroom. Temporary
 * rejections (QuotaExceeded, ShardFenced) carry a deterministic
 * exponential-backoff retry hint (CTA_RETRY_BASE doubling per
 * consecutive rejection up to CTA_RETRY_MAX). Steps do NOT go to the
 * shards at submit time; dispatch is the scheduler's job.
 *
 * Flush path (one driver thread — continuous batching is this
 * driver looping flushOnce() while submitters keep arriving):
 *
 *  1. **DRR dispatch.** Every tenant with queued work banks quantum
 *     = weight * drrQuantumScale deficit (an idle tenant's deficit
 *     resets — no banking while idle), then round-robin passes move
 *     steps tenant-queue -> shard queue, each step costing one
 *     deficit, until every queue is empty, every deficit is spent,
 *     or maxDispatchPerFlush is reached. Under contention each
 *     tenant's share of a flush converges to weight_i / sum(weights)
 *     — weighted fairness; under light load everything queued is
 *     dispatched — work conservation. Per-session FIFO order is
 *     preserved (a session belongs to one tenant, tenant queues are
 *     FIFO, and a dispatch-time QueueFull — or a fenced shard — stops
 *     that tenant's round *at the head*, never skipping past it).
 *  2. **Sharded flush with cross-shard work stealing.** Each shard's
 *     SessionManager::beginFlush() drains and groups its queue
 *     serially in shard order; then resolveFlush() (where evicted
 *     sessions restore) runs as one pool task per shard. Inside a
 *     task a shard's restores keep their serial order, and no two
 *     tasks share a SessionManager, so every LRU tick, eviction and
 *     fault ordinal is thread-count-invariant. Every shard's session
 *     tasks are then merged into ONE ThreadPool::run batch — the
 *     pool's ticket-claiming workers steal across shards, so a
 *     worker done with shard 0's sessions immediately picks up shard
 *     3's instead of idling at a per-shard barrier. finishFlush()
 *     (recency, the budget pass and its evictions) again runs as one
 *     pool task per shard. A phase with nothing to restore, or no
 *     budget to enforce, runs inline in shard order instead of
 *     paying for a pool call.
 *  3. **Completion mapping.** Serially, in shard order, under the
 *     front-end lock — as are the health state machine and failover.
 *     Results come back per shard in
 *     submission order (the per-shard determinism contract) and are
 *     tagged with tenant, global session id and queue-wait; per-
 *     tenant queue-wait/latency/shed gauges go to the obs layer
 *     under labeled names ("serve.queue_wait_max_s{tenant=gold}").
 *
 * Shard fault domains (DESIGN.md §4.10). Each shard carries a health
 * state machine Healthy -> Degraded -> Failed. A flush that wedges
 * (the deterministic fault::Site::ShardFault draw, one per shard per
 * flush) bounces every dispatched step (StepStatus::Bounced — the
 * sessions' streams are untouched, so resubmitting is always safe)
 * and counts one flush failure; CTA_SHARD_FAIL_AFTER consecutive
 * failures, or as many observed corruption events since the last
 * recovery, drive the shard Failed. A Failed shard is *fenced*: it
 * takes no new placements, admission to its sessions returns
 * ShardFenced with a retry hint, and dispatch holds at the head of
 * any queue targeting it. Failing over, every non-quarantined,
 * non-pinned session is re-homed to the surviving shard with the
 * fewest bytes by replaying its CTAS snapshot through the ordinary
 * restore path (prefix chains migrate root-first) — so a migrated
 * session's subsequent steps are bit-identical to a never-migrated
 * twin's. Quarantined sessions are dropped; fallback-pinned ones
 * stay fenced until recoverShard() returns the shard to rotation.
 *
 * Locking: the front-end mutex_ guards tenants, the session registry
 * and shard health; each shard's SessionManager has its own lock. The
 * order is front-end mutex_ before a shard lock, never the reverse.
 * flushOnce() takes the front-end lock for dispatch and for phase 3
 * but not for phases 1 and 2, so admit() and createSession() may run
 * on other threads while it flushes. forkSession(), removeSession(),
 * failShard() and recoverShard() may not: forking freezes the
 * parent's state, which phase 2 may be stepping, and the others
 * remove or move sessions a running flush holds.
 *
 * Determinism: for a fixed sequence of admit() calls between
 * flushes and a fixed fault seed, dispatch order, shard placement,
 * health transitions, failover targets, eviction decisions and every
 * step output are bit-identical for any thread count
 * (tests/serve_frontend_test.cc, tests/shard_failover_test.cc).
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/session_manager.h"

namespace cta::serve {

/** QoS class of one tenant. */
struct TenantConfig
{
    /** Label for stats and per-tenant gauge names ("gold", ...). */
    std::string name;
    /**
     * DRR weight: this tenant's guaranteed share of each flush under
     * contention is weight / sum(weights). Must be positive.
     */
    std::uint32_t weight = 1;
    /**
     * Admission quota: max steps waiting in this tenant's queue; a
     * submit beyond it is rejected QuotaExceeded. 0 reads
     * CTA_TENANT_QUOTA (default 1024).
     */
    core::Index maxQueued = 0;
};

/** Cumulative per-tenant accounting (monotonic). */
struct TenantCounters
{
    std::uint64_t submitted = 0;  ///< admit() calls
    std::uint64_t admitted = 0;   ///< accepted into the tenant queue
    std::uint64_t shedQuota = 0;  ///< QuotaExceeded rejections
    std::uint64_t shedDeadline = 0; ///< dead-on-arrival rejections
    /** Steps shed because the target session was removed — rejected
     *  at admission, dropped from the tenant queue by
     *  removeSession(), or bounced SessionRemoved by the shard. */
    std::uint64_t shedRemoved = 0;
    /** Steps shed because the target session was quarantined over a
     *  corrupt snapshot (admission or shard dispatch). */
    std::uint64_t shedCorrupted = 0;
    /** Dispatched steps returned StepStatus::Bounced by a wedged
     *  shard — retryable: the session's stream is untouched. */
    std::uint64_t shedBounced = 0;
    /** Admissions rejected ShardFenced: the session sits on a Failed
     *  shard awaiting recovery or deferred re-home — retryable. */
    std::uint64_t shedFenced = 0;
    std::uint64_t dispatched = 0; ///< handed to a shard's queue
    std::uint64_t completed = 0;  ///< StepStatus::Ok results
    std::uint64_t expired = 0;    ///< deadline passed while queued
    std::uint64_t corrupted = 0;  ///< session quarantined mid-flight

    /** The legacy catch-all: every shed not already counted by
     *  shedQuota/shedDeadline. Exactly the sum of the per-reason
     *  counters above (tests/serve_frontend_test.cc asserts it). */
    std::uint64_t shedDispatch() const
    {
        return shedRemoved + shedCorrupted + shedBounced + shedFenced;
    }
};

/** Health of one shard's fault domain. */
enum class ShardHealth
{
    Healthy,  ///< serving normally
    Degraded, ///< recent flush wedged; still serving, being watched
    Failed,   ///< fenced: no placements, no dispatch, sessions
              ///< re-homed; recoverShard() returns it to rotation
};

/** Human-readable name of a ShardHealth. */
const char *toString(ShardHealth health);

/** Cumulative per-shard health/failover accounting (monotonic,
 *  except health and consecutiveFlushFailures which are current). */
struct ShardStats
{
    ShardHealth health = ShardHealth::Healthy;
    /** Wedged flushes since the last clean flush (resets to 0 on any
     *  clean one; shardFailAfter of these drive the shard Failed). */
    std::uint64_t consecutiveFlushFailures = 0;
    std::uint64_t flushFailures = 0; ///< cumulative wedged flushes
    /** Corruption events (quarantines) observed on this shard. */
    std::uint64_t corruptionEvents = 0;
    std::uint64_t failovers = 0;  ///< transitions into Failed
    std::uint64_t recoveries = 0; ///< recoverShard() calls
    std::uint64_t sessionsMigratedOut = 0;
    std::uint64_t sessionsMigratedIn = 0;
    /** Quarantined sessions dropped (not migrated) at failover. */
    std::uint64_t sessionsDropped = 0;
    std::uint64_t prefixesMigratedIn = 0;
};

/** Front-end construction parameters. */
struct FrontendConfig
{
    /** Shard count; 0 reads CTA_SHARDS (default 4). */
    core::Index shards = 0;
    /**
     * Total resident byte budget, split across the shards'
     * SessionManagers so the per-shard budgets sum to it *exactly*
     * (the first budget % shards shards take one extra byte); 0 is
     * unlimited, and a nonzero budget smaller than the shard count is
     * fatal (a shard cannot enforce a zero-byte budget). Defaults to
     * CTA_MEM_BUDGET.
     */
    std::size_t memBudgetBytes = SessionManager::memBudgetFromEnv();
    /**
     * Steps of deficit one weight unit banks per flush round. Larger
     * values batch more steps per flush (throughput) at the cost of
     * coarser fairness granularity (latency).
     */
    core::Index drrQuantumScale = 32;
    /**
     * Upper bound on steps dispatched by one flushOnce() — caps a
     * flush's duration so overload degrades to bounded rounds
     * instead of one unbounded mega-batch. Must be positive.
     */
    core::Index maxDispatchPerFlush = 256;
    /**
     * Consecutive wedged flushes — or corruption events since the
     * last recovery — that drive a shard Failed; 0 reads
     * CTA_SHARD_FAIL_AFTER (default 3). 1 means the first wedge
     * fails the shard outright.
     */
    core::Index shardFailAfter = 0;
    /** Backoff hint base, seconds; 0 reads CTA_RETRY_BASE (1e-3). */
    double retryBaseSeconds = 0;
    /** Backoff hint cap, seconds; 0 reads CTA_RETRY_MAX (1.0). */
    double retryMaxSeconds = 0;
    /** Worker pool; nullptr means the process-global pool. */
    core::ThreadPool *pool = nullptr;
};

/** One completed (or failed) decode step returned by flushOnce(). */
struct Completion
{
    core::Index session = 0; ///< front-end global session id
    core::Index tenant = 0;
    core::Index shard = 0;
    StepStatus status = StepStatus::Ok;
    /** Front-end submit to shard dispatch, in seconds (wall). */
    double queueWaitSeconds = 0;
    core::Matrix output; ///< 1 x d (empty unless status == Ok)
};

/** Admission verdict of one admit() call. */
struct Admission
{
    SubmitResult result = SubmitResult::Accepted;
    /**
     * For temporary rejections (QuotaExceeded, ShardFenced): how long
     * the caller should back off before retrying — deterministic
     * per-tenant exponential backoff, retryBase * 2^(streak-1) capped
     * at retryMax, where streak counts the tenant's consecutive
     * temporary rejections since its last acceptance. 0 for
     * acceptances and for terminal rejections (SessionRemoved,
     * Corrupted, DeadlineExpired), which no amount of waiting fixes.
     */
    double retryAfterSeconds = 0;
};

/** Multi-tenant sharded serving front-end (see file header). */
class ServeFrontend
{
  public:
    /**
     * @param params shared projection weights of the served model
     * @param config per-session CTA serving configuration
     * @param token_dim dimension of incoming tokens
     * @param frontend shard/QoS/pool configuration
     */
    ServeFrontend(nn::AttentionHeadParams params, ServeConfig config,
                  core::Index token_dim,
                  FrontendConfig frontend = FrontendConfig{});

    /** Parses CTA_SHARDS (positive, at most 256); 4 when unset. */
    static core::Index shardsFromEnv();

    /** Parses CTA_TENANT_QUOTA (positive); 1024 when unset. */
    static core::Index tenantQuotaFromEnv();

    /** Parses CTA_SHARD_FAIL_AFTER (positive); 3 when unset. */
    static core::Index shardFailAfterFromEnv();

    /** Parses CTA_RETRY_BASE (positive seconds); 1e-3 when unset. */
    static double retryBaseFromEnv();

    /** Parses CTA_RETRY_MAX (positive seconds); 1.0 when unset. */
    static double retryMaxFromEnv();

    /**
     * Registers a QoS class; returns its tenant id (dense, from 0).
     * Tenant names must be unique — they key the per-tenant gauges.
     * Not thread-safe; register every tenant before serving starts.
     */
    core::Index registerTenant(TenantConfig config);

    /** Creates an empty session owned by @p tenant on the healthy
     *  shard with the fewest resident bytes; returns its front-end
     *  global id. Fatal when every shard is Failed. May run
     *  concurrently with flushOnce(). */
    core::Index createSession(core::Index tenant);

    /** Creates a session prefilled with @p tokens (n x tokenDim). May
     *  run concurrently with flushOnce(). */
    core::Index createSession(core::Index tenant,
                              const core::Matrix &tokens);

    /**
     * Forks a session off @p parent's current state (same tenant):
     * the child shares the parent's state pages copy-on-write, so it
     * lands on the parent's shard regardless of load — and inherits
     * that shard's fence while it is Failed. Fatal for removed or
     * quarantined parents. Must not run concurrently with flushOnce():
     * forking freezes the parent's state, which the flush may be
     * stepping.
     */
    core::Index forkSession(core::Index parent);

    /**
     * Thread-safe admission: queues one decode step for @p session
     * in its tenant's queue and reports the verdict plus a backoff
     * hint. QuotaExceeded when the tenant's queue is at maxQueued and
     * ShardFenced when the session sits on a Failed shard — both
     * temporary, both carrying retryAfterSeconds; DeadlineExpired
     * when @p deadline already passed, SessionRemoved/Corrupted when
     * the target session is gone — terminal, hint 0. Out-of-range
     * ids are fatal.
     */
    Admission admit(core::Index session,
                    std::span<const core::Real> token,
                    std::chrono::steady_clock::time_point deadline =
                        SessionManager::kNoDeadline);

    /**
     * One continuous-batching round (single driver thread): DRR-
     * dispatches queued steps to the shard queues, runs every
     * shard's flush as one work-stealing pool batch, and returns the
     * completions — shards in index order, submission order within a
     * shard. A shard whose deterministic ShardFault draw fires this
     * round wedges: its steps come back Bounced and its health
     * degrades (Failed after shardFailAfter consecutive wedges,
     * triggering failover). Concurrent admit() calls keep landing in
     * the tenant queues while the flush runs, and concurrent
     * createSession() calls may add sessions (see the file header).
     */
    std::vector<Completion> flushOnce();

    /** Removes @p session (drops its queued steps everywhere). Must
     *  not run concurrently with flushOnce(). The session's pages and
     *  blob are freed after both locks are released. */
    void removeSession(core::Index session);

    /**
     * Operator drain: immediately marks shard @p s Failed and
     * re-homes its sessions to the surviving shards (the same
     * failover path a wedge-driven failure takes). Fatal when the
     * shard is already Failed. Must not run concurrently with
     * flushOnce().
     */
    void failShard(core::Index s);

    /**
     * Returns a Failed shard to rotation: health resets to Healthy,
     * the failure/corruption epoch counters clear, and the shard
     * takes placements again. Sessions that stayed fenced on it
     * (fallback-pinned, or deferred because every shard was Failed)
     * resume serving. Fatal unless the shard is Failed. Must not run
     * concurrently with flushOnce().
     */
    void recoverShard(core::Index s);

    /** Current health of shard @p s. */
    ShardHealth shardHealth(core::Index s) const;

    /** Health/failover accounting of shard @p s. */
    ShardStats shardStats(core::Index s) const;

    core::Index shardCount() const
    {
        return static_cast<core::Index>(shards_.size());
    }

    /** Sessions ever created through this front-end. */
    core::Index sessionCount() const;

    core::Index tenantOf(core::Index session) const;

    /** The shard @p session lives on; fatal once it was removed. */
    core::Index shardOf(core::Index session) const;

    /** Steps currently waiting in @p tenant's queue. */
    core::Index queuedSteps(core::Index tenant) const;

    /** Cumulative accounting for @p tenant. */
    TenantCounters tenantCounters(core::Index tenant) const;

    /** Shard @p s's manager (stats/budget introspection). */
    const SessionManager &manager(core::Index s) const;

  private:
    struct QueuedStep
    {
        core::Index session = 0; ///< global id
        std::vector<core::Real> token;
        std::chrono::steady_clock::time_point submitted{};
        std::chrono::steady_clock::time_point deadline{
            SessionManager::kNoDeadline};
    };

    struct Tenant
    {
        TenantConfig config;
        std::uint64_t deficit = 0;
        /** Consecutive temporary rejections since the last accept —
         *  drives the exponential retry-after hint. */
        std::uint64_t rejectStreak = 0;
        std::deque<QueuedStep> queue;
        TenantCounters counters;
        /** Cached labeled gauges (registry lookups are locked). */
        obs::Gauge *waitMax = nullptr;
        obs::Gauge *waitTotal = nullptr;
        obs::Gauge *latencyMax = nullptr;
        obs::Gauge *shed = nullptr; ///< legacy total, sum of the four
        obs::Gauge *shedRemoved = nullptr;
        obs::Gauge *shedCorrupted = nullptr;
        obs::Gauge *shedBounced = nullptr;
        obs::Gauge *shedFenced = nullptr;
    };

    /** Dispatch-order metadata of one in-flight step; parallel to
     *  the shard's pending queue (empty between flushes). */
    struct DispatchTag
    {
        core::Index session = 0; ///< global id
        core::Index tenant = 0;
        std::chrono::steady_clock::time_point submitted{};
        double waitSeconds = 0; ///< submit to dispatch, measured
    };

    struct Shard
    {
        std::unique_ptr<SessionManager> manager;
        std::vector<DispatchTag> inflight;
        ShardStats stats; ///< stats.health is the live health field
        /** Corruption events since the last recovery (or
         *  construction) — the epoch the fail-after threshold sees;
         *  stats.corruptionEvents is the cumulative mirror. */
        std::uint64_t corruptionsInEpoch = 0;
        /** Placement load cache: residentBytes() as of the end of the
         *  last flush — the total its budget pass ended at, read
         *  again only after a failover (manager calls are not safe
         *  mid-flush). */
        std::size_t loadBytes = 0;
        /** Placements since the last refresh — tie-break so burst
         *  creations between flushes still spread out. */
        std::uint64_t placements = 0;
        /** Cached "serve.shard.state{shard=N}" gauge (0/1/2). */
        obs::Gauge *stateGauge = nullptr;
    };

    struct SessionRef
    {
        core::Index shard = 0;
        core::Index local = 0; ///< id within the shard's manager
        core::Index tenant = 0;
        /** Quarantine observed (sticky) — admission rejects early. */
        bool corrupted = false;
    };

    /** Shed reasons splitting the legacy shedDispatch catch-all. */
    enum class ShedReason
    {
        Removed,
        Corrupted,
        Bounced,
        Fenced,
    };

    core::ThreadPool &pool() const;

    const Tenant &tenant(core::Index id) const;

    /** Counts @p count sheds for @p reason (caller holds mutex_). */
    void shedLocked(Tenant &t, ShedReason reason,
                    std::uint64_t count = 1);

    /** The retry-after hint for one temporary rejection of @p t
     *  (bumps the streak; caller holds mutex_). */
    double retryHintLocked(Tenant &t);

    /** Least-loaded healthy shard for a new session (fatal when all
     *  shards are Failed); bumps its placement tie-break counter.
     *  Caller holds mutex_. */
    core::Index pickShardLocked();

    /** Sets shard @p s's health and publishes its state gauge. */
    void setShardHealthLocked(core::Index s, ShardHealth health);

    /** Re-homes every migratable session off Failed shard @p s (see
     *  the file header); quarantined sessions are dropped, pinned
     *  ones stay fenced. Caller holds mutex_. */
    void failoverLocked(core::Index s);

    /** Migrates prefix chain @p id (root-first, memoized per
     *  destination) from shard @p src to @p dst; returns the
     *  destination-manager prefix id. @p adopted accumulates the
     *  blob bytes landed per destination this failover. */
    std::int64_t migratePrefixLocked(
        core::Index src, core::Index dst, std::int64_t id,
        std::map<std::pair<core::Index, std::int64_t>, std::int64_t>
            &memo,
        std::vector<std::size_t> &adopted);

    /** Phase 1 of flushOnce(): DRR dispatch under mutex_. */
    void dispatchLocked();

    /** Registers @p ref under the next global id and returns it. */
    core::Index addSessionLocked(const SessionRef &ref);

    /** @p session's ref, or null once it was removed; fatal for ids
     *  never handed out. */
    SessionRef *findLocked(core::Index session);
    const SessionRef *findLocked(core::Index session) const;

    mutable std::mutex mutex_; ///< tenant queues, registry, counters
    std::vector<Shard> shards_;
    std::vector<Tenant> tenants_;
    /** The refs of the sessions not removed, by global id. A removed
     *  id keeps only its tenant (tenantOfId_), so a long-running
     *  front-end's footprint follows its sessions, not every id it
     *  ever handed out. */
    std::unordered_map<core::Index, SessionRef> sessions_;
    /** Tenant of every id ever handed out, indexed by id: a late
     *  admit to a removed session still bills its tenant. 32 bits,
     *  since every tenant holds a queue and gauges; a deque grows in
     *  fixed blocks, never holding a doubled copy. */
    std::deque<std::int32_t> tenantOfId_;
    core::Index defaultQuota_ = 0;
    core::Index drrQuantumScale_ = 32;
    core::Index maxDispatchPerFlush_ = 256;
    core::Index shardFailAfter_ = 3;
    double retryBase_ = 1e-3;
    double retryMax_ = 1.0;
    /** Flush ordinal keying the per-shard ShardFault draw (driver
     *  thread only — flushOnce is single-driver by contract). */
    std::uint64_t flushOrdinal_ = 0;
    core::ThreadPool *pool_ = nullptr;
};

} // namespace cta::serve
