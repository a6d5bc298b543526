/**
 * @file
 * Bounded-memory ownership of many decode sessions: per-session byte
 * accounting, a global memory budget, LRU eviction to compact
 * serialized snapshots, and copy-on-write prefix sharing.
 *
 * The paper's premise (§III-B) is that compressed cluster state is
 * small enough to keep resident; this layer makes that an enforced
 * property instead of a hope. Every resident byte is counted exactly
 * once, as a running total read in O(1) (residentBytes()): every
 * arena page once, however many sessions share it
 * (core::PageArena::liveBytes()), plus the heap bytes each session
 * holds beside its pages, which it posts to the arena whenever it
 * mutates (DecodeSession::heapBytes(); a frozen prefix donor adds its
 * shared cluster trees). The model weights are priced once per
 * manager, outside the total. The per-page walk the total replaced
 * (walkedResidentBytes(): live sessions' private bytes, donors, and
 * the arena's shared pages) stays as its test oracle, and only it
 * and stats() walk pages. When the total exceeds the budget,
 * least-recently-used sessions are *evicted*: their incremental
 * compression state is serialized to a compact blob
 * (serializeSnapshot()) — for a forked session, only the delta past
 * its shared prefix — and the live session is destroyed. A prefix
 * donor itself is evicted only once no live session is forked from
 * it or still caches it for its next fork. Touching an evicted session
 * later restores it bit-identically (evict → restore → step equals
 * never-evicted step; enforced in tests/serve_test.cc and
 * tests/session_manager_test.cc).
 *
 * All sessions share one model (params/config/tokenDim given at
 * construction), one sampled LSH set and one page arena — the
 * realistic serving shape, and what lets an evicted session drop to
 * just its snapshot blob.
 *
 * A manager also batches its sessions' decode steps: it owns a
 * bounded submit queue and flushes it. Within a session,
 * queued steps run in submission order on one worker; across
 * sessions, work fans out over the pool (one task per session with
 * pending work). Outputs come back in submission order, and because
 * sessions are independent and each is processed serially, results
 * are deterministic for any thread count. The queue is bounded
 * (default 64Ki entries, CTA_QUEUE_CAP overrides): trySubmit()
 * reports QueueFull instead of growing without limit. A step whose
 * deadline already passed at submission is rejected there
 * (DeadlineExpired); one whose deadline passes while queued comes
 * back Expired, and so does every later queued step of its session
 * in that flush, so the session's token stream stays a prefix. Every
 * rejection reason is counted (SessionManagerStats::rejections) and
 * exported as a "serve.rejected.*" gauge.
 *
 * A flush is three phases, exposed separately for the sharded
 * front-end (serve/frontend.h): beginFlush() drains and groups the
 * queue; resolveFlush() resolves every session with work to a live
 * pointer, restoring evicted ones serially in session order;
 * runPlanTask() steps one session's queued work; finishFlush() marks
 * recency in submission order and enforces the budget. Restores,
 * ticks and evictions thus advance serially per manager, so eviction
 * decisions stay deterministic for any thread count.
 *
 * Thread-safety: one mutex guards all of the manager's state, and
 * every public method that reads or writes it takes that lock.
 * runPlanTask() takes none: it only steps the sessions resolveFlush()
 * handed out, which no other call touches until finishFlush(). So
 * trySubmit(), createSession(), pendingCount() and the slot-state
 * queries (exists(), isLive(), ...) may run on other threads during a
 * flush. What may not overlap phase 2 is any call that reads or
 * mutates a live session: acquire()/tryAcquire(), forkSession() (it
 * freezes the parent's state), removeSession(), evict(),
 * enforceBudget(), exportSession(), poisonSession(),
 * isFaultTainted(), isPinnedResident(), stats() and the byte totals.
 * A reference returned by acquire() is used outside the lock; the
 * caller keeps it from racing a flush.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/page_arena.h"
#include "core/parallel.h"
#include "serve/decode_session.h"

namespace cta::serve {

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
                     ///< per-tenant admission, never by a manager)
    ShardFenced,     ///< the target session sits on a Failed shard
                     ///< that has no healthy destination to re-home
                     ///< to yet — temporary, retry after recovery
                     ///< (front-end only, never returned by a manager)
};

/** Human-readable name of a SubmitResult. */
const char *toString(SubmitResult result);

/** Per-reason breakdown of trySubmit() rejections (disjoint). */
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

/** Point-in-time summary of a SessionManager. */
struct SessionManagerStats
{
    core::Index created = 0;      ///< ids ever handed out
    core::Index live = 0;         ///< sessions resident in memory
    core::Index evicted = 0;      ///< sessions held as blobs
    core::Index removed = 0;      ///< sessions freed for good
    core::Index quarantined = 0;  ///< sessions lost to corruption
    std::size_t liveBytes = 0;    ///< sum of live stateBytes()
    std::size_t evictedBytes = 0; ///< sum of snapshot blob sizes
    std::uint64_t evictions = 0;  ///< cumulative evict operations
    std::uint64_t restores = 0;   ///< cumulative restore operations
    /** Snapshot corruptions the fault layer injected at evict time. */
    std::uint64_t corruptionsInjected = 0;
    /** Injected corruptions the CRC/decode caught at restore time. */
    std::uint64_t corruptionsDetected = 0;
    /** Injected corruptions that decoded anyway — the fault soak
     *  requires this to stay exactly zero. */
    std::uint64_t corruptionsSilent = 0;

    // Prefix-sharing accounting (all zero on a manager that never
    // forked).
    core::Index prefixes = 0;     ///< prefixes ever registered
    core::Index prefixesLive = 0; ///< prefix donors resident
    std::size_t prefixBytes = 0;  ///< resident donor + shared-tree bytes
    std::size_t prefixBlobBytes = 0; ///< evicted donor blob bytes
    std::size_t sharedPageBytes = 0; ///< arena pages with >= 2 owners
    std::size_t residentBytes = 0;   ///< the budgeted total
    std::size_t modelBytes = 0;   ///< weights + LSH, priced once
    std::uint64_t forks = 0;      ///< cumulative forkSession() calls
    std::uint64_t cowCopies = 0;  ///< arena copy-on-write page copies
    std::uint64_t prefixEvictions = 0;
    std::uint64_t prefixRestores = 0;

    // Submit-queue and flush accounting (cumulative; timing-dependent,
    // so outside the deterministic counter domain).
    SubmitRejections rejections;     ///< trySubmit() rejections
    std::uint64_t expiredSteps = 0;  ///< steps flushed as Expired
    std::uint64_t corruptedSteps = 0; ///< steps flushed as Corrupted
    std::uint64_t bouncedSteps = 0;  ///< steps bounceFlush() returned
};

/**
 * One session's state packaged for cross-manager migration (shard
 * failover). The blob is the session's CTAS v3 snapshot — serialized
 * on demand for a live session, the stored blob for an evicted one —
 * plus the slot bookkeeping the destination must inherit so the
 * corruption/taint accounting stays exact across the move.
 */
struct SessionExport
{
    std::vector<std::uint8_t> blob;
    /** Source-manager prefix id (-1 standalone). The importer remaps
     *  it onto the destination's registry (exportPrefix/adoptPrefix)
     *  before adoptSession(). Valid even when the blob is corrupt —
     *  it comes from the slot, not the blob. */
    std::int64_t prefixId = -1;
    /** The fault layer corrupted this blob on the source manager. */
    bool corruptionInjected = false;
    /** Sticky fault taint accumulated on the source manager. */
    bool taint = false;
};

/**
 * What SessionManager::removeSession() frees, moved out under the
 * shard lock so the caller can destroy it after releasing its own
 * locks. Its page releases need no shard lock: PageArena takes its
 * own mutex.
 */
struct RemovedSession
{
    std::unique_ptr<DecodeSession> live; ///< null unless it was live
    std::vector<std::uint8_t> blob;      ///< empty unless it was evicted
};

/** One shared prefix packaged for cross-manager migration. */
struct PrefixExport
{
    std::vector<std::uint8_t> blob; ///< donor CTAS snapshot
    core::Index tokens = 0;         ///< donor context length
    /** Source-manager id of the donor's own parent prefix (-1 when
     *  the donor is a root). The importer migrates the parent first
     *  and passes its new id to adoptPrefix(). */
    std::int64_t parentId = -1;
};

/** Owns one shard's decode sessions under a memory budget (LRU
 *  evict), and batches their queued decode steps. */
class SessionManager
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
     * every session to a live pointer. The taskCount() session tasks
     * are mutually independent — run them in any order, concurrently,
     * via runPlanTask() — then hand the plan back to finishFlush() (or
     * bounceFlush()).
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
        friend class SessionManager;
        bool restoring = false;
        std::vector<Pending> batch;
        /** Indices into batch per task, submission order. */
        std::vector<std::vector<std::size_t>> perTask;
        std::vector<core::Index> active;    ///< session ids with work
        std::vector<DecodeSession *> resolved; ///< parallel to active
        std::vector<StepResult> results;    ///< slot-indexed
    };

    /** What finishFlush() and bounceFlush() hand back. */
    struct FlushResult
    {
        std::vector<StepResult> results; ///< submission order
        /** residentBytes() when the flush ended. */
        std::size_t residentBytes = 0;
    };

    /**
     * @param params shared projection weights of the served model
     * @param config shared CTA serving configuration
     * @param token_dim dimension of incoming tokens
     * @param mem_budget_bytes resident byte budget; 0 means
     *        unlimited. Defaults to the CTA_MEM_BUDGET environment
     *        knob (absent → unlimited; parsed via core::envBytes, so
     *        K/M/G suffixes work and malformed values are fatal).
     * @param page_bytes arena page size; 0 means the CTA_PAGE_BYTES
     *        environment knob (absent → PageArena::kDefaultPageBytes)
     *
     * The submit-queue bound is read from CTA_QUEUE_CAP
     * (queueCapacityFromEnv()).
     */
    SessionManager(nn::AttentionHeadParams params, ServeConfig config,
                   core::Index token_dim,
                   std::size_t mem_budget_bytes = memBudgetFromEnv(),
                   std::size_t page_bytes = 0);

    /** Parses CTA_MEM_BUDGET (bytes, K/M/G suffixes allowed); 0
     *  (unlimited) when unset. */
    static std::size_t memBudgetFromEnv();

    /** Parses CTA_QUEUE_CAP (must be positive); kDefaultQueueCapacity
     *  when unset. */
    static core::Index queueCapacityFromEnv();

    /** Creates an empty session; returns its id (dense, from 0). */
    core::Index createSession();

    /**
     * Creates a session prefilled with @p tokens (n x tokenDim). The
     * prefill runs before the lock is taken, so it may overlap a
     * flush; the lock covers only the slot insert.
     */
    core::Index createSession(const core::Matrix &tokens);

    /**
     * Creates a session forked from @p parent's current state: the
     * parent's state is frozen as a shared prefix (reused if the
     * parent has not mutated since the last fork) and the child
     * starts bit-identical to it, sharing every state page CoW. The
     * child's snapshots serialize only its divergence.
     */
    core::Index forkSession(core::Index parent);

    /** Ids ever created (including evicted and removed ones). */
    core::Index sessionCount() const;

    /** True when @p id was created and not yet removed. */
    bool exists(core::Index id) const;

    /** True when @p id is resident in memory. */
    bool isLive(core::Index id) const;

    /** True when @p id is held as a serialized blob. */
    bool isEvicted(core::Index id) const;

    /** True when @p id was quarantined: its snapshot blob failed
     *  integrity checks at restore time and its state is gone. */
    bool isQuarantined(core::Index id) const;

    /**
     * Returns the live session for @p id, restoring it from its blob
     * first when evicted, and marks it most-recently-used. Fatal for
     * unknown, removed or quarantined ids. The reference stays valid
     * until the next evict/remove of this id.
     */
    DecodeSession &acquire(core::Index id);

    /**
     * Non-fatal acquire: like acquire(), but when the stored blob
     * fails its CRC-32 or structural decode, or does not fit the
     * state it applies to (DecodeSession::canRestore: a forged
     * checksum), the session is *quarantined* — its state is
     * dropped, the id answers isQuarantined(), every other session
     * is unaffected — and nullptr is returned. Also returns nullptr
     * for an already quarantined id. Still fatal for unknown/removed
     * ids (caller bug, not corruption).
     */
    DecodeSession *tryAcquire(core::Index id);

    /**
     * True when fault injection fired inside @p id's own work: the
     * live session's taint flag, OR-ed with taint saved across
     * evictions. The fault soak uses this to decide which sessions
     * must still be bit-identical to a fault-free run.
     */
    bool isFaultTainted(core::Index id) const;

    /** Marks @p id most-recently-used without restoring it. */
    void touch(core::Index id);

    /**
     * Serializes @p id's compression state (the delta past its shared
     * prefix, for a forked session) and destroys the live session.
     * No-op when already evicted, and no-op for a session whose
     * quality guard fell back to exact attention (its K/V caches are
     * not in the snapshot, so it is pinned resident); fatal for
     * removed ids.
     */
    void evict(core::Index id);

    /**
     * Frees @p id entirely (live state or blob) and discards its
     * queued steps. The id stays allocated but every later access is
     * fatal, and a later trySubmit() to it is rejected
     * SessionRemoved. Ids are not reused. The freed state is returned
     * rather than destroyed under the shard lock; dropping the result
     * destroys it when the call's statement ends.
     */
    RemovedSession removeSession(core::Index id);

    /**
     * True when @p id is live but pinned resident by the quality-
     * guard fallback: its exact K/V caches are not serializable, so
     * it can be neither evicted nor migrated to another manager.
     */
    bool isPinnedResident(core::Index id) const;

    /**
     * Packages @p id for migration to another manager (shard
     * failover): a live session is serialized in place (and stays
     * live — the caller removes it after a successful adopt), an
     * evicted one contributes its stored blob unmodified, so the
     * migrated restore replays the exact bytes the source would have
     * restored — the bit-identity contract extends to migration by
     * construction. Fatal for removed, quarantined (the caller drops
     * those) and fallback-pinned (isPinnedResident()) sessions.
     */
    SessionExport exportSession(core::Index id);

    /**
     * Adopts a migrated session: a new id is allocated holding @p
     * exported's blob in the Evicted state, so the next acquire runs
     * the ordinary restore path. @p new_prefix_id is this manager's
     * id for the session's prefix chain (adoptPrefix()), or -1 for a
     * standalone session — it must match the blob's own reference,
     * which is rewritten (and the CRC recomputed) when they differ.
     * A blob that fails its integrity check — CRC, decode, a prefix
     * reference other than the source slot's, a fork point other
     * than the registered prefix's, or (standalone) any delta check
     * of DecodeSession::canRestore — is quarantined right here,
     * counted corruptionsDetected when the source flagged the
     * injection — the detected==injected ledger survives migration
     * because the injection was counted on the source manager and
     * the detection on the destination, and the soak sums both over
     * every shard. A flagged blob that passes these checks keeps its
     * flag, and tryAcquire() counts it detected or silent when it is
     * restored against its donor.
     */
    core::Index adoptSession(SessionExport exported,
                             std::int64_t new_prefix_id);

    /**
     * Packages shared prefix @p id for migration: the donor's
     * snapshot blob (serialized in place when resident), its fork-
     * point context length, and the source id of its own parent
     * prefix so the importer can walk the chain root-first. Fatal for
     * out-of-range ids.
     */
    PrefixExport exportPrefix(std::int64_t id);

    /**
     * Registers a migrated prefix and returns its id here. @p
     * new_parent_id is THIS manager's id for the donor's parent
     * prefix (adopt the chain root-first), or -1 for a root donor —
     * it must agree in sign with the blob's embedded reference, which
     * is rewritten (and the CRC recomputed) when the numbers differ.
     * A corrupt blob is fatal, matching resolvePrefix(): a prefix
     * underpins many sessions, so losing one is never a
     * single-session event. The donor stays evicted until a restore
     * first needs it.
     */
    std::int64_t adoptPrefix(PrefixExport exported,
                             std::int64_t new_parent_id);

    /**
     * Deterministically corrupts @p id's snapshot blob (evicting the
     * session first when live) — the "poison" arm of the shard-fault
     * model, where a failing shard damages resident state rather than
     * just wedging. Counted corruptionsInjected, so the soak's
     * detected==injected ledger covers poisons like any other
     * snapshot corruption. Returns false without touching anything
     * for quarantined or fallback-pinned sessions and for blobs the
     * fault layer already corrupted (re-flipping could cancel the
     * first corruption); fatal for removed ids.
     */
    bool poisonSession(core::Index id, std::uint64_t key);

    /**
     * Evicts least-recently-used live sessions — then, if still over
     * budget, cold prefix donors (prefixIsCold) — until residentBytes()
     * fits the budget. The most-recently-used session is never
     * evicted, so a budget smaller than one session degrades to
     * one-resident-at-a-time serving instead of livelock. Returns the
     * residentBytes() total the pass ends with.
     *
     * Cost: O(1) when the total is within budget (or there is no
     * budget). Only an over-budget pass collects and sorts the live
     * sessions by recency, and it re-reads the running total after
     * each eviction.
     */
    std::size_t enforceBudget();

    /** Sum of live sessions' stateBytes() (walks every page). */
    std::size_t liveStateBytes() const;

    /** Sum of evicted sessions' blob sizes (a running total). */
    std::size_t evictedBlobBytes() const;

    /**
     * Every resident byte of session state, in O(1): the arena's live
     * pages plus the heap bytes every session posts to it
     * (DecodeSession::heapBytes(); a fork donor adds its shared code
     * indexes). The model (weights + LSH) is excluded — it is fixed
     * serving cost, reported separately in stats().
     *
     * It equals walkedResidentBytes() whenever every session alive on
     * the arena is one of this manager's live sessions or resident
     * donors, which holds at every flush boundary. It counts, and the
     * walk does not, a session still owned elsewhere: one that
     * createSession(tokens) is prefilling outside the lock, and one
     * that removeSession() handed back but the caller has not dropped
     * yet.
     */
    std::size_t residentBytes() const;

    /**
     * The test oracle of residentBytes(), recomputed by walking every
     * page: live sessions' private bytes (DecodeSession::stateBytes)
     * + resident prefix donors (private bytes + shared code indexes)
     * + arena pages shared by two or more owners.
     */
    std::size_t walkedResidentBytes() const;

    /** Prefixes ever registered by forkSession(). */
    core::Index prefixCount() const;

    /** True when prefix @p id's donor is resident. */
    bool isPrefixLive(std::int64_t id) const;

    /**
     * Evicts prefix @p id's donor to a blob if it is resident and
     * cold (no live session forked from it or still caching it as its
     * frozen donor, no resident child prefix); returns true when it
     * evicted. Exposed for tests; the budget path calls it
     * automatically.
     */
    bool evictPrefixIfCold(std::int64_t id);

    std::size_t memBudgetBytes() const { return memBudgetBytes_; }

    /** Consistent summary of counts, byte totals and the submit and
     *  flush accounting. */
    SessionManagerStats stats() const;

    const ServeConfig &config() const { return config_; }

    core::Index tokenDim() const { return tokenDim_; }

    /** The page arena every session of this manager allocates from. */
    const core::PageArena &arena() const { return *arena_; }

    /** Queues one decode step (copies @p token). Fatal on any
     *  rejection — use trySubmit() to shed load instead. */
    void submit(core::Index session, std::span<const core::Real> token);

    /**
     * Admission-controlled submit: returns QueueFull when the bounded
     * queue is at capacity, SessionRemoved when the target session
     * was removed, Corrupted when it was quarantined over a corrupt
     * snapshot, and DeadlineExpired when @p deadline had already
     * passed at submission (dead-on-arrival work never occupies a
     * queue slot) — instead of aborting. Out-of-range ids are still
     * fatal (caller bug, not load). @p deadline: steps not *started*
     * by then come back Expired from the flush.
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
     * Runs every queued step — per-session sequential, cross-session
     * parallel on @p pool — and returns outputs in submission order.
     * Steps past their deadline come back Expired; the steps of a
     * session whose snapshot fails integrity checks at restore time
     * come back Corrupted, and the other sessions are unaffected.
     *
     * Equivalent to beginFlush() + resolveFlush() + runPlanTask()
     * over every task on @p pool + finishFlush().
     */
    std::vector<StepResult>
    flush(core::ThreadPool &pool = core::ThreadPool::global());

    /**
     * Flush phase 1a: drains the pending queue and groups it per
     * session, noting whether any session with work is evicted
     * (FlushPlan::needsRestore()).
     */
    FlushPlan beginFlush();

    /**
     * Flush phase 1b: resolves every session of @p plan to a live
     * pointer, in session order — evicted sessions restore here, so
     * LRU ticks and eviction decisions are thread-count-invariant.
     * Must run exactly once per plan, before any runPlanTask().
     */
    void resolveFlush(FlushPlan &plan);

    /**
     * Flush phase 2: executes session task @p t of @p plan (all
     * queued steps of one session, in submission order). Takes no
     * lock. Tasks of one plan are mutually independent and may run
     * concurrently; each must run exactly once before finishFlush().
     */
    void runPlanTask(FlushPlan &plan, core::Index t);

    /**
     * Flush phase 3: folds @p plan's expiry/corruption totals into
     * the stats, marks recency in submission order, enforces the
     * budget, and returns the results in submission order with the
     * resident total the budget pass ended at.
     */
    FlushResult finishFlush(FlushPlan &&plan);

    /**
     * Failure-path alternative to runPlanTask()+finishFlush(): the
     * shard wedged after resolveFlush(), so no task of @p plan may
     * run. Every drained step comes back StepStatus::Bounced and no
     * session is stepped, touched or evicted — the sessions' token
     * streams are exactly as if the steps were never dispatched, so
     * the caller can resubmit them (possibly to another shard after
     * failover) without breaking the stream-prefix invariant.
     */
    FlushResult bounceFlush(FlushPlan &&plan);

  private:
    enum class State { Live, Evicted, Removed, Quarantined };

    struct Slot
    {
        State state = State::Live;
        std::unique_ptr<DecodeSession> live;
        std::vector<std::uint8_t> blob;
        std::uint64_t lastUsed = 0; ///< LRU tick (higher = fresher)
        /** Prefix this session was forked from (-1 standalone). */
        std::int64_t prefixId = -1;
        /** The fault layer corrupted this slot's blob at evict time —
         *  ground truth for the detected/silent accounting. */
        bool corruptionInjected = false;
        /** Sticky fault taint carried across evict/restore (the live
         *  session's flag dies with it at eviction). */
        bool taint = false;
    };

    /** One registered shared prefix: the resident donor, or its
     *  serialized snapshot while evicted. */
    struct PrefixEntry
    {
        std::shared_ptr<const SharedPrefix> live;
        std::vector<std::uint8_t> blob;
        core::Index tokens = 0;
        std::uint64_t lastUsed = 0;
    };

    // Every private helper below except makeSession() runs with
    // mutex_ held.

    Slot &slot(core::Index id, const char *verb);
    const Slot &slot(core::Index id, const char *verb) const;

    /** @p id's state; Removed for removed ids and ids never handed
     *  out. */
    State stateLocked(core::Index id) const;

    /** Appends @p slot and returns its id. */
    core::Index pushSlotLocked(Slot slot);

    /** Builds an empty session from the shared model state. */
    std::unique_ptr<DecodeSession> makeSession() const;

    DecodeSession &acquireLocked(core::Index id);
    DecodeSession *tryAcquireLocked(core::Index id);
    void evictLocked(core::Index id);
    bool evictPrefixIfColdLocked(std::int64_t id);
    std::size_t enforceBudgetLocked();
    std::size_t liveStateBytesLocked() const;
    std::size_t residentBytesLocked() const;

    /** Frees @p s's blob and takes it off the evicted-blob total. */
    void dropBlobLocked(Slot &s);

    /** adoptSession()'s non-fatal check of a decoded @p snap that the
     *  source slot recorded under @p source_prefix_id and that lands
     *  here under @p new_prefix_id. */
    bool adoptable(const SessionSnapshot &snap,
                   std::int64_t source_prefix_id,
                   std::int64_t new_prefix_id, std::string *error) const;

    /**
     * Returns prefix @p id's donor, rebuilding it from its blob (and,
     * recursively, its own parent prefix) when evicted. Fatal on a
     * corrupt prefix blob: a prefix underpins many sessions, so
     * losing one is not a single-session quarantine event.
     */
    std::shared_ptr<const SharedPrefix> resolvePrefix(std::int64_t id);

    /** True when no live session is forked from or caches prefix @p
     *  id's donor, and no resident child prefix references it. */
    bool prefixIsCold(std::int64_t id) const;

    /** Publishes byte/count gauges to the obs layer; @p resident is
     *  the current residentBytes(). */
    void publishGauges(std::size_t resident) const;

    /** Counts one rejection for @p reason and bumps the matching
     *  per-reason gauge; returns @p reason. */
    SubmitResult recordRejectionLocked(SubmitResult reason);

    // Immutable after construction: read without the lock.
    std::shared_ptr<const nn::AttentionHeadParams> params_;
    ServeConfig config_;
    std::shared_ptr<const alg::LshParamSet> lsh_;
    std::shared_ptr<core::PageArena> arena_;
    core::Index tokenDim_ = 0;
    std::size_t memBudgetBytes_ = 0;
    std::size_t modelBytes_ = 0;
    core::Index queueCapacity_ = kDefaultQueueCapacity;

    /** Guards everything below. */
    mutable std::mutex mutex_;
    /** The slot of every id handed out and not removed: a removed id
     *  keeps no entry, so a long-running manager's footprint follows
     *  its sessions, not every id it ever created. */
    std::unordered_map<core::Index, Slot> slots_;
    core::Index nextId_ = 0; ///< ids handed out so far
    std::vector<PrefixEntry> prefixes_;
    std::vector<Pending> pending_;
    std::uint64_t tick_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t restores_ = 0;
    std::uint64_t forks_ = 0;
    std::uint64_t prefixEvictions_ = 0;
    std::uint64_t prefixRestores_ = 0;
    std::uint64_t corruptionsInjected_ = 0;
    std::uint64_t corruptionsDetected_ = 0;
    std::uint64_t corruptionsSilent_ = 0;
    /** Sum of evicted sessions' blob capacities, kept as they change. */
    std::size_t evictedBlobBytes_ = 0;
    SubmitRejections rejections_;
    std::uint64_t expiredSteps_ = 0;
    std::uint64_t corruptedSteps_ = 0;
    std::uint64_t bouncedSteps_ = 0;
};

} // namespace cta::serve
