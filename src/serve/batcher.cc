#include "serve/batcher.h"

#include <chrono>
#include <utility>

#include "core/env.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/session_manager.h"

namespace cta::serve {

using core::Index;

const char *
toString(SubmitResult result)
{
    switch (result) {
    case SubmitResult::Accepted:
        return "Accepted";
    case SubmitResult::QueueFull:
        return "QueueFull";
    case SubmitResult::SessionRemoved:
        return "SessionRemoved";
    case SubmitResult::Corrupted:
        return "Corrupted";
    case SubmitResult::DeadlineExpired:
        return "DeadlineExpired";
    case SubmitResult::QuotaExceeded:
        return "QuotaExceeded";
    case SubmitResult::ShardFenced:
        return "ShardFenced";
    }
    return "?";
}

namespace {

Index
resolveQueueCapacity(Index queue_cap)
{
    if (queue_cap == 0)
        return Batcher::queueCapacityFromEnv();
    CTA_REQUIRE(queue_cap > 0, "queue capacity must be positive, got ",
                queue_cap);
    return queue_cap;
}

} // namespace

Batcher::Batcher(SessionManager &manager, core::ThreadPool *pool,
                 Index queue_cap)
    : pool_(pool),
      manager_(manager),
      queueCapacity_(resolveQueueCapacity(queue_cap))
{}

Index
Batcher::queueCapacityFromEnv()
{
    const auto parsed = core::envInt("CTA_QUEUE_CAP");
    if (!parsed)
        return kDefaultQueueCapacity;
    CTA_REQUIRE(*parsed > 0,
                "CTA_QUEUE_CAP must be a positive queue bound, got ",
                *parsed);
    return static_cast<Index>(*parsed);
}

core::ThreadPool &
Batcher::pool() const
{
    return pool_ ? *pool_ : core::ThreadPool::global();
}

Index
Batcher::forkSession(Index parent)
{
    std::lock_guard<std::mutex> lifecycle(sessionsMutex_);
    return manager_.forkSession(parent);
}

Index
Batcher::sessionCount() const
{
    std::lock_guard<std::mutex> lifecycle(sessionsMutex_);
    return manager_.sessionCount();
}

DecodeSession &
Batcher::session(Index id)
{
    std::lock_guard<std::mutex> lifecycle(sessionsMutex_);
    return manager_.acquire(id);
}

void
Batcher::removeSession(Index id)
{
    // Lifecycle first, queue purge second — the same sessionsMutex_
    // -> mutex_ order trySubmit uses, so a concurrent submit either
    // sees the session alive and enqueues before the purge, or sees
    // it removed and rejects; a stale pending step can never survive.
    std::lock_guard<std::mutex> lifecycle(sessionsMutex_);
    manager_.removeSession(id);
    // Drop queued steps for the freed session; re-number the
    // submission slots so flush() results stay dense.
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].session == id)
            continue;
        if (kept != i)
            pending_[kept] = std::move(pending_[i]);
        pending_[kept].slot = kept;
        ++kept;
    }
    pending_.resize(kept);
}

void
Batcher::submit(Index session, std::span<const core::Real> token)
{
    const SubmitResult result = trySubmit(session, token);
    CTA_REQUIRE(result == SubmitResult::Accepted, "submit to session ",
                session, " rejected: ", toString(result),
                " (use trySubmit to shed load)");
}

SubmitResult
Batcher::recordRejectionLocked(SubmitResult reason)
{
    // Shed-load volume is workload/timing dependent; it stays out of
    // the deterministic counter domain and is exported as gauges —
    // one per reason, summing to rejectedSubmits().
    switch (reason) {
    case SubmitResult::QueueFull:
        ++rejections_.queueFull;
        CTA_OBS_GAUGE_ADD("serve.rejected.queue_full", 1.0);
        break;
    case SubmitResult::SessionRemoved:
        ++rejections_.sessionRemoved;
        CTA_OBS_GAUGE_ADD("serve.rejected.session_removed", 1.0);
        break;
    case SubmitResult::Corrupted:
        ++rejections_.corrupted;
        CTA_OBS_GAUGE_ADD("serve.rejected.corrupted", 1.0);
        break;
    case SubmitResult::DeadlineExpired:
        ++rejections_.deadlineExpired;
        CTA_OBS_GAUGE_ADD("serve.rejected.deadline_expired", 1.0);
        break;
    case SubmitResult::Accepted:
    case SubmitResult::QuotaExceeded:
    case SubmitResult::ShardFenced:
        CTA_FATAL("not a Batcher rejection reason: ",
                  toString(reason));
    }
    return reason;
}

SubmitResult
Batcher::trySubmit(Index session, std::span<const core::Real> token,
                   std::chrono::steady_clock::time_point deadline)
{
    const auto now = std::chrono::steady_clock::now();
    // Lifecycle state (the manager slots) is read under
    // sessionsMutex_ and held through the enqueue, so a
    // concurrent removeSession cannot slip between the check and the
    // queue insert (locking order: sessionsMutex_ before mutex_).
    std::lock_guard<std::mutex> lifecycle(sessionsMutex_);
    // Out-of-range is a caller bug, not load — always fatal. A
    // removed session is a normal race with lifecycle management and
    // gets a recoverable rejection.
    CTA_REQUIRE(session >= 0 && session < manager_.sessionCount(),
                "session id ", session, " out of range [0, ",
                manager_.sessionCount(), ")");
    if (!manager_.exists(session)) {
        std::lock_guard<std::mutex> lock(mutex_);
        return recordRejectionLocked(SubmitResult::SessionRemoved);
    }
    if (manager_.isQuarantined(session)) {
        std::lock_guard<std::mutex> lock(mutex_);
        return recordRejectionLocked(SubmitResult::Corrupted);
    }
    // Dead on arrival: a deadline that already passed can only come
    // back Expired from flush(), so admitting it would burn a
    // bounded-queue slot on work that can never run. Rejecting here
    // lets load-shedding react a whole flush earlier.
    if (deadline != kNoDeadline && now >= deadline) {
        std::lock_guard<std::mutex> lock(mutex_);
        return recordRejectionLocked(SubmitResult::DeadlineExpired);
    }
    Pending pending;
    pending.session = session;
    pending.token.assign(token.begin(), token.end());
    pending.submitted = now;
    pending.deadline = deadline;
    std::lock_guard<std::mutex> lock(mutex_);
    if (static_cast<Index>(pending_.size()) >= queueCapacity_)
        return recordRejectionLocked(SubmitResult::QueueFull);
    CTA_OBS_COUNT("serve.submitted", 1);
    pending.slot = pending_.size();
    pending_.push_back(std::move(pending));
    return SubmitResult::Accepted;
}

Index
Batcher::pendingCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<Index>(pending_.size());
}

std::uint64_t
Batcher::rejectedSubmits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rejections_.total();
}

SubmitRejections
Batcher::rejectedSubmitsByReason() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rejections_;
}

std::uint64_t
Batcher::expiredSteps() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return expiredSteps_;
}

std::uint64_t
Batcher::corruptedSteps() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return corruptedSteps_;
}

std::uint64_t
Batcher::bouncedSteps() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bouncedSteps_;
}

Batcher::FlushPlan
Batcher::beginFlush()
{
    FlushPlan plan;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        plan.batch.swap(pending_);
    }
    plan.results.resize(plan.batch.size());
    if (plan.batch.empty())
        return plan;

    // Group by session, preserving submission order within each: a
    // session is sequential state, so its queued steps form one
    // serial task; distinct sessions fan out over the pool.
    std::lock_guard<std::mutex> lifecycle(sessionsMutex_);
    plan.perSession.resize(
        static_cast<std::size_t>(manager_.sessionCount()));
    for (std::size_t i = 0; i < plan.batch.size(); ++i)
        plan.perSession[static_cast<std::size_t>(
                            plan.batch[i].session)]
            .push_back(i);
    for (std::size_t s = 0; s < plan.perSession.size(); ++s) {
        if (plan.perSession[s].empty())
            continue;
        plan.active.push_back(static_cast<Index>(s));
        plan.restoring = plan.restoring ||
                         manager_.isEvicted(static_cast<Index>(s));
    }
    plan.expired.assign(plan.active.size(), 0);
    plan.corrupted.assign(plan.active.size(), 0);
    return plan;
}

void
Batcher::resolveFlush(FlushPlan &plan)
{
    // Resolve every session serially before fanning out: this is
    // where evicted sessions restore, and keeping the restores (and
    // the LRU ticks they take) in one ordered loop per batcher keeps
    // eviction decisions thread-count-invariant. A session whose
    // snapshot fails integrity checks resolves to nullptr
    // (quarantined) and its steps come back Corrupted.
    if (plan.active.empty())
        return;
    std::lock_guard<std::mutex> lifecycle(sessionsMutex_);
    plan.resolved.resize(plan.active.size());
    for (std::size_t t = 0; t < plan.active.size(); ++t)
        plan.resolved[t] = manager_.tryAcquire(plan.active[t]);
}

void
Batcher::runPlanTask(FlushPlan &plan, Index t)
{
    const Index sid = plan.active[static_cast<std::size_t>(t)];
    CTA_TRACE_SCOPE_ID("serve.session_flush", sid);
    DecodeSession *sess = plan.resolved[static_cast<std::size_t>(t)];
    if (sess == nullptr) {
        for (const std::size_t i :
             plan.perSession[static_cast<std::size_t>(sid)]) {
            const Pending &p = plan.batch[i];
            ++plan.corrupted[static_cast<std::size_t>(t)];
            plan.results[p.slot].session = p.session;
            plan.results[p.slot].status = StepStatus::Corrupted;
        }
        return;
    }
    // Once one step misses its deadline, every later step of the
    // same session expires with it: running them anyway would
    // append tokens after a hole and break the stream-prefix
    // invariant.
    bool cascaded = false;
    std::uint64_t ran = 0;
    for (const std::size_t i :
         plan.perSession[static_cast<std::size_t>(sid)]) {
        const Pending &p = plan.batch[i];
        const auto begin = std::chrono::steady_clock::now();
        // Queue wait: submit() to the moment the step would start.
        // Recorded for *every* step — expired ones included, since
        // the longest waits are exactly the ones that cause the
        // expiry and hiding them would blind the overload gauges.
        // Timing-domain, so gauges only (counters stay deterministic
        // across thread counts).
        const double wait =
            std::chrono::duration<double>(begin - p.submitted)
                .count();
        CTA_OBS_GAUGE_MAX("serve.queue_wait_max_s", wait);
        CTA_OBS_GAUGE_ADD("serve.queue_wait_total_s", wait);
        // Queue-delay fault site: a content-keyed draw treats
        // this step as having overstayed its deadline, exercising
        // the expiry cascade without wall-clock flakiness.
        const bool forcedExpiry =
            !cascaded &&
            fault::inject(
                fault::Site::QueueDelay,
                fault::hashBytes(p.token.data(),
                                 p.token.size() *
                                     sizeof(core::Real)) ^
                    static_cast<std::uint64_t>(p.session));
        if (cascaded || forcedExpiry ||
            (p.deadline != kNoDeadline && begin >= p.deadline)) {
            cascaded = true;
            ++plan.expired[static_cast<std::size_t>(t)];
            plan.results[p.slot].session = p.session;
            plan.results[p.slot].status = StepStatus::Expired;
            continue;
        }
        core::Matrix out = sess->step(p.token);
        plan.results[p.slot] =
            StepResult{p.session, StepStatus::Ok, std::move(out)};
        ++ran;
    }
    CTA_OBS_COUNT("serve.flushed", ran);
}

Batcher::FlushResult
Batcher::finishFlush(FlushPlan &&plan)
{
    if (plan.batch.empty()) {
        std::lock_guard<std::mutex> lifecycle(sessionsMutex_);
        const std::size_t resident = manager_.enforceBudget();
        return {std::move(plan.results), resident};
    }

    std::uint64_t expiredTotal = 0;
    for (const std::uint64_t e : plan.expired)
        expiredTotal += e;
    std::uint64_t corruptedTotal = 0;
    for (const std::uint64_t c : plan.corrupted)
        corruptedTotal += c;
    if (expiredTotal > 0)
        CTA_OBS_GAUGE_ADD("serve.expired_steps",
                          static_cast<double>(expiredTotal));
    if (corruptedTotal > 0)
        CTA_OBS_GAUGE_ADD("serve.corrupted_steps",
                          static_cast<double>(corruptedTotal));
    if (expiredTotal > 0 || corruptedTotal > 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        expiredSteps_ += expiredTotal;
        corruptedSteps_ += corruptedTotal;
    }

    // Recency follows submission order — deterministic for any
    // thread count — then the budget pass may evict stragglers.
    std::lock_guard<std::mutex> lifecycle(sessionsMutex_);
    for (const Pending &p : plan.batch)
        manager_.touch(p.session);
    const std::size_t resident = manager_.enforceBudget();
    return {std::move(plan.results), resident};
}

std::vector<StepResult>
Batcher::bounceFlush(FlushPlan &&plan)
{
    // The wedged-shard exit: every drained step is returned Bounced
    // and NOTHING else happens — no step runs, no recency is marked,
    // no budget pass evicts. The sessions are bitwise exactly where
    // they were before dispatch (resolveFlush() may have restored
    // evicted sessions, which is read-repair, not mutation), so the
    // caller may safely resubmit every bounced token.
    for (const Pending &p : plan.batch) {
        plan.results[p.slot].session = p.session;
        plan.results[p.slot].status = StepStatus::Bounced;
    }
    if (!plan.batch.empty()) {
        CTA_OBS_GAUGE_ADD("serve.bounced_steps",
                          static_cast<double>(plan.batch.size()));
        std::lock_guard<std::mutex> lock(mutex_);
        bouncedSteps_ += static_cast<std::uint64_t>(plan.batch.size());
    }
    return std::move(plan.results);
}

std::vector<StepResult>
Batcher::flush()
{
    CTA_TRACE_SCOPE("serve.flush");
    FlushPlan plan = beginFlush();
    resolveFlush(plan);
    if (!plan.empty())
        pool().run(plan.taskCount(),
                   [&](Index t) { runPlanTask(plan, t); });
    return finishFlush(std::move(plan)).results;
}

} // namespace cta::serve
