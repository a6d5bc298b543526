#include "serve/frontend.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/env.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "fault/fault.h"
#include "obs/trace.h"

namespace cta::serve {

using core::Index;

namespace {

constexpr Index kDefaultShards = 4;
constexpr Index kMaxShards = 256;
constexpr Index kDefaultTenantQuota = 1024;
constexpr Index kDefaultShardFailAfter = 3;
constexpr double kDefaultRetryBase = 1e-3;
constexpr double kDefaultRetryMax = 1.0;

/** Cap on backoff doublings — past this the hint is saturated at
 *  retryMax anyway and 2^streak would overflow. */
constexpr std::uint64_t kMaxBackoffDoublings = 40;

} // namespace

const char *
toString(ShardHealth health)
{
    switch (health) {
    case ShardHealth::Healthy:
        return "Healthy";
    case ShardHealth::Degraded:
        return "Degraded";
    case ShardHealth::Failed:
        return "Failed";
    }
    return "?";
}

Index
ServeFrontend::shardsFromEnv()
{
    const auto parsed = core::envInt("CTA_SHARDS");
    if (!parsed)
        return kDefaultShards;
    CTA_REQUIRE(*parsed > 0 && *parsed <= kMaxShards,
                "CTA_SHARDS must be in [1, ", kMaxShards, "], got ",
                *parsed);
    return static_cast<Index>(*parsed);
}

Index
ServeFrontend::tenantQuotaFromEnv()
{
    const auto parsed = core::envInt("CTA_TENANT_QUOTA");
    if (!parsed)
        return kDefaultTenantQuota;
    CTA_REQUIRE(*parsed > 0,
                "CTA_TENANT_QUOTA must be a positive step quota, "
                "got ",
                *parsed);
    return static_cast<Index>(*parsed);
}

Index
ServeFrontend::shardFailAfterFromEnv()
{
    const auto parsed = core::envInt("CTA_SHARD_FAIL_AFTER");
    if (!parsed)
        return kDefaultShardFailAfter;
    CTA_REQUIRE(*parsed > 0,
                "CTA_SHARD_FAIL_AFTER must be a positive failure "
                "threshold, got ",
                *parsed);
    return static_cast<Index>(*parsed);
}

double
ServeFrontend::retryBaseFromEnv()
{
    const auto parsed = core::envReal("CTA_RETRY_BASE");
    if (!parsed)
        return kDefaultRetryBase;
    CTA_REQUIRE(*parsed > 0,
                "CTA_RETRY_BASE must be a positive backoff base in "
                "seconds, got ",
                *parsed);
    return *parsed;
}

double
ServeFrontend::retryMaxFromEnv()
{
    const auto parsed = core::envReal("CTA_RETRY_MAX");
    if (!parsed)
        return kDefaultRetryMax;
    CTA_REQUIRE(*parsed > 0,
                "CTA_RETRY_MAX must be a positive backoff cap in "
                "seconds, got ",
                *parsed);
    return *parsed;
}

ServeFrontend::ServeFrontend(nn::AttentionHeadParams params,
                             ServeConfig config, Index token_dim,
                             FrontendConfig frontend)
    : defaultQuota_(tenantQuotaFromEnv()),
      drrQuantumScale_(frontend.drrQuantumScale),
      maxDispatchPerFlush_(frontend.maxDispatchPerFlush),
      shardFailAfter_(frontend.shardFailAfter == 0
                          ? shardFailAfterFromEnv()
                          : frontend.shardFailAfter),
      retryBase_(frontend.retryBaseSeconds == 0
                     ? retryBaseFromEnv()
                     : frontend.retryBaseSeconds),
      retryMax_(frontend.retryMaxSeconds == 0 ? retryMaxFromEnv()
                                              : frontend.retryMaxSeconds),
      pool_(frontend.pool)
{
    const Index shards =
        frontend.shards == 0 ? shardsFromEnv() : frontend.shards;
    CTA_REQUIRE(shards > 0 && shards <= kMaxShards,
                "shard count must be in [1, ", kMaxShards, "], got ",
                shards);
    CTA_REQUIRE(drrQuantumScale_ > 0,
                "drrQuantumScale must be positive, got ",
                drrQuantumScale_);
    CTA_REQUIRE(maxDispatchPerFlush_ > 0,
                "maxDispatchPerFlush must be positive, got ",
                maxDispatchPerFlush_);
    CTA_REQUIRE(shardFailAfter_ > 0,
                "shardFailAfter must be positive, got ",
                shardFailAfter_);
    CTA_REQUIRE(retryBase_ > 0, "retryBaseSeconds must be positive, "
                                "got ",
                retryBase_);
    CTA_REQUIRE(retryMax_ >= retryBase_,
                "retryMaxSeconds (", retryMax_,
                ") must be at least retryBaseSeconds (", retryBase_,
                ")");
    // The byte budget is global intent, enforced per shard: the split
    // keeps every shard independently bounded without any cross-shard
    // coordination on the flush path, and the first budget % shards
    // shards take one extra byte so the per-shard budgets sum to the
    // global budget *exactly* — an even split would silently leak up
    // to shards-1 bytes of the operator's stated limit. 0 stays
    // unlimited; a budget too small to give every shard a byte is a
    // configuration error, not a clamp.
    std::vector<std::size_t> budgets(static_cast<std::size_t>(shards),
                                     0);
    if (frontend.memBudgetBytes > 0) {
        CTA_REQUIRE(frontend.memBudgetBytes >=
                        static_cast<std::size_t>(shards),
                    "memBudgetBytes (", frontend.memBudgetBytes,
                    ") must be at least the shard count (", shards,
                    ") so every shard gets a nonzero budget");
        const std::size_t base =
            frontend.memBudgetBytes /
            static_cast<std::size_t>(shards);
        const std::size_t extra =
            frontend.memBudgetBytes %
            static_cast<std::size_t>(shards);
        for (std::size_t s = 0; s < budgets.size(); ++s)
            budgets[s] = base + (s < extra ? 1 : 0);
    }
    shards_.reserve(static_cast<std::size_t>(shards));
    for (Index s = 0; s < shards; ++s) {
        Shard shard;
        shard.manager = std::make_unique<SessionManager>(
            params, config, token_dim,
            budgets[static_cast<std::size_t>(s)]);
        shard.batcher = std::make_unique<Batcher>(
            *shard.manager, pool_, frontend.queueCapPerShard);
        shard.stateGauge = &obs::gauge(obs::labeled(
            "serve.shard.state", "shard", std::to_string(s)));
        shard.stateGauge->set(
            static_cast<double>(ShardHealth::Healthy));
        shards_.push_back(std::move(shard));
    }
}

core::ThreadPool &
ServeFrontend::pool() const
{
    return pool_ ? *pool_ : core::ThreadPool::global();
}

Index
ServeFrontend::registerTenant(TenantConfig config)
{
    CTA_REQUIRE(!config.name.empty(), "tenant name must be non-empty");
    CTA_REQUIRE(config.weight > 0,
                "tenant '", config.name,
                "' needs a positive DRR weight, got ", config.weight);
    for (const Tenant &t : tenants_)
        CTA_REQUIRE(t.config.name != config.name, "tenant name '",
                    config.name, "' already registered");
    if (config.maxQueued == 0)
        config.maxQueued = defaultQuota_;
    CTA_REQUIRE(config.maxQueued > 0, "tenant '", config.name,
                "' needs a positive quota, got ", config.maxQueued);
    Tenant tenant;
    tenant.config = std::move(config);
    // Registry references stay valid for the process lifetime, so
    // caching them here keeps the flush path free of registry locks.
    const std::string &name = tenant.config.name;
    tenant.waitMax = &obs::gauge(
        obs::labeled("serve.queue_wait_max_s", "tenant", name));
    tenant.waitTotal = &obs::gauge(
        obs::labeled("serve.queue_wait_total_s", "tenant", name));
    tenant.latencyMax = &obs::gauge(
        obs::labeled("serve.latency_max_s", "tenant", name));
    tenant.shed =
        &obs::gauge(obs::labeled("serve.shed_steps", "tenant", name));
    tenant.shedRemoved = &obs::gauge(
        obs::labeled("serve.shed.removed", "tenant", name));
    tenant.shedCorrupted = &obs::gauge(
        obs::labeled("serve.shed.corrupted", "tenant", name));
    tenant.shedBounced = &obs::gauge(
        obs::labeled("serve.shed.bounced", "tenant", name));
    tenant.shedFenced = &obs::gauge(
        obs::labeled("serve.shed.fenced", "tenant", name));
    tenants_.push_back(std::move(tenant));
    return static_cast<Index>(tenants_.size()) - 1;
}

const ServeFrontend::Tenant &
ServeFrontend::tenant(Index id) const
{
    CTA_REQUIRE(id >= 0 &&
                    id < static_cast<Index>(tenants_.size()),
                "tenant id ", id, " out of range [0, ",
                tenants_.size(), ")");
    return tenants_[static_cast<std::size_t>(id)];
}

void
ServeFrontend::shedLocked(Tenant &t, ShedReason reason,
                          std::uint64_t count)
{
    if (count == 0)
        return;
    const double delta = static_cast<double>(count);
    switch (reason) {
    case ShedReason::Removed:
        t.counters.shedRemoved += count;
        t.shedRemoved->add(delta);
        break;
    case ShedReason::Corrupted:
        t.counters.shedCorrupted += count;
        t.shedCorrupted->add(delta);
        break;
    case ShedReason::Bounced:
        t.counters.shedBounced += count;
        t.shedBounced->add(delta);
        break;
    case ShedReason::Fenced:
        t.counters.shedFenced += count;
        t.shedFenced->add(delta);
        break;
    }
    // The legacy total gauge keeps counting every shed (these four
    // plus quota/deadline/expiry) — dashboards keyed on it keep
    // working; the per-reason gauges sum to the shedDispatch() part.
    t.shed->add(delta);
}

double
ServeFrontend::retryHintLocked(Tenant &t)
{
    ++t.rejectStreak;
    const int doublings = static_cast<int>(std::min<std::uint64_t>(
        t.rejectStreak - 1, kMaxBackoffDoublings));
    return std::min(retryMax_, std::ldexp(retryBase_, doublings));
}

Index
ServeFrontend::pickShardLocked()
{
    // Health- and load-aware placement: the non-Failed shard with the
    // fewest resident bytes, ties broken by placements since the last
    // flush (so burst creations between flushes still spread out) and
    // then by shard index. Every input is a pure function of the
    // observable event order, so placement is deterministic.
    Index best = -1;
    std::size_t bestLoad = 0;
    std::uint64_t bestPlaced = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const Shard &shard = shards_[s];
        if (shard.stats.health == ShardHealth::Failed)
            continue;
        if (best >= 0 &&
            !(shard.loadBytes < bestLoad ||
              (shard.loadBytes == bestLoad &&
               shard.placements < bestPlaced)))
            continue;
        best = static_cast<Index>(s);
        bestLoad = shard.loadBytes;
        bestPlaced = shard.placements;
    }
    CTA_REQUIRE(best >= 0,
                "every shard is Failed — recoverShard() one before "
                "creating sessions");
    ++shards_[static_cast<std::size_t>(best)].placements;
    return best;
}

Index
ServeFrontend::createSession(Index tenant_id)
{
    tenant(tenant_id); // range check
    std::lock_guard<std::mutex> lock(mutex_);
    SessionRef ref;
    ref.shard = pickShardLocked();
    ref.tenant = tenant_id;
    ref.local = shards_[static_cast<std::size_t>(ref.shard)]
                    .manager->createSession();
    sessions_.push_back(ref);
    return static_cast<Index>(sessions_.size()) - 1;
}

Index
ServeFrontend::createSession(Index tenant_id,
                             const core::Matrix &tokens)
{
    tenant(tenant_id); // range check
    std::lock_guard<std::mutex> lock(mutex_);
    SessionRef ref;
    ref.shard = pickShardLocked();
    ref.tenant = tenant_id;
    ref.local = shards_[static_cast<std::size_t>(ref.shard)]
                    .manager->createSession(tokens);
    sessions_.push_back(ref);
    return static_cast<Index>(sessions_.size()) - 1;
}

Index
ServeFrontend::forkSession(Index parent)
{
    std::lock_guard<std::mutex> lock(mutex_);
    CTA_REQUIRE(parent >= 0 &&
                    parent < static_cast<Index>(sessions_.size()),
                "session id ", parent, " out of range [0, ",
                sessions_.size(), ")");
    const SessionRef &p =
        sessions_[static_cast<std::size_t>(parent)];
    CTA_REQUIRE(!p.removed, "cannot fork removed session ", parent);
    CTA_REQUIRE(!p.corrupted, "cannot fork quarantined session ",
                parent);
    // The child shares the parent's state pages copy-on-write, which
    // only works inside one manager — so the fork overrides placement
    // and lands on the parent's shard, fence and all.
    Shard &shard = shards_[static_cast<std::size_t>(p.shard)];
    SessionRef ref;
    ref.shard = p.shard;
    ref.tenant = p.tenant;
    ref.local = shard.manager->forkSession(p.local);
    ++shard.placements;
    sessions_.push_back(ref);
    return static_cast<Index>(sessions_.size()) - 1;
}

Admission
ServeFrontend::admit(Index session,
                     std::span<const core::Real> token,
                     std::chrono::steady_clock::time_point deadline)
{
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    CTA_REQUIRE(session >= 0 &&
                    session < static_cast<Index>(sessions_.size()),
                "session id ", session, " out of range [0, ",
                sessions_.size(), ")");
    const SessionRef &ref =
        sessions_[static_cast<std::size_t>(session)];
    Tenant &t = tenants_[static_cast<std::size_t>(ref.tenant)];
    ++t.counters.submitted;
    if (ref.removed) {
        shedLocked(t, ShedReason::Removed);
        return {SubmitResult::SessionRemoved, 0};
    }
    if (ref.corrupted) {
        shedLocked(t, ShedReason::Corrupted);
        return {SubmitResult::Corrupted, 0};
    }
    // A session on a Failed shard is fenced, not gone: reject with a
    // backoff hint instead of a terminal verdict, so callers park the
    // request rather than abandoning the session.
    if (shards_[static_cast<std::size_t>(ref.shard)].stats.health ==
        ShardHealth::Failed) {
        shedLocked(t, ShedReason::Fenced);
        return {SubmitResult::ShardFenced, retryHintLocked(t)};
    }
    // Same dead-on-arrival rule as Batcher::trySubmit — a step whose
    // deadline passed can never complete, so it must not consume the
    // tenant's quota.
    if (deadline != Batcher::kNoDeadline && now >= deadline) {
        ++t.counters.shedDeadline;
        t.shed->add(1.0);
        return {SubmitResult::DeadlineExpired, 0};
    }
    if (static_cast<Index>(t.queue.size()) >= t.config.maxQueued) {
        ++t.counters.shedQuota;
        t.shed->add(1.0);
        return {SubmitResult::QuotaExceeded, retryHintLocked(t)};
    }
    QueuedStep step;
    step.session = session;
    step.token.assign(token.begin(), token.end());
    step.submitted = now;
    step.deadline = deadline;
    t.queue.push_back(std::move(step));
    ++t.counters.admitted;
    t.rejectStreak = 0;
    return {SubmitResult::Accepted, 0};
}

void
ServeFrontend::dispatchLocked()
{
    const auto now = std::chrono::steady_clock::now();
    const std::size_t n = tenants_.size();
    // A tenant whose head step bounced off a full shard queue (or a
    // fenced shard) is done for this flush: its queue is FIFO and the
    // head must not be skipped, so the whole round stops at it
    // (deficit kept).
    std::vector<char> blocked(n, 0);
    // An idle tenant banks nothing: deficit is a claim on *queued*
    // work, and letting it accumulate while idle would let a tenant
    // burst far past its weight later (classic DRR rule).
    for (Tenant &t : tenants_)
        if (t.queue.empty())
            t.deficit = 0;

    Index total = 0;
    while (total < maxDispatchPerFlush_) {
        // Bank one quantum per backlogged tenant, then spend in
        // round-robin passes. Re-banking until the cap (or the
        // backlog) runs out makes the loop work-conserving: a lone
        // tenant is not throttled to one quantum per flush.
        bool banked = false;
        for (std::size_t i = 0; i < n; ++i) {
            Tenant &t = tenants_[i];
            if (!t.queue.empty() && !blocked[i]) {
                t.deficit += static_cast<std::uint64_t>(
                                 t.config.weight) *
                             static_cast<std::uint64_t>(
                                 drrQuantumScale_);
                banked = true;
            }
        }
        if (!banked)
            break;
        bool progress = false;
        for (std::size_t i = 0; i < n; ++i) {
            Tenant &t = tenants_[i];
            while (t.deficit > 0 && !t.queue.empty() && !blocked[i] &&
                   total < maxDispatchPerFlush_) {
                QueuedStep &head = t.queue.front();
                SessionRef &ref = sessions_[static_cast<std::size_t>(
                    head.session)];
                Shard &shard =
                    shards_[static_cast<std::size_t>(ref.shard)];
                // A session removed after admission sheds its queued
                // steps here; sheds cost no deficit — a tenant is not
                // billed for work that never ran.
                if (ref.removed) {
                    shedLocked(t, ShedReason::Removed);
                    t.queue.pop_front();
                    progress = true;
                    continue;
                }
                // A fenced shard is temporary: hold at the head like
                // QueueFull (the step stays queued for after
                // recovery) instead of shedding terminal work.
                if (shard.stats.health == ShardHealth::Failed) {
                    blocked[i] = 1;
                    break;
                }
                const SubmitResult result = shard.batcher->trySubmit(
                    ref.local, head.token, head.deadline);
                if (result == SubmitResult::QueueFull) {
                    blocked[i] = 1;
                    break;
                }
                if (result == SubmitResult::Accepted) {
                    DispatchTag tag;
                    tag.session = head.session;
                    tag.tenant = static_cast<Index>(i);
                    tag.submitted = head.submitted;
                    tag.waitSeconds =
                        std::chrono::duration<double>(now -
                                                      head.submitted)
                            .count();
                    if (obs::traceEnabled()) {
                        t.waitMax->max(tag.waitSeconds);
                        t.waitTotal->add(tag.waitSeconds);
                    }
                    shard.inflight.push_back(tag);
                    --t.deficit;
                    ++t.counters.dispatched;
                    ++total;
                } else if (result == SubmitResult::DeadlineExpired) {
                    // Expired while queued at the front-end.
                    ++t.counters.expired;
                    t.shed->add(1.0);
                } else if (result == SubmitResult::Corrupted) {
                    ref.corrupted = true;
                    ++t.counters.corrupted;
                    shedLocked(t, ShedReason::Corrupted);
                } else {
                    // SessionRemoved: removed behind the front-end's
                    // back (direct batcher access).
                    ref.removed = true;
                    shedLocked(t, ShedReason::Removed);
                }
                t.queue.pop_front(); // dispatched or shed either way
                progress = true;
            }
        }
        if (!progress)
            break;
    }
}

std::vector<Completion>
ServeFrontend::flushOnce()
{
    CTA_TRACE_SCOPE("serve.frontend_flush");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        dispatchLocked();
    }

    // flushOnce is single-driver by contract, so the ordinal — and
    // with it the whole shard-fault schedule — is deterministic.
    const std::uint64_t ordinal = ++flushOrdinal_;

    // Phase 1 per shard, serially in shard order: drains each shard's
    // queue and restores evicted sessions — the thread-count-
    // invariant part.
    std::vector<Batcher::FlushPlan> plans;
    plans.reserve(shards_.size());
    for (Shard &shard : shards_)
        plans.push_back(shard.batcher->beginFlush());

    // Shard-fault draw: one per (shard, flush ordinal), after the
    // drain so a wedge bounces exactly the steps it would have run.
    // Every draw that fires is one counted flush failure, which is
    // what lets the chaos soak assert detected == injected. A second
    // mix bit (not a second draw) selects the poison arm: the wedge
    // also corrupts the shard's lowest-id eligible resident snapshot,
    // modelling a failing shard damaging state, not just stalling.
    // Failed shards are fenced — nothing was dispatched to them — so
    // they draw nothing until recovery.
    std::vector<char> wedged(shards_.size(), 0);
    {
        // Under mutex_ so the poison's direct manager calls cannot
        // race a concurrent createSession() on the same shard.
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            Shard &shard = shards_[s];
            if (shard.stats.health == ShardHealth::Failed)
                continue;
            const std::uint64_t key =
                (static_cast<std::uint64_t>(s) << 32) ^ ordinal;
            if (!fault::inject(fault::Site::ShardFault, key))
                continue;
            wedged[s] = 1;
            if ((fault::mix(fault::Site::ShardFault,
                            key ^ 0xD15EA5Eull) &
                 1u) != 0) {
                SessionManager &m = *shard.manager;
                for (Index local = 0; local < m.sessionCount();
                     ++local) {
                    if (!m.exists(local))
                        continue;
                    if (m.poisonSession(
                            local,
                            fault::mix(fault::Site::ShardFault,
                                       key ^ 0xB10Bull)))
                        break;
                }
            }
        }
    }

    // Phase 2: every healthy shard's independent session tasks,
    // merged into ONE pool batch — the ticket-claiming workers steal
    // across shards instead of idling at per-shard barriers. Wedged
    // shards contribute nothing; their plans bounce below.
    std::vector<std::pair<Index, Index>> tasks;
    for (std::size_t s = 0; s < plans.size(); ++s) {
        if (wedged[s])
            continue;
        for (Index t = 0; t < plans[s].taskCount(); ++t)
            tasks.emplace_back(static_cast<Index>(s), t);
    }
    if (!tasks.empty())
        pool().run(static_cast<Index>(tasks.size()), [&](Index i) {
            const auto &[s, t] = tasks[static_cast<std::size_t>(i)];
            shards_[static_cast<std::size_t>(s)]
                .batcher->runPlanTask(plans[static_cast<std::size_t>(s)],
                                      t);
        });

    // Phase 3 per shard, serially in shard order: accounting, LRU
    // touches and budget enforcement (or the bounce path for wedged
    // shards), then map slot-indexed results back to global sessions
    // via the dispatch tags (both sides are in shard submission
    // order, so they align one-to-one), then the health transition —
    // including failover the moment a shard crosses the threshold.
    std::vector<Completion> completions;
    const auto doneAt = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard &shard = shards_[s];
        std::vector<StepResult> results =
            wedged[s]
                ? shard.batcher->bounceFlush(std::move(plans[s]))
                : shard.batcher->finishFlush(std::move(plans[s]));
        CTA_REQUIRE(results.size() == shard.inflight.size(),
                    "shard ", s, " returned ", results.size(),
                    " results for ", shard.inflight.size(),
                    " dispatched steps");
        std::uint64_t corruptionsObserved = 0;
        for (std::size_t k = 0; k < results.size(); ++k) {
            const DispatchTag &tag = shard.inflight[k];
            Tenant &t =
                tenants_[static_cast<std::size_t>(tag.tenant)];
            Completion c;
            c.session = tag.session;
            c.tenant = tag.tenant;
            c.shard = static_cast<Index>(s);
            c.status = results[k].status;
            c.queueWaitSeconds = tag.waitSeconds;
            c.output = std::move(results[k].output);
            switch (c.status) {
            case StepStatus::Ok:
                ++t.counters.completed;
                if (obs::traceEnabled())
                    t.latencyMax->max(std::chrono::duration<double>(
                                          doneAt - tag.submitted)
                                          .count());
                break;
            case StepStatus::Expired:
                ++t.counters.expired;
                break;
            case StepStatus::Corrupted:
                ++t.counters.corrupted;
                ++corruptionsObserved;
                sessions_[static_cast<std::size_t>(tag.session)]
                    .corrupted = true;
                break;
            case StepStatus::Bounced:
                // The shard wedged under the step: stream untouched,
                // resubmit safe — a retryable shed, not a loss.
                shedLocked(t, ShedReason::Bounced);
                break;
            }
            completions.push_back(std::move(c));
        }
        shard.inflight.clear();

        // Health state machine. A wedge bumps the consecutive-failure
        // streak (Degraded at one, Failed at shardFailAfter); any
        // clean flush resets the streak back to Healthy. Corruption
        // events accumulate per epoch (cleared only by recovery) —
        // a shard that keeps quarantining sessions is failing even if
        // its flushes complete.
        if (shard.stats.health != ShardHealth::Failed) {
            if (wedged[s]) {
                ++shard.stats.flushFailures;
                ++shard.stats.consecutiveFlushFailures;
            } else {
                shard.stats.consecutiveFlushFailures = 0;
            }
            shard.stats.corruptionEvents += corruptionsObserved;
            shard.corruptionsInEpoch += corruptionsObserved;
            ShardHealth next = ShardHealth::Healthy;
            if (shard.stats.consecutiveFlushFailures >=
                    static_cast<std::uint64_t>(shardFailAfter_) ||
                shard.corruptionsInEpoch >=
                    static_cast<std::uint64_t>(shardFailAfter_))
                next = ShardHealth::Failed;
            else if (shard.stats.consecutiveFlushFailures > 0)
                next = ShardHealth::Degraded;
            setShardHealthLocked(static_cast<Index>(s), next);
            if (next == ShardHealth::Failed) {
                ++shard.stats.failovers;
                CTA_WARN("shard ", s, " failed (",
                         shard.stats.consecutiveFlushFailures,
                         " consecutive wedged flushes, ",
                         shard.corruptionsInEpoch,
                         " corruption events this epoch); failing "
                         "over");
                failoverLocked(static_cast<Index>(s));
            }
        }
    }
    // Refresh the placement load cache now that every manager is
    // quiescent again; the tie-break counters restart with it.
    for (Shard &shard : shards_) {
        shard.loadBytes = shard.manager->residentBytes();
        shard.placements = 0;
    }
    return completions;
}

void
ServeFrontend::setShardHealthLocked(Index s, ShardHealth health)
{
    Shard &shard = shards_[static_cast<std::size_t>(s)];
    shard.stats.health = health;
    shard.stateGauge->set(static_cast<double>(health));
}

void
ServeFrontend::failoverLocked(Index failed)
{
    Shard &src = shards_[static_cast<std::size_t>(failed)];
    SessionManager &srcMgr = *src.manager;
    // Bytes adopted per destination during THIS failover: adopted
    // blobs restore lazily, so they are not in residentBytes() yet —
    // without this the load cache would funnel every migrated session
    // onto one survivor.
    std::vector<std::size_t> adopted(shards_.size(), 0);
    std::map<std::pair<Index, std::int64_t>, std::int64_t> prefixMemo;
    std::uint64_t deferred = 0;
    for (std::size_t g = 0; g < sessions_.size(); ++g) {
        SessionRef &ref = sessions_[g];
        if (ref.shard != failed || ref.removed)
            continue;
        if (!srcMgr.exists(ref.local)) {
            // A quarantined tombstone dropped at an earlier failover
            // of this shard: the manager slot is gone, admission
            // already reports Corrupted, nothing left to migrate.
            continue;
        }
        if (srcMgr.isQuarantined(ref.local)) {
            // Its state is already lost — migrating a tombstone helps
            // nobody. Drop it and let admission report Corrupted.
            srcMgr.removeSession(ref.local);
            if (!ref.corrupted) {
                ref.corrupted = true;
                ++tenants_[static_cast<std::size_t>(ref.tenant)]
                      .counters.corrupted;
            }
            ++src.stats.sessionsDropped;
            continue;
        }
        if (srcMgr.isPinnedResident(ref.local)) {
            // Quality-guard fallback: exact K/V caches are not
            // serializable, so this session cannot re-home. It stays
            // fenced until recoverShard().
            ++deferred;
            continue;
        }
        // Surviving destination with the fewest bytes, counting what
        // this failover already sent it; lowest index wins ties.
        Index dest = -1;
        std::size_t best = 0;
        for (std::size_t d = 0; d < shards_.size(); ++d) {
            if (static_cast<Index>(d) == failed ||
                shards_[d].stats.health == ShardHealth::Failed)
                continue;
            const std::size_t score =
                shards_[d].loadBytes + adopted[d];
            if (dest < 0 || score < best) {
                dest = static_cast<Index>(d);
                best = score;
            }
        }
        if (dest < 0) {
            // Every shard is Failed: nothing to re-home onto. The
            // remaining sessions stay fenced (admission keeps
            // returning ShardFenced with a backoff hint) until a
            // recovery — deferred, not lost.
            deferred += 1;
            CTA_WARN("shard ", failed, " failover deferred: every "
                     "shard is Failed; sessions stay fenced until a "
                     "recovery");
            break;
        }
        Shard &dst = shards_[static_cast<std::size_t>(dest)];
        SessionExport exp = srcMgr.exportSession(ref.local);
        const std::size_t blobBytes = exp.blob.size();
        const std::int64_t newPrefix = migratePrefixLocked(
            failed, dest, exp.prefixId, prefixMemo, adopted);
        const Index newLocal =
            dst.manager->adoptSession(std::move(exp), newPrefix);
        srcMgr.removeSession(ref.local);
        adopted[static_cast<std::size_t>(dest)] += blobBytes;
        ref.shard = dest;
        ref.local = newLocal;
        ++src.stats.sessionsMigratedOut;
        ++dst.stats.sessionsMigratedIn;
        // A blob that arrived corrupt (a poisoned snapshot) is
        // quarantined by adoptSession — mark the ref so admission
        // rejects early. The corruption charges the *source* shard's
        // fault domain, not the destination's epoch.
        if (dst.manager->isQuarantined(newLocal) && !ref.corrupted) {
            ref.corrupted = true;
            ++tenants_[static_cast<std::size_t>(ref.tenant)]
                  .counters.corrupted;
        }
    }
    CTA_OBS_COUNT("serve.shard.failovers", 1);
    if (deferred > 0)
        CTA_OBS_COUNT("serve.shard.deferred_sessions", deferred);
}

std::int64_t
ServeFrontend::migratePrefixLocked(
    Index src, Index dst, std::int64_t id,
    std::map<std::pair<Index, std::int64_t>, std::int64_t> &memo,
    std::vector<std::size_t> &adopted)
{
    if (id < 0)
        return -1;
    const auto key = std::make_pair(dst, id);
    if (const auto it = memo.find(key); it != memo.end())
        return it->second;
    PrefixExport exp =
        shards_[static_cast<std::size_t>(src)].manager->exportPrefix(
            id);
    // Root-first: the donor's own parent must exist on the
    // destination before the donor's blob can reference it.
    const std::int64_t parent =
        migratePrefixLocked(src, dst, exp.parentId, memo, adopted);
    const std::size_t blobBytes = exp.blob.size();
    const std::int64_t newId =
        shards_[static_cast<std::size_t>(dst)].manager->adoptPrefix(
            std::move(exp), parent);
    adopted[static_cast<std::size_t>(dst)] += blobBytes;
    ++shards_[static_cast<std::size_t>(dst)]
          .stats.prefixesMigratedIn;
    memo[key] = newId;
    return newId;
}

void
ServeFrontend::failShard(Index s)
{
    std::lock_guard<std::mutex> lock(mutex_);
    CTA_REQUIRE(s >= 0 && s < shardCount(), "shard id ", s,
                " out of range [0, ", shardCount(), ")");
    Shard &shard = shards_[static_cast<std::size_t>(s)];
    CTA_REQUIRE(shard.stats.health != ShardHealth::Failed, "shard ",
                s, " is already Failed");
    setShardHealthLocked(s, ShardHealth::Failed);
    ++shard.stats.failovers;
    failoverLocked(s);
}

void
ServeFrontend::recoverShard(Index s)
{
    std::lock_guard<std::mutex> lock(mutex_);
    CTA_REQUIRE(s >= 0 && s < shardCount(), "shard id ", s,
                " out of range [0, ", shardCount(), ")");
    Shard &shard = shards_[static_cast<std::size_t>(s)];
    CTA_REQUIRE(shard.stats.health == ShardHealth::Failed, "shard ",
                s, " is ", toString(shard.stats.health),
                "; only a Failed shard can recover");
    shard.stats.consecutiveFlushFailures = 0;
    shard.corruptionsInEpoch = 0;
    ++shard.stats.recoveries;
    setShardHealthLocked(s, ShardHealth::Healthy);
    // Fresh load snapshot so the recovered (usually near-empty) shard
    // starts absorbing placements immediately.
    shard.loadBytes = shard.manager->residentBytes();
    shard.placements = 0;
    CTA_OBS_COUNT("serve.shard.recoveries", 1);
}

ShardHealth
ServeFrontend::shardHealth(Index s) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CTA_REQUIRE(s >= 0 && s < shardCount(), "shard id ", s,
                " out of range [0, ", shardCount(), ")");
    return shards_[static_cast<std::size_t>(s)].stats.health;
}

ShardStats
ServeFrontend::shardStats(Index s) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CTA_REQUIRE(s >= 0 && s < shardCount(), "shard id ", s,
                " out of range [0, ", shardCount(), ")");
    return shards_[static_cast<std::size_t>(s)].stats;
}

void
ServeFrontend::removeSession(Index session)
{
    std::lock_guard<std::mutex> lock(mutex_);
    CTA_REQUIRE(session >= 0 &&
                    session < static_cast<Index>(sessions_.size()),
                "session id ", session, " out of range [0, ",
                sessions_.size(), ")");
    SessionRef &ref = sessions_[static_cast<std::size_t>(session)];
    CTA_REQUIRE(!ref.removed, "session ", session,
                " was already removed");
    ref.removed = true;
    Tenant &t = tenants_[static_cast<std::size_t>(ref.tenant)];
    // Drop this session's queued-but-undispatched steps; steps
    // already inside the shard batcher are purged by its own
    // removeSession below.
    const std::size_t before = t.queue.size();
    t.queue.erase(std::remove_if(t.queue.begin(), t.queue.end(),
                                 [session](const QueuedStep &q) {
                                     return q.session == session;
                                 }),
                  t.queue.end());
    shedLocked(t, ShedReason::Removed,
               static_cast<std::uint64_t>(before - t.queue.size()));
    shards_[static_cast<std::size_t>(ref.shard)]
        .batcher->removeSession(ref.local);
}

Index
ServeFrontend::sessionCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<Index>(sessions_.size());
}

Index
ServeFrontend::tenantOf(Index session) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CTA_REQUIRE(session >= 0 &&
                    session < static_cast<Index>(sessions_.size()),
                "session id ", session, " out of range [0, ",
                sessions_.size(), ")");
    return sessions_[static_cast<std::size_t>(session)].tenant;
}

Index
ServeFrontend::shardOf(Index session) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CTA_REQUIRE(session >= 0 &&
                    session < static_cast<Index>(sessions_.size()),
                "session id ", session, " out of range [0, ",
                sessions_.size(), ")");
    return sessions_[static_cast<std::size_t>(session)].shard;
}

Index
ServeFrontend::queuedSteps(Index tenant_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<Index>(tenant(tenant_id).queue.size());
}

TenantCounters
ServeFrontend::tenantCounters(Index tenant_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tenant(tenant_id).counters;
}

const SessionManager &
ServeFrontend::manager(Index s) const
{
    CTA_REQUIRE(s >= 0 && s < shardCount(), "shard id ", s,
                " out of range [0, ", shardCount(), ")");
    return *shards_[static_cast<std::size_t>(s)].manager;
}

Batcher &
ServeFrontend::batcher(Index s)
{
    CTA_REQUIRE(s >= 0 && s < shardCount(), "shard id ", s,
                " out of range [0, ", shardCount(), ")");
    return *shards_[static_cast<std::size_t>(s)].batcher;
}

} // namespace cta::serve
