/**
 * @file
 * Chaos soak: the serve_slo tenant mix driven through shard failures
 * and recoveries, proving the fault-domain machinery end to end
 * (DESIGN.md §4.10).
 *
 * The run has three phases over one sharded ServeFrontend:
 *
 *   A. *Baseline.* Faults disarmed; every session decodes normally,
 *      establishing the per-round completion rate the recovery
 *      assertion is measured against.
 *   B. *Chaos.* fault::Site::ShardFault is armed at a seeded rate, so
 *      flushes wedge (steps bounce, health degrades, shards fail
 *      over) and the poison arm corrupts resident snapshots; on top,
 *      a scheduled operator drain (failShard/recoverShard) guarantees
 *      at least one failover even in a CTA_FAULT=OFF build. Failed
 *      shards recover on a fixed delay. Bounced steps are resubmitted
 *      (their streams are untouched by contract), fenced and
 *      quota-rejected admissions back off and retry.
 *   C. *Drain.* Faults disarmed, every Failed shard recovered, one
 *      probe step appended per surviving session (restoring any
 *      still-evicted poisoned blob, so every injected corruption is
 *      *detected* by the end), and the backlog drained to empty.
 *
 * Every completed step is bit-compared against a never-faulted
 * reference manager replaying the same per-session token sequence.
 * The run fails (exit 1) unless:
 *
 *   - at least one failover happened and every failed shard recovered;
 *   - zero non-quarantined sessions lost work: each surviving session
 *     completed its full target bit-identically;
 *   - detected == injected and silent == 0 across all shards, and
 *     every counted flush failure maps to one ShardFault draw
 *     (with CTA_FAULT=ON);
 *   - the post-recovery completion rate re-converges to at least half
 *     the baseline rate.
 *
 * Results (timeline + ledger + assertions) go to
 * BENCH_chaos_soak.json. `--smoke` shrinks the run for CI.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <vector>

#include "core/matrix.h"
#include "core/rng.h"
#include "fault/fault.h"
#include "nn/attention.h"
#include "nn/workload.h"
#include "serve/frontend.h"
#include "serve/session_manager.h"

namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::Rng;
using cta::serve::Completion;
using cta::serve::ServeFrontend;
using cta::serve::ShardHealth;
using cta::serve::StepStatus;
using cta::serve::SubmitResult;

constexpr Index kTokenDim = 32;
constexpr Index kHeadDim = 32;
constexpr Index kShards = 4;
constexpr Index kWindow = 4; ///< max in-flight steps per session

Matrix
clusteredTokens(Index n, std::uint64_t seed)
{
    cta::nn::WorkloadProfile profile;
    profile.seqLen = n;
    profile.tokenDim = kTokenDim;
    profile.coarseClusters = 20;
    profile.fineClusters = 12;
    cta::nn::WorkloadGenerator gen(profile, seed);
    return gen.sampleTokens();
}

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) *
                           sizeof(cta::core::Real)) == 0;
}

/** One soaked session's driver state. */
struct Driver
{
    Index tenant = 0;
    Index target = 0;        ///< steps this session must complete
    Index nextOrdinal = 0;   ///< next never-submitted step
    Index verified = 0;      ///< Ok steps checked against the ref
    bool dead = false;       ///< quarantined (corrupt snapshot)
    Matrix steps;            ///< target+1 rows (the +1 is the probe)
    std::deque<Index> outstanding; ///< ordinals in flight, FIFO
    std::deque<Index> resubmit;    ///< bounced ordinals, sorted
};

struct RoundStat
{
    int round = 0;
    std::uint64_t ok = 0;
    std::uint64_t bounced = 0;
    Index failedShards = 0;
    double wallMs = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    const int roundsA = smoke ? 6 : 20;
    const int roundsB = smoke ? 30 : 120;
    const int maxRoundsC = 200;
    // One new step per session per round (below), so traffic spans
    // the whole chaos phase and per-round goodput is directly
    // comparable across phases.
    const Index targetSteps =
        static_cast<Index>(roundsA + roundsB - 2);
    const int recoverDelay = smoke ? 4 : 12;
    const int opDrainRound = roundsA + 2;
    const double faultRate = smoke ? 0.15 : 0.08;
    const std::uint64_t faultSeed = 2026;

    cta::fault::setConfig(cta::fault::FaultConfig{}); // disarmed
#ifndef CTA_FAULT_DISABLED
    const bool faultEnabled = true;
    cta::fault::resetInjectionCounters();
#else
    const bool faultEnabled = false;
#endif

    Rng rng(23);
    const auto params = cta::nn::AttentionHeadParams::randomInit(
        kTokenDim, kHeadDim, rng);

    cta::serve::FrontendConfig fc;
    fc.shards = kShards;
    fc.shardFailAfter = 2;
    fc.drrQuantumScale = 8;
    fc.maxDispatchPerFlush = 512;
    fc.memBudgetBytes = 0; // eviction churn is fault_soak's subject
    fc.retryBaseSeconds = 1e-3;
    fc.retryMaxSeconds = 0.25;
    ServeFrontend frontend(params, cta::serve::ServeConfig{},
                           kTokenDim, fc);
    const Index gold = frontend.registerTenant({"gold", 8, 4096});
    const Index bronze = frontend.registerTenant({"bronze", 1, 4096});

    // The serve_slo tenant mix, plus one fork per tenant so failover
    // has prefix chains to migrate. The reference manager mirrors the
    // creation sequence exactly — createSession/forkSession calls in
    // the same order — so reference ids equal front-end ids.
    cta::serve::SessionManager ref(params, cta::serve::ServeConfig{},
                                   kTokenDim, 0);
    std::vector<Driver> drivers;
    const auto addCreated = [&](Index tenant, Index ctxLen,
                                std::uint64_t seed) {
        const Matrix ctx = clusteredTokens(ctxLen, seed);
        const Index id = frontend.createSession(tenant, ctx);
        const Index rid = ref.createSession(ctx);
        CTA_REQUIRE(id == rid, "reference id drift");
        Driver d;
        d.tenant = tenant;
        d.target = targetSteps;
        d.steps = clusteredTokens(targetSteps + 1, seed * 977 + 3);
        drivers.push_back(std::move(d));
        return id;
    };
    const auto addFork = [&](Index parent, std::uint64_t seed) {
        const Index id = frontend.forkSession(parent);
        const Index rid = ref.forkSession(parent);
        CTA_REQUIRE(id == rid, "reference id drift");
        Driver d;
        d.tenant = drivers[static_cast<std::size_t>(parent)].tenant;
        d.target = targetSteps;
        d.steps = clusteredTokens(targetSteps + 1, seed * 977 + 3);
        drivers.push_back(std::move(d));
        return id;
    };
    const Index goldSessions = smoke ? 4 : 8;
    const Index bronzeSessions = smoke ? 8 : 24;
    for (Index i = 0; i < goldSessions; ++i)
        addCreated(gold, 32 + (i % 5) * 16,
                   41 + static_cast<std::uint64_t>(i));
    for (Index i = 0; i < bronzeSessions; ++i)
        addCreated(bronze, 32 + (i % 5) * 16,
                   141 + static_cast<std::uint64_t>(i));
    addFork(0, 900);
    addFork(goldSessions, 901);
    const auto nSessions = static_cast<Index>(drivers.size());

    std::printf("==== chaos soak: shard failure injection + snapshot "
                "failover ====\n\n");
    std::printf("  %lld sessions on %lld shards, %lld steps each; "
                "fault %s (rate %.2f, seed %llu)\n\n",
                static_cast<long long>(nSessions),
                static_cast<long long>(kShards),
                static_cast<long long>(targetSteps),
                faultEnabled ? "armed in phase B" : "compiled out",
                faultRate,
                static_cast<unsigned long long>(faultSeed));

    // ---- soak loop ------------------------------------------------
    std::vector<RoundStat> timeline;
    std::vector<int> failedAtRound(static_cast<std::size_t>(kShards),
                                   -1);
    std::uint64_t fencedRejections = 0;
    std::uint64_t quotaRejections = 0;
    std::uint64_t bouncedTotal = 0;
    std::uint64_t mismatches = 0;
    double maxRetryHint = 0;
    bool opDrainDone = false;
    bool probesAdded = false;
    int endedAtRound = -1;

    for (int round = 0; round < roundsA + roundsB + maxRoundsC;
         ++round) {
        const bool phaseB =
            round >= roundsA && round < roundsA + roundsB;
        const bool phaseC = round >= roundsA + roundsB;
        if (round == roundsA && faultEnabled) {
            cta::fault::FaultConfig armed;
            armed.seed = faultSeed;
            armed.rate = faultRate;
            armed.sites =
                1u << static_cast<unsigned>(
                    cta::fault::Site::ShardFault);
            cta::fault::setConfig(armed);
        }
        if (round == roundsA + roundsB) {
            cta::fault::setConfig(cta::fault::FaultConfig{});
            for (Index s = 0; s < kShards; ++s)
                if (frontend.shardHealth(s) == ShardHealth::Failed) {
                    frontend.recoverShard(s);
                    failedAtRound[static_cast<std::size_t>(s)] = -1;
                }
        }
        // Scheduled recoveries (phase B) and the operator drain that
        // guarantees one failover per run.
        for (Index s = 0; s < kShards; ++s) {
            auto &failedAt = failedAtRound[static_cast<std::size_t>(s)];
            if (frontend.shardHealth(s) == ShardHealth::Failed) {
                if (failedAt < 0)
                    failedAt = round; // wedge-driven, just noticed
                else if (round - failedAt >= recoverDelay) {
                    frontend.recoverShard(s);
                    failedAt = -1;
                }
            } else {
                failedAt = -1;
            }
        }
        if (phaseB && !opDrainDone && round >= opDrainRound &&
            frontend.shardHealth(0) != ShardHealth::Failed) {
            frontend.failShard(0);
            failedAtRound[0] = round;
            opDrainDone = true;
        }
        // Phase C probe: one extra step per survivor restores any
        // still-evicted poisoned snapshot, closing the detection
        // ledger.
        if (phaseC && !probesAdded) {
            for (Driver &d : drivers)
                if (!d.dead)
                    ++d.target;
            probesAdded = true;
        }

        // Submission: bounced resubmits first (FIFO order is the
        // stream order), then new work up to the in-flight window.
        for (Index id = 0; id < nSessions; ++id) {
            Driver &d = drivers[static_cast<std::size_t>(id)];
            if (d.dead)
                continue;
            bool blocked = false;
            while (!blocked && !d.resubmit.empty()) {
                const Index ord = d.resubmit.front();
                const auto verdict =
                    frontend.admit(id, d.steps.row(ord));
                switch (verdict.result) {
                case SubmitResult::Accepted:
                    d.resubmit.pop_front();
                    d.outstanding.push_back(ord);
                    break;
                case SubmitResult::ShardFenced:
                    ++fencedRejections;
                    maxRetryHint = std::max(
                        maxRetryHint, verdict.retryAfterSeconds);
                    blocked = true;
                    break;
                case SubmitResult::QuotaExceeded:
                    ++quotaRejections;
                    blocked = true;
                    break;
                case SubmitResult::Corrupted:
                    d.dead = true;
                    blocked = true;
                    break;
                default:
                    CTA_FATAL("unexpected admission verdict ",
                              cta::serve::toString(verdict.result));
                }
            }
            Index newThisRound = 0;
            while (!blocked && !d.dead && newThisRound < 1 &&
                   static_cast<Index>(d.outstanding.size()) <
                       kWindow &&
                   d.nextOrdinal < d.target) {
                const auto verdict =
                    frontend.admit(id, d.steps.row(d.nextOrdinal));
                switch (verdict.result) {
                case SubmitResult::Accepted:
                    d.outstanding.push_back(d.nextOrdinal++);
                    ++newThisRound;
                    break;
                case SubmitResult::ShardFenced:
                    ++fencedRejections;
                    maxRetryHint = std::max(
                        maxRetryHint, verdict.retryAfterSeconds);
                    blocked = true;
                    break;
                case SubmitResult::QuotaExceeded:
                    ++quotaRejections;
                    blocked = true;
                    break;
                case SubmitResult::Corrupted:
                    d.dead = true;
                    break;
                default:
                    CTA_FATAL("unexpected admission verdict ",
                              cta::serve::toString(verdict.result));
                }
            }
        }

        const auto t0 = std::chrono::steady_clock::now();
        const auto completions = frontend.flushOnce();
        const auto t1 = std::chrono::steady_clock::now();

        RoundStat stat;
        stat.round = round;
        stat.wallMs =
            std::chrono::duration<double>(t1 - t0).count() * 1e3;
        for (const Completion &c : completions) {
            Driver &d = drivers[static_cast<std::size_t>(c.session)];
            switch (c.status) {
            case StepStatus::Ok: {
                CTA_REQUIRE(!d.outstanding.empty(),
                            "completion without an outstanding step");
                const Index ord = d.outstanding.front();
                d.outstanding.pop_front();
                // The bit-identity contract: fences, bounces and
                // migrations may never change a stream.
                const Matrix want =
                    ref.acquire(c.session).step(d.steps.row(ord));
                if (!bitIdentical(c.output, want))
                    ++mismatches;
                ++d.verified;
                ++stat.ok;
                break;
            }
            case StepStatus::Bounced:
                // Wedged flush: the step never ran. Re-queue it ahead
                // of new work; order within the deque stays sorted
                // because bounces pop in FIFO order too.
                CTA_REQUIRE(!d.outstanding.empty(),
                            "bounce without an outstanding step");
                d.resubmit.push_back(d.outstanding.front());
                d.outstanding.pop_front();
                ++stat.bounced;
                ++bouncedTotal;
                break;
            case StepStatus::Corrupted:
                // Quarantined: its snapshot failed integrity checks.
                // The session is terminally lost (and will be dropped
                // at the next failover); everything it verified
                // before stays verified.
                d.dead = true;
                d.outstanding.clear();
                d.resubmit.clear();
                break;
            case StepStatus::Expired:
                CTA_FATAL("no deadlines in this soak; Expired is a "
                          "bug");
            }
        }
        for (Index s = 0; s < kShards; ++s)
            if (frontend.shardHealth(s) == ShardHealth::Failed)
                ++stat.failedShards;
        timeline.push_back(stat);

        if (phaseC) {
            bool done = true;
            for (const Driver &d : drivers)
                if (!d.dead &&
                    (d.verified < d.target ||
                     !d.outstanding.empty() || !d.resubmit.empty()))
                    done = false;
            if (done) {
                endedAtRound = round;
                break;
            }
        }
    }

    // ---- ledger ---------------------------------------------------
    std::uint64_t failovers = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t flushFailures = 0;
    std::uint64_t migratedOut = 0;
    std::uint64_t droppedAtFailover = 0;
    std::uint64_t prefixesMigrated = 0;
    std::uint64_t injected = 0;
    std::uint64_t detected = 0;
    std::uint64_t silent = 0;
    for (Index s = 0; s < kShards; ++s) {
        const auto stats = frontend.shardStats(s);
        failovers += stats.failovers;
        recoveries += stats.recoveries;
        flushFailures += stats.flushFailures;
        migratedOut += stats.sessionsMigratedOut;
        droppedAtFailover += stats.sessionsDropped;
        prefixesMigrated += stats.prefixesMigratedIn;
        const auto mgr = frontend.manager(s).stats();
        injected += mgr.corruptionsInjected;
        detected += mgr.corruptionsDetected;
        silent += mgr.corruptionsSilent;
    }
    const std::uint64_t shardDraws =
        cta::fault::totalInjections(cta::fault::Site::ShardFault);

    Index deadSessions = 0;
    Index lostSessions = 0; // alive but incomplete — must be zero
    std::uint64_t verifiedSteps = 0;
    for (const Driver &d : drivers) {
        verifiedSteps += static_cast<std::uint64_t>(d.verified);
        if (d.dead)
            ++deadSessions;
        else if (d.verified < d.target)
            ++lostSessions;
    }

    // Goodput re-convergence: post-recovery rounds must complete
    // steps at least half as fast (per round) as the baseline phase.
    const auto meanOk = [&](std::size_t lo, std::size_t hi) {
        std::uint64_t sum = 0;
        for (std::size_t i = lo; i < hi && i < timeline.size(); ++i)
            sum += timeline[i].ok;
        return hi > lo ? static_cast<double>(sum) /
                             static_cast<double>(hi - lo)
                       : 0.0;
    };
    const double baselineRate =
        meanOk(1, static_cast<std::size_t>(roundsA)); // skip warmup
    const double recoveredRate =
        meanOk(static_cast<std::size_t>(roundsA + roundsB),
               timeline.size());

    const bool failoverOk = failovers >= 1 && recoveries >= 1;
    const bool noLostWork = lostSessions == 0 && mismatches == 0 &&
                            endedAtRound >= 0;
    const bool ledgerOk =
        !faultEnabled ||
        (flushFailures == shardDraws && detected == injected &&
         silent == 0);
    const bool goodputRecovered =
        recoveredRate >= 0.5 * baselineRate && baselineRate > 0;
    const bool pass =
        failoverOk && noLostWork && ledgerOk && goodputRecovered;

    std::printf("  rounds %zu (drained at %d); failovers %llu, "
                "recoveries %llu, wedged flushes %llu\n",
                timeline.size(), endedAtRound,
                static_cast<unsigned long long>(failovers),
                static_cast<unsigned long long>(recoveries),
                static_cast<unsigned long long>(flushFailures));
    std::printf("  sessions: %lld total, %lld quarantined, %lld "
                "migrated, %lld dropped at failover, %llu prefixes "
                "migrated\n",
                static_cast<long long>(nSessions),
                static_cast<long long>(deadSessions),
                static_cast<long long>(migratedOut),
                static_cast<long long>(droppedAtFailover),
                static_cast<unsigned long long>(prefixesMigrated));
    std::printf("  steps: %llu verified bit-identical, %llu "
                "mismatches, %llu bounced-and-replayed\n",
                static_cast<unsigned long long>(verifiedSteps),
                static_cast<unsigned long long>(mismatches),
                static_cast<unsigned long long>(bouncedTotal));
    std::printf("  admission: %llu fenced rejections (max hint "
                "%.3fs), %llu quota rejections\n",
                static_cast<unsigned long long>(fencedRejections),
                maxRetryHint,
                static_cast<unsigned long long>(quotaRejections));
    std::printf("  corruption ledger: injected %llu, detected %llu, "
                "silent %llu; shard-fault draws %llu\n",
                static_cast<unsigned long long>(injected),
                static_cast<unsigned long long>(detected),
                static_cast<unsigned long long>(silent),
                static_cast<unsigned long long>(shardDraws));
    std::printf("  goodput: baseline %.1f ok/round, post-recovery "
                "%.1f ok/round -> %s\n",
                baselineRate, recoveredRate,
                goodputRecovered ? "re-converged" : "DEGRADED");
    std::printf("\n  %s\n", pass ? "CHAOS SOAK PASSED"
                                 : "CHAOS SOAK FAILED");

    std::FILE *out = std::fopen("BENCH_chaos_soak.json", "w");
    if (!out) {
        std::printf("  [could not open BENCH_chaos_soak.json]\n");
        return 1;
    }
    std::fprintf(
        out,
        "{\n  \"benchmark\": \"chaos_soak\",\n"
        "  \"smoke\": %s,\n"
        "  \"fault_enabled\": %s,\n"
        "  \"fault_rate\": %.3f,\n"
        "  \"fault_seed\": %llu,\n"
        "  \"shards\": %lld,\n"
        "  \"sessions\": %lld,\n"
        "  \"target_steps_per_session\": %lld,\n"
        "  \"rounds\": %zu,\n"
        "  \"failovers\": %llu,\n"
        "  \"recoveries\": %llu,\n"
        "  \"wedged_flushes\": %llu,\n"
        "  \"shard_fault_draws\": %llu,\n"
        "  \"sessions_migrated\": %llu,\n"
        "  \"sessions_dropped_at_failover\": %llu,\n"
        "  \"prefixes_migrated\": %llu,\n"
        "  \"sessions_quarantined\": %lld,\n"
        "  \"sessions_lost\": %lld,\n"
        "  \"steps_verified\": %llu,\n"
        "  \"step_mismatches\": %llu,\n"
        "  \"steps_bounced\": %llu,\n"
        "  \"fenced_rejections\": %llu,\n"
        "  \"quota_rejections\": %llu,\n"
        "  \"max_retry_hint_seconds\": %.4f,\n"
        "  \"corruptions_injected\": %llu,\n"
        "  \"corruptions_detected\": %llu,\n"
        "  \"corruptions_silent\": %llu,\n"
        "  \"baseline_ok_per_round\": %.2f,\n"
        "  \"recovered_ok_per_round\": %.2f,\n"
        "  \"asserts\": {\"failover_happened\": %s, "
        "\"no_lost_work\": %s, \"ledger_balanced\": %s, "
        "\"goodput_recovered\": %s},\n"
        "  \"pass\": %s,\n"
        "  \"timeline\": [\n",
        smoke ? "true" : "false", faultEnabled ? "true" : "false",
        faultRate, static_cast<unsigned long long>(faultSeed),
        static_cast<long long>(kShards),
        static_cast<long long>(nSessions),
        static_cast<long long>(targetSteps), timeline.size(),
        static_cast<unsigned long long>(failovers),
        static_cast<unsigned long long>(recoveries),
        static_cast<unsigned long long>(flushFailures),
        static_cast<unsigned long long>(shardDraws),
        static_cast<unsigned long long>(migratedOut),
        static_cast<unsigned long long>(droppedAtFailover),
        static_cast<unsigned long long>(prefixesMigrated),
        static_cast<long long>(deadSessions),
        static_cast<long long>(lostSessions),
        static_cast<unsigned long long>(verifiedSteps),
        static_cast<unsigned long long>(mismatches),
        static_cast<unsigned long long>(bouncedTotal),
        static_cast<unsigned long long>(fencedRejections),
        static_cast<unsigned long long>(quotaRejections),
        maxRetryHint, static_cast<unsigned long long>(injected),
        static_cast<unsigned long long>(detected),
        static_cast<unsigned long long>(silent), baselineRate,
        recoveredRate, failoverOk ? "true" : "false",
        noLostWork ? "true" : "false", ledgerOk ? "true" : "false",
        goodputRecovered ? "true" : "false",
        pass ? "true" : "false");
    for (std::size_t i = 0; i < timeline.size(); ++i) {
        const RoundStat &r = timeline[i];
        std::fprintf(out,
                     "    {\"round\": %d, \"ok\": %llu, "
                     "\"bounced\": %llu, \"failed_shards\": %lld, "
                     "\"wall_ms\": %.3f}%s\n",
                     r.round,
                     static_cast<unsigned long long>(r.ok),
                     static_cast<unsigned long long>(r.bounced),
                     static_cast<long long>(r.failedShards), r.wallMs,
                     i + 1 < timeline.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("  [data written to BENCH_chaos_soak.json]\n");
    return pass ? 0 : 1;
}
