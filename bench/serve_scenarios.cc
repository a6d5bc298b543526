/**
 * @file
 * Serving scenario harness: one driver for the serving stack's soak
 * claims — bounded memory under a byte budget, bit-identical
 * compressed-attention steps across evict/restore, fork and failover,
 * detected == injected snapshot corruption, and DRR isolation.
 *
 *   serve_scenarios <scenario> [--smoke]
 *
 *   serve_soak    waves of sessions through a budget-bound
 *                 SessionManager + Batcher; asserts the live-byte
 *                 plateau (BENCH_serve_soak.json, mode "classic").
 *   prefix_share  one prompt served standalone vs forked
 *                 copy-on-write at equal budget; twin probes are
 *                 bit-compared across a full cold cycle
 *                 (BENCH_serve_soak.json, mode "prefix_share").
 *   fault_soak    the serve_soak workload run disarmed (reference)
 *                 and armed (CTA_FAULT_*), plus a targeted quarantine
 *                 and an accelerator phase (BENCH_fault_soak.json).
 *   chaos_soak    the tenant mix through shard wedges, failovers and
 *                 recoveries, every step bit-compared against a
 *                 never-faulted reference (BENCH_chaos_soak.json).
 *   serve_slo     the tenant mix under an open-loop trace swept over
 *                 offered load: goodput knee and p99 QoS separation
 *                 (BENCH_serve_slo.json).
 *
 * Each scenario writes its JSON, echoes it to stdout, and exits 1
 * when one of its claims fails, naming the failure on stderr.
 * `--smoke` shrinks every scenario to CI size. CTA_MEM_BUDGET sets
 * the serve_soak, prefix_share and fault_soak byte budgets.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "core/rng.h"
#include "core/stats.h"
#include "cta/error.h"
#include "cta_accel/accelerator.h"
#include "fault/fault.h"
#include "nn/attention.h"
#include "nn/workload.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/frontend.h"
#include "serve/loadgen.h"
#include "serve/session_manager.h"

namespace {

namespace fault = cta::fault;
using cta::core::Index;
using cta::core::Matrix;
using cta::core::Rng;
using cta::nn::AttentionHeadParams;
using cta::serve::Batcher;
using cta::serve::Completion;
using cta::serve::ServeConfig;
using cta::serve::ServeFrontend;
using cta::serve::SessionManager;
using cta::serve::SessionManagerStats;
using cta::serve::ShardHealth;
using cta::serve::StepStatus;
using cta::serve::SubmitResult;

#ifdef CTA_FAULT_DISABLED
constexpr bool kFaultBuild = false;
#else
constexpr bool kFaultBuild = true;
#endif

constexpr Index kTokenDim = 32;

/** @p n tokens of the clustered workload; the lifecycle scenarios
 *  draw from 8 coarse / 6 fine clusters, the tenant mix from 20 / 12.
 */
Matrix
clusteredTokens(Index n, std::uint64_t seed, Index coarse = 8,
                Index fine = 6)
{
    cta::nn::WorkloadProfile profile;
    profile.seqLen = n;
    profile.tokenDim = kTokenDim;
    profile.coarseClusters = coarse;
    profile.fineClusters = fine;
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

std::size_t
at(Index i)
{
    return static_cast<std::size_t>(i);
}

// ---------------------------------------------------------------------------
// Report: BENCH_<benchmark>.json
// ---------------------------------------------------------------------------

/**
 * Ordered JSON document: members print in call order, integers
 * exactly and reals through an explicit printf format. Members of
 * the root object and of arrays go one per line; nested objects stay
 * on one line.
 */
class Report
{
  public:
    explicit Report(const char *benchmark) : benchmark_(benchmark)
    {
        put("benchmark", benchmark);
    }

    Report &
    put(const char *key, bool value)
    {
        return member(key, value ? "true" : "false");
    }

    Report &
    put(const char *key, const char *value)
    {
        return member(key, std::string("\"") + value + "\"");
    }

    template <std::integral T>
    Report &
    put(const char *key, T value)
    {
        return member(key, std::to_string(value));
    }

    Report &
    put(const char *key, double value, const char *format)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, format, value);
        return member(key, buf);
    }

    /** Opens an object ('{') or array ('['); @p key is null for an
     *  array element. */
    Report &
    open(const char *key, char bracket)
    {
        member(key, std::string(1, bracket));
        closers_.push_back(bracket == '{' ? '}' : ']');
        first_ = true;
        return *this;
    }

    Report &
    close()
    {
        if (oneMemberPerLine())
            newline(closers_.size() - 1);
        text_ += closers_.back();
        closers_.pop_back();
        first_ = false;
        return *this;
    }

    /**
     * Closes the document, writes BENCH_<benchmark>.json (plus the
     * trace/metrics sidecars when tracing is on) and echoes it to
     * stdout. Returns false if the file could not be written.
     */
    bool
    write()
    {
        close();
        text_ += '\n';
        std::fputs(text_.c_str(), stdout);
        const std::string base = "BENCH_" + benchmark_;
        const std::string path = base + ".json";
        std::FILE *out = std::fopen(path.c_str(), "w");
        const bool written =
            out && std::fputs(text_.c_str(), out) >= 0;
        if (out)
            std::fclose(out);
        if (!written) {
            std::fprintf(stderr, "could not write %s\n", path.c_str());
            return false;
        }
        std::printf("[data written to %s]\n", path.c_str());
        if (cta::obs::writeSidecars(base))
            std::printf("[trace + metrics sidecars written]\n");
        return true;
    }

  private:
    bool
    oneMemberPerLine() const
    {
        return closers_.size() == 1 || closers_.back() == ']';
    }

    void
    newline(std::size_t depth)
    {
        text_ += '\n';
        text_.append(2 * depth, ' ');
    }

    Report &
    member(const char *key, const std::string &value)
    {
        if (!first_)
            text_ += ',';
        if (oneMemberPerLine())
            newline(closers_.size());
        else if (!first_)
            text_ += ' ';
        if (key)
            text_ += std::string("\"") + key + "\": ";
        text_ += value;
        first_ = false;
        return *this;
    }

    std::string benchmark_;
    std::string text_ = "{";
    std::vector<char> closers_{'}'};
    bool first_ = true;
};

// ---------------------------------------------------------------------------
// Session lifecycle: serve_soak and fault_soak
// ---------------------------------------------------------------------------

constexpr Index kLifecycleHeadDim = 16;

/** Waves of sessions prefilled, stepped and retired through a
 *  budget-bound SessionManager + Batcher. */
struct Lifecycle
{
    Index sessions = 0;
    Index arrivalsPerRound = 0;
    Index prefillLen = 12;
    Index lifetimeSteps = 0;
    std::size_t budget = 0;
    /** Restore a still-evicted session before removing it, so no
     *  injected snapshot corruption escapes detection accounting. */
    bool auditOnRetire = false;
};

/** The lifecycle at @p smoke size; CTA_MEM_BUDGET overrides the
 *  default budget, which sits far below the aggregate working set so
 *  eviction and restore run continuously. */
Lifecycle
lifecycleShape(bool smoke, Index smoke_sessions)
{
    Lifecycle shape;
    shape.sessions = smoke ? smoke_sessions : 2048;
    shape.arrivalsPerRound = smoke ? 8 : 64;
    shape.lifetimeSteps = smoke ? 4 : 8;
    shape.budget = SessionManager::memBudgetFromEnv();
    if (shape.budget == 0)
        shape.budget =
            smoke ? (std::size_t{256} << 10) : (std::size_t{4} << 20);
    return shape;
}

/** What one lifecycle run observed about one session. */
struct SessionRecord
{
    std::vector<Matrix> outputs; ///< Ok step outputs, in step order
    bool expired = false;        ///< any step came back Expired
    bool corrupted = false;      ///< quarantined (corrupt snapshot)
    bool tainted = false;        ///< an injection landed in its work
};

struct LifecycleRun
{
    std::vector<SessionRecord> sessions; ///< by SessionManager id
    std::vector<SessionManagerStats> series; ///< one sample per round
    SessionManagerStats stats;
    std::uint64_t expiredSteps = 0;
    std::uint64_t corruptedSteps = 0;
    Index completed = 0;
    bool ok = false; ///< the run hit no protocol error
};

/** Runs @p shape under the current fault configuration. */
LifecycleRun
runLifecycle(const Lifecycle &shape)
{
    LifecycleRun run;
    run.sessions.resize(at(shape.sessions));

    Rng rng(23);
    const auto params =
        AttentionHeadParams::randomInit(kTokenDim, kLifecycleHeadDim, rng);
    SessionManager manager(params, ServeConfig{}, kTokenDim,
                           shape.budget);
    Batcher batcher(manager);

    struct Active
    {
        Index id = 0;
        Matrix decode; ///< lifetimeSteps x tokenDim pending tokens
        Index stepsDone = 0;
        bool submitted = false; ///< has a step in the current flush
        bool done = false;
    };
    std::vector<Active> active;
    Index spawned = 0;

    // Removes @p s, first reading the quarantine/taint verdict of a
    // session that finished its steps.
    const auto retire = [&](Active &s) {
        SessionRecord &rec = run.sessions[at(s.id)];
        if (!rec.corrupted) {
            if (shape.auditOnRetire && manager.isEvicted(s.id))
                manager.tryAcquire(s.id);
            if (manager.isQuarantined(s.id))
                rec.corrupted = true;
            else
                rec.tainted = manager.isFaultTainted(s.id);
        }
        batcher.removeSession(s.id);
        s.done = true;
        ++run.completed;
    };

    while (run.completed < shape.sessions) {
        for (Index a = 0;
             a < shape.arrivalsPerRound && spawned < shape.sessions;
             ++a, ++spawned) {
            const auto seed = static_cast<std::uint64_t>(spawned);
            Active s;
            s.id = manager.createSession(
                clusteredTokens(shape.prefillLen, 1000 + seed));
            s.decode = clusteredTokens(shape.lifetimeSteps, 9000 + seed);
            active.push_back(std::move(s));
        }

        // One decode step per active session (evicted ones restore
        // inside flush). A Corrupted verdict means the manager
        // quarantined the session since its last step.
        for (Active &s : active) {
            const auto verdict =
                batcher.trySubmit(s.id, s.decode.row(s.stepsDone));
            if (verdict == SubmitResult::Accepted) {
                s.submitted = true;
            } else if (verdict == SubmitResult::Corrupted) {
                run.sessions[at(s.id)].corrupted = true;
                retire(s);
            } else {
                std::fprintf(stderr, "round %zu: submit rejected: %s\n",
                             run.series.size(),
                             cta::serve::toString(verdict));
                return run;
            }
        }

        const auto results = batcher.flush();
        std::size_t ri = 0;
        for (Active &s : active) {
            if (!s.submitted)
                continue;
            s.submitted = false;
            if (ri >= results.size() || results[ri].session != s.id) {
                std::fprintf(stderr, "flush lost or reordered a step\n");
                return run;
            }
            const auto &res = results[ri++];
            SessionRecord &rec = run.sessions[at(s.id)];
            switch (res.status) {
            case StepStatus::Ok:
                rec.outputs.push_back(res.output);
                break;
            case StepStatus::Expired:
                rec.expired = true;
                break;
            case StepStatus::Corrupted:
                rec.corrupted = true;
                break;
            case StepStatus::Bounced:
                // Only the front-end's wedged flush bounces steps.
                CTA_FATAL("Batcher::flush returned Bounced");
            }
            ++s.stepsDone;
        }
        for (Active &s : active)
            if (!s.done && (run.sessions[at(s.id)].corrupted ||
                            s.stepsDone >= shape.lifetimeSteps))
                retire(s);
        std::erase_if(active, [](const Active &s) { return s.done; });
        run.series.push_back(manager.stats());
    }

    run.stats = manager.stats();
    run.expiredSteps = batcher.expiredSteps();
    run.corruptedSteps = batcher.corruptedSteps();
    run.ok = true;
    return run;
}

/**
 * One lifecycle run plus the plateau check: once the first eviction
 * happened, post-enforcement live bytes always fit the budget (except
 * the single oversized resident the never-evict-MRU rule permits)
 * while every session runs to completion — bounded memory without
 * livelock.
 */
int
serveSoak(bool smoke)
{
    const Lifecycle shape = lifecycleShape(smoke, 48);
    const LifecycleRun run = runLifecycle(shape);
    if (!run.ok)
        return 1;
    std::size_t peak_live_bytes = 0;
    bool eviction_seen = false;
    bool plateaued = true;
    for (const SessionManagerStats &s : run.series) {
        peak_live_bytes = std::max(peak_live_bytes, s.liveBytes);
        eviction_seen = eviction_seen || s.evictions > 0;
        if (eviction_seen && s.liveBytes > shape.budget && s.live > 1)
            plateaued = false;
    }

    Report report("serve_soak");
    report.put("mode", "classic")
        .put("smoke", smoke)
        .put("token_dim", kTokenDim)
        .put("head_dim", kLifecycleHeadDim)
        .put("budget_bytes", shape.budget)
        .put("sessions", shape.sessions)
        .put("completed", run.completed)
        .put("rounds", run.series.size())
        .put("evictions", run.stats.evictions)
        .put("restores", run.stats.restores)
        .put("peak_live_bytes", peak_live_bytes)
        .put("plateaued", plateaued)
        .open("series", '[');
    for (std::size_t round = 0; round < run.series.size(); ++round) {
        const SessionManagerStats &s = run.series[round];
        report.open(nullptr, '{')
            .put("round", round)
            .put("live", s.live)
            .put("evicted", s.evicted)
            .put("live_bytes", s.liveBytes)
            .put("evicted_bytes", s.evictedBytes)
            .put("evictions", s.evictions)
            .put("restores", s.restores)
            .close();
    }
    report.close();

    const bool ok = plateaued && run.completed == shape.sessions;
    if (!ok)
        std::fprintf(stderr, "soak FAILED: plateaued=%d completed=%lld\n",
                     plateaued ? 1 : 0,
                     static_cast<long long>(run.completed));
    return report.write() && ok ? 0 : 1;
}

/** Rate-1.0 snapshot-only phase: every eviction corrupts, every
 *  restore must detect — guarantees the quarantine path runs even in
 *  --smoke, where the statistical phase may inject nothing. */
bool
targetedQuarantinePhase(std::uint64_t seed, std::uint64_t *injected,
                        std::uint64_t *detected)
{
    const unsigned snapshot_only =
        1u << static_cast<unsigned>(fault::Site::SnapshotBlob);
    fault::setConfig({seed, 1.0, snapshot_only});

    Rng rng(31);
    const auto params =
        AttentionHeadParams::randomInit(kTokenDim, kLifecycleHeadDim, rng);
    SessionManager manager(params, ServeConfig{}, kTokenDim,
                           /*mem_budget_bytes=*/0);
    constexpr Index kSessions = 6;
    for (Index i = 0; i < kSessions; ++i) {
        const Index id = manager.createSession(clusteredTokens(
            12, 500 + static_cast<std::uint64_t>(i)));
        manager.evict(id);
    }
    bool ok = true;
    for (Index id = 0; id < kSessions; ++id) {
        if (manager.tryAcquire(id) != nullptr || // must be detected
            !manager.isQuarantined(id)) {
            std::fprintf(stderr,
                         "targeted corruption of session %lld went "
                         "undetected\n",
                         static_cast<long long>(id));
            ok = false;
        }
    }
    const auto stats = manager.stats();
    *injected = stats.corruptionsInjected;
    *detected = stats.corruptionsDetected;
    return ok && stats.corruptionsInjected == kSessions &&
           stats.corruptionsDetected == kSessions &&
           stats.corruptionsSilent == 0;
}

/** Runs the accelerator model twice under the same armed fault
 *  configuration: must complete, stay finite, and agree bit-for-bit
 *  between the two runs (content-keyed draws, no hidden state). */
bool
accelPhase(const fault::FaultConfig &fc)
{
    fault::setConfig(fc);
    Rng rng(1);
    const auto params = AttentionHeadParams::randomInit(64, 64, rng);
    cta::nn::WorkloadProfile profile;
    profile.seqLen = 256;
    profile.tokenDim = 64;
    profile.coarseClusters = 30;
    profile.fineClusters = 18;
    profile.noiseScale = 0.04f;
    cta::nn::WorkloadGenerator gen(profile, 2);
    const Matrix tokens = gen.sampleTokens();
    cta::alg::CtaConfig alg_config;
    alg_config.w0 = 0.8f;
    alg_config.w1 = 0.8f;
    alg_config.w2 = 0.4f;

    const cta::accel::CtaAccelerator accel(
        cta::accel::HwConfig::paperDefault(),
        cta::sim::TechParams::smic40nmClass());
    const auto first = accel.run(tokens, tokens, params, alg_config);
    const auto second = accel.run(tokens, tokens, params, alg_config);

    bool ok = true;
    if (!cta::alg::allFinite(first.algorithm.output)) {
        std::fprintf(stderr,
                     "accel output went non-finite under faults\n");
        ok = false;
    }
    const double e1 = first.report.energy.computePj +
                      first.report.energy.auxiliaryPj +
                      first.report.energy.memoryPj;
    if (!std::isfinite(e1)) {
        std::fprintf(stderr,
                     "accel energy went non-finite under faults\n");
        ok = false;
    }
    if (!bitIdentical(first.algorithm.output,
                      second.algorithm.output) ||
        first.mapping.latency.total() !=
            second.mapping.latency.total() ||
        first.report.traffic.reads != second.report.traffic.reads) {
        std::fprintf(stderr,
                     "accel runs diverged under identical fault "
                     "config\n");
        ok = false;
    }
    return ok;
}

/**
 * The lifecycle run twice — disarmed as the reference, then with
 * every fault site armed — and four checks: every session completes
 * or is cleanly quarantined; detected == injected and silent == 0;
 * every clean session (no injection landed in its work, no step
 * expired or was corrupted) is bit-identical to the reference; and
 * the targeted-quarantine and accelerator phases pass. Faults follow
 * CTA_FAULT_SEED/RATE/SITES when the rate is nonzero, a built-in
 * seed and rate otherwise.
 */
int
faultSoak(bool smoke)
{
    Lifecycle shape = lifecycleShape(smoke, 32);
    shape.auditOnRetire = true;
    // Default rate: most sessions stay clean, so the bit-identity
    // check is not vacuous.
    fault::FaultConfig armed = fault::configFromEnv();
    if (armed.rate == 0) {
        armed.seed = 2026;
        armed.rate = smoke ? 0.01 : 0.004;
        armed.sites = fault::kAllSites;
    }

    fault::resetInjectionCounters();
    fault::setConfig({armed.seed, 0.0, 0});
    const LifecycleRun reference = runLifecycle(shape);
    bool ok = reference.ok;
    if (fault::totalInjections() != 0 ||
        reference.stats.corruptionsInjected != 0) {
        std::fprintf(stderr, "rate-0 reference run injected faults!\n");
        ok = false;
    }
    for (const SessionRecord &rec : reference.sessions)
        if (rec.expired || rec.corrupted || rec.tainted) {
            std::fprintf(stderr,
                         "rate-0 reference run degraded a session\n");
            ok = false;
            break;
        }

    fault::resetInjectionCounters();
    fault::setConfig(armed);
    const LifecycleRun faulted = runLifecycle(shape);
    ok = ok && faulted.ok && faulted.completed == shape.sessions;
    std::uint64_t site_totals[fault::kSiteCount] = {};
    for (unsigned s = 0; s < fault::kSiteCount; ++s)
        site_totals[s] =
            fault::totalInjections(static_cast<fault::Site>(s));

    const SessionManagerStats &fs = faulted.stats;
    if (fs.corruptionsDetected != fs.corruptionsInjected ||
        fs.corruptionsSilent != 0) {
        std::fprintf(stderr,
                     "corruption accounting broken: injected %llu "
                     "detected %llu silent %llu\n",
                     static_cast<unsigned long long>(
                         fs.corruptionsInjected),
                     static_cast<unsigned long long>(
                         fs.corruptionsDetected),
                     static_cast<unsigned long long>(
                         fs.corruptionsSilent));
        ok = false;
    }

    Index clean = 0, mismatched = 0, tainted = 0, degraded = 0;
    for (std::size_t i = 0; i < faulted.sessions.size(); ++i) {
        const SessionRecord &rec = faulted.sessions[i];
        if (rec.corrupted || rec.expired) {
            ++degraded;
            continue;
        }
        if (rec.tainted) {
            ++tainted;
            continue;
        }
        ++clean;
        const SessionRecord &ref = reference.sessions[i];
        bool same = rec.outputs.size() == ref.outputs.size();
        for (std::size_t k = 0; same && k < rec.outputs.size(); ++k)
            same = bitIdentical(rec.outputs[k], ref.outputs[k]);
        if (!same) {
            std::fprintf(stderr,
                         "clean session %zu diverged from the "
                         "fault-free reference\n",
                         i);
            ++mismatched;
            ok = false;
        }
    }

    std::uint64_t targeted_injected = 0, targeted_detected = 0;
    if (kFaultBuild)
        ok = targetedQuarantinePhase(armed.seed + 1, &targeted_injected,
                                     &targeted_detected) &&
             ok;
    ok = accelPhase(armed) && ok;
    fault::setConfig({0, 0.0, 0}); // disarm before exiting

    Report report("fault_soak");
    report.put("smoke", smoke)
        .put("fault_build", kFaultBuild)
        .put("seed", armed.seed)
        .put("rate", armed.rate, "%g")
        .put("sites", armed.sites)
        .put("budget_bytes", shape.budget)
        .put("sessions", shape.sessions)
        .put("completed", faulted.completed)
        .put("clean_sessions", clean)
        .put("tainted_sessions", tainted)
        .put("degraded_sessions", degraded)
        .put("mismatched_sessions", mismatched)
        .put("expired_steps", faulted.expiredSteps)
        .put("corrupted_steps", faulted.corruptedSteps)
        .put("evictions", fs.evictions)
        .put("restores", fs.restores)
        .put("corruptions_injected", fs.corruptionsInjected)
        .put("corruptions_detected", fs.corruptionsDetected)
        .put("corruptions_silent", fs.corruptionsSilent)
        .put("targeted_injected", targeted_injected)
        .put("targeted_detected", targeted_detected)
        .open("injections_by_site", '{');
    for (unsigned s = 0; s < fault::kSiteCount; ++s)
        report.put(fault::siteName(static_cast<fault::Site>(s)),
                   site_totals[s]);
    report.close().put("ok", ok);
    return report.write() && ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Prefix sharing
// ---------------------------------------------------------------------------

constexpr Index kShareRounds = 3;    ///< decode rounds per phase
constexpr Index kSharePrefill = 512; ///< shared-prompt length
/** Dense pages so a forked session's private footprint tracks what it
 *  actually dirtied, not page-rounding slack. */
constexpr std::size_t kSharePageBytes = 256;

/** Outcome of one prefix-share phase. */
struct PhaseResult
{
    std::size_t peakResident = 0;
    std::size_t peakSharedPageBytes = 0;
    SessionManagerStats stats;
    std::size_t sampleBlobBytes = 0; ///< one forked snapshot's size
    bool bitIdentical = true;
};

/**
 * Runs one phase: N sessions over the same prompt (standalone or
 * forked), kShareRounds decode rounds with evict/restore churn, and
 * twin-probe bit-identity checks. Probe pair j is sessions (2j,
 * 2j+1) with identical decode streams; the even one is evicted and
 * restored, the odd one stays resident through rounds 0-1 (the final
 * cold cycle evicts everything, so round 2 compares two restored
 * twins against each other — both passed through the blob codec and,
 * in the forked phase, through prefix re-resolution).
 */
PhaseResult
runSharePhase(bool share, Index sessions, const AttentionHeadParams &params,
              const Matrix &prompt, const std::vector<Matrix> &decode,
              Index probe_pairs, std::size_t budget)
{
    SessionManager manager(params, ServeConfig{}, kTokenDim, budget,
                           kSharePageBytes);
    Batcher batcher(manager);
    PhaseResult result;

    const auto trackPeak = [&] {
        const auto stats = manager.stats();
        result.peakResident =
            std::max(result.peakResident, stats.residentBytes);
        result.peakSharedPageBytes =
            std::max(result.peakSharedPageBytes, stats.sharedPageBytes);
    };

    Index parent = -1;
    if (share)
        parent = manager.createSession(prompt);
    std::vector<Index> ids;
    ids.reserve(at(sessions));
    for (Index i = 0; i < sessions; ++i)
        ids.push_back(share ? batcher.forkSession(parent)
                            : manager.createSession(prompt));
    trackPeak();

    std::vector<std::vector<Matrix>> probe_out(at(probe_pairs) * 2);
    for (Index round = 0; round < kShareRounds; ++round) {
        for (Index i = 0; i < sessions; ++i) {
            const auto verdict =
                batcher.trySubmit(ids[at(i)], decode[at(i)].row(round));
            if (verdict != SubmitResult::Accepted) {
                std::fprintf(stderr, "round %lld: submit rejected: %s\n",
                             static_cast<long long>(round),
                             cta::serve::toString(verdict));
                result.bitIdentical = false;
                return result;
            }
        }
        const auto results = batcher.flush();
        for (Index p = 0; p < probe_pairs * 2; ++p)
            probe_out[at(p)].push_back(results[at(p)].output);
        trackPeak();

        if (round == 0) {
            // Churn: evict the even probe of every pair plus every
            // 8th session; the next flush restores them on demand
            // (forked sessions through their delta blob).
            for (Index p = 0; p < probe_pairs; ++p)
                manager.evict(ids[at(2 * p)]);
            for (Index i = 0; i < sessions; i += 8)
                manager.evict(ids[at(i)]);
            if (sessions > 0 && manager.isEvicted(ids[0]))
                result.sampleBlobBytes =
                    manager.evictedBlobBytes() /
                    std::max<std::size_t>(1, manager.stats().evicted);
        } else if (round == 1) {
            // Full cold cycle: every session and (once all its
            // children are cold) the prefix donor go to blobs. Round
            // 2 then restores the world — children re-resolve the
            // prefix from its own snapshot first.
            for (Index i = 0; i < sessions; ++i)
                manager.evict(ids[at(i)]);
            if (parent >= 0)
                manager.evict(parent);
            for (std::int64_t pid = 0; pid < manager.prefixCount(); ++pid)
                manager.evictPrefixIfCold(pid);
        }
    }

    // Twin probes must agree bitwise at every round: round 0 (both
    // fresh), round 1 (even twin restored from its blob), round 2
    // (both restored after the cold cycle).
    for (Index p = 0; p < probe_pairs; ++p)
        for (Index round = 0; round < kShareRounds; ++round)
            if (!bitIdentical(probe_out[at(2 * p)][at(round)],
                              probe_out[at(2 * p + 1)][at(round)])) {
                std::fprintf(stderr,
                             "probe pair %lld diverged at round %lld "
                             "(share=%d)\n",
                             static_cast<long long>(p),
                             static_cast<long long>(round),
                             share ? 1 : 0);
                result.bitIdentical = false;
            }
    result.stats = manager.stats();
    return result;
}

/**
 * The same 512-token prompt served two ways at equal budget: phase A
 * prefills every session standalone, phase B prefills the prompt once
 * and forks every session off it copy-on-write. Both run identical
 * decode rounds with evict/restore churn and twin probes. Asserts the
 * forked peak stays under 25% of the standalone one, at least one
 * arena page is shared, the twins are bit-identical, and no
 * corruption slips through silently.
 */
int
prefixShare(bool smoke)
{
    const Index sessions = smoke ? 1024 : 10000;
    // Equal budget for both phases. A generous (or unlimited) budget
    // keeps the comparison about footprint, not eviction policy; the
    // churn is driven explicitly.
    const std::size_t budget = SessionManager::memBudgetFromEnv();
    const Index probe_pairs = std::min<Index>(16, sessions / 2);

    Rng rng(23);
    const auto params =
        AttentionHeadParams::randomInit(kTokenDim, kLifecycleHeadDim, rng);
    const Matrix prompt = clusteredTokens(kSharePrefill, 4242);
    // Per-session decode streams, shared by both phases so the two
    // runs do identical work. Probe twins (2j, 2j+1) share a stream.
    std::vector<Matrix> decode;
    decode.reserve(at(sessions));
    for (Index i = 0; i < sessions; ++i) {
        const bool probe = i < probe_pairs * 2;
        const auto seed = probe ? 5000 + static_cast<std::uint64_t>(i / 2)
                                : 9000 + static_cast<std::uint64_t>(i);
        decode.push_back(clusteredTokens(kShareRounds, seed));
    }

    const PhaseResult noshare = runSharePhase(
        false, sessions, params, prompt, decode, probe_pairs, budget);
    const PhaseResult share = runSharePhase(
        true, sessions, params, prompt, decode, probe_pairs, budget);
    const double ratio = noshare.peakResident == 0
        ? 1.0
        : static_cast<double>(share.peakResident) /
            static_cast<double>(noshare.peakResident);
    const bool bit_identical = share.bitIdentical && noshare.bitIdentical;
    const std::uint64_t silent =
        share.stats.corruptionsSilent + noshare.stats.corruptionsSilent;

    Report report("serve_soak");
    report.put("mode", "prefix_share")
        .put("smoke", smoke)
        .put("token_dim", kTokenDim)
        .put("head_dim", kLifecycleHeadDim)
        .put("page_bytes", kSharePageBytes)
        .put("budget_bytes", budget)
        .put("sessions", sessions)
        .put("prefill_tokens", kSharePrefill)
        .put("decode_rounds", kShareRounds)
        .put("probe_pairs", probe_pairs)
        .put("peak_noshare", noshare.peakResident)
        .put("peak_share", share.peakResident)
        .put("ratio", ratio, "%.6f")
        .put("shared_page_bytes", share.peakSharedPageBytes)
        .put("forks", share.stats.forks)
        .put("cow_copies", share.stats.cowCopies)
        .put("evictions", share.stats.evictions)
        .put("restores", share.stats.restores)
        .put("prefix_evictions", share.stats.prefixEvictions)
        .put("prefix_restores", share.stats.prefixRestores)
        .put("avg_forked_blob_bytes", share.sampleBlobBytes)
        .put("bit_identical", bit_identical)
        .put("corruptions_silent", silent);

    bool ok = true;
    const auto require = [&ok](bool holds, const char *what) {
        if (!holds) {
            std::fprintf(stderr, "FAILED: %s\n", what);
            ok = false;
        }
    };
    require(bit_identical,
            "probe outputs not bit-identical across evict/restore");
    require(ratio < 0.25, "peak share ratio >= 0.25");
    require(share.peakSharedPageBytes >= kSharePageBytes,
            "no arena page was ever shared");
    require(share.stats.forks == static_cast<std::uint64_t>(sessions),
            "a session was not forked");
    require(share.stats.prefixEvictions >= 1 &&
                share.stats.prefixRestores >= 1,
            "cold cycle never evicted or re-resolved the prefix donor");
    require(silent == 0, "silent snapshot corruption");
    return report.write() && ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Tenant mix: chaos_soak and serve_slo
// ---------------------------------------------------------------------------

constexpr Index kMixHeadDim = 32;
constexpr Index kMixShards = 4;

Matrix
mixTokens(Index n, std::uint64_t seed)
{
    return clusteredTokens(n, seed, 20, 12);
}

/** One tenant of the mix; the traffic fields shape serve_slo's
 *  open-loop trace. */
struct MixTenant
{
    const char *name;
    std::uint32_t weight; ///< DRR weight
    Index smokeSessions;
    Index sessions;
    double trafficShare; ///< fraction of offered tokens
    double burstFactor;
    double burstPeriod;
};

constexpr MixTenant kMix[2] = {
    {"gold", 8, 4, 8, 0.3, 1.2, 0.2},
    {"bronze", 1, 8, 24, 0.7, 1.6, 0.13},
};

Index
mixSessions(Index tenant, bool smoke)
{
    return smoke ? kMix[tenant].smokeSessions : kMix[tenant].sessions;
}

/** The mix's front-end shape: 4 shards, DRR quantum scale 8, no byte
 *  budget (eviction churn is the lifecycle scenarios' subject). */
cta::serve::FrontendConfig
mixConfig(Index max_dispatch_per_flush)
{
    cta::serve::FrontendConfig fc;
    fc.shards = kMixShards;
    fc.drrQuantumScale = 8;
    fc.maxDispatchPerFlush = max_dispatch_per_flush;
    fc.memBudgetBytes = 0;
    return fc;
}

struct MixSession
{
    std::uint64_t seed = 0;
    Matrix context;
};

/**
 * Registers the kMix tenants, each with admission quota
 * @p max_queued, and prefills their sessions — gold's first, so ids
 * are dense and each tenant's range is contiguous — with 32..96-token
 * contexts seeded by @p seed_of(tenant, i). Returns the sessions in
 * id order.
 */
std::vector<MixSession>
createTenantMix(ServeFrontend &frontend, bool smoke, Index max_queued,
                const std::function<std::uint64_t(Index, Index)> &seed_of)
{
    for (const MixTenant &t : kMix)
        frontend.registerTenant({t.name, t.weight, max_queued});
    std::vector<MixSession> sessions;
    for (Index t = 0; t < 2; ++t)
        for (Index i = 0; i < mixSessions(t, smoke); ++i) {
            const std::uint64_t seed = seed_of(t, i);
            sessions.push_back({seed, mixTokens(32 + (i % 5) * 16, seed)});
            frontend.createSession(t, sessions.back().context);
        }
    return sessions;
}

// ---------------------------------------------------------------------------
// Chaos soak
// ---------------------------------------------------------------------------

constexpr Index kWindow = 4; ///< max in-flight steps per session

/** One soaked session's driver state. */
struct Driver
{
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
    std::uint64_t ok = 0;
    std::uint64_t bounced = 0;
    Index failedShards = 0;
};

/**
 * The tenant mix (plus one fork per tenant, so failover has prefix
 * chains to migrate) over one sharded front-end, in three phases:
 *
 *   A. Baseline: faults disarmed; sets the per-round completion rate
 *      the recovery assertion is measured against.
 *   B. Chaos: fault::Site::ShardFault armed at a seeded rate, so
 *      flushes wedge (steps bounce, health degrades, shards fail
 *      over) and the poison arm corrupts resident snapshots; a
 *      scheduled operator drain (failShard) guarantees one failover
 *      even in a CTA_FAULT=OFF build. Failed shards recover on a
 *      fixed delay. Bounced steps are resubmitted; fenced and
 *      quota-rejected admissions back off and retry.
 *   C. Drain: faults disarmed, every Failed shard recovered, one
 *      probe step appended per survivor (restoring any still-evicted
 *      poisoned blob, so every injected corruption is detected), and
 *      the backlog drained.
 *
 * Every completed step is bit-compared against a never-faulted
 * reference manager replaying the same per-session tokens. Fails
 * unless a failover happened and every failed shard recovered, no
 * surviving session lost work, detected == injected and silent == 0
 * with every wedged flush matching one ShardFault draw (fault
 * build), and post-recovery goodput re-converges to at least half
 * the baseline.
 */
int
chaosSoak(bool smoke)
{
    const int rounds_a = smoke ? 6 : 20;
    const int rounds_b = smoke ? 30 : 120;
    const int max_rounds_c = 200;
    // One new step per session per round, so traffic spans the whole
    // chaos phase and per-round goodput compares across phases.
    const auto target_steps = static_cast<Index>(rounds_a + rounds_b - 2);
    const int recover_delay = smoke ? 4 : 12;
    const int op_drain_round = rounds_a + 2;
    const double fault_rate = smoke ? 0.15 : 0.08;
    const std::uint64_t fault_seed = 2026;

    fault::setConfig(fault::FaultConfig{}); // disarmed
    fault::resetInjectionCounters();

    Rng rng(23);
    const auto params =
        AttentionHeadParams::randomInit(kTokenDim, kMixHeadDim, rng);
    cta::serve::FrontendConfig fc = mixConfig(512);
    fc.shardFailAfter = 2;
    fc.retryBaseSeconds = 1e-3;
    fc.retryMaxSeconds = 0.25;
    ServeFrontend frontend(params, ServeConfig{}, kTokenDim, fc);

    const auto seedOf = [](Index tenant, Index i) {
        return (tenant == 0 ? 41 : 141) + static_cast<std::uint64_t>(i);
    };
    // The reference manager mirrors the creation sequence exactly, so
    // reference ids equal front-end ids.
    SessionManager ref(params, ServeConfig{}, kTokenDim, 0);
    std::vector<Driver> drivers;
    const auto addDriver = [&](std::uint64_t seed) {
        Driver d;
        d.target = target_steps;
        d.steps = mixTokens(target_steps + 1, seed * 977 + 3);
        drivers.push_back(std::move(d));
    };
    for (const MixSession &s :
         createTenantMix(frontend, smoke, 4096, seedOf)) {
        CTA_REQUIRE(ref.createSession(s.context) ==
                        static_cast<Index>(drivers.size()),
                    "reference id drift");
        addDriver(s.seed);
    }
    // One fork per tenant (stream seeds 900 and 901), so failover has
    // prefix chains to migrate.
    for (const Index parent : {Index{0}, mixSessions(0, smoke)}) {
        const Index id = frontend.forkSession(parent);
        CTA_REQUIRE(ref.forkSession(parent) == id, "reference id drift");
        addDriver(900 + static_cast<std::uint64_t>(parent != 0));
    }
    const auto n_sessions = static_cast<Index>(drivers.size());

    std::vector<RoundStat> timeline;
    std::vector<int> failed_at_round(at(kMixShards), -1);
    std::uint64_t fenced_rejections = 0;
    std::uint64_t quota_rejections = 0;
    std::uint64_t bounced_total = 0;
    std::uint64_t mismatches = 0;
    double max_retry_hint = 0;
    bool op_drain_done = false;
    bool probes_added = false;
    int ended_at_round = -1;

    // Admits step @p ord of session @p id; false when the session
    // must stop submitting this round.
    const auto admit = [&](Index id, Driver &d, Index ord) {
        const auto verdict = frontend.admit(id, d.steps.row(ord));
        switch (verdict.result) {
        case SubmitResult::Accepted:
            d.outstanding.push_back(ord);
            return true;
        case SubmitResult::ShardFenced:
            ++fenced_rejections;
            max_retry_hint =
                std::max(max_retry_hint, verdict.retryAfterSeconds);
            return false;
        case SubmitResult::QuotaExceeded:
            ++quota_rejections;
            return false;
        case SubmitResult::Corrupted:
            d.dead = true;
            return false;
        default:
            CTA_FATAL("unexpected admission verdict ",
                      cta::serve::toString(verdict.result));
        }
    };

    for (int round = 0; round < rounds_a + rounds_b + max_rounds_c;
         ++round) {
        const bool phase_b =
            round >= rounds_a && round < rounds_a + rounds_b;
        const bool phase_c = round >= rounds_a + rounds_b;
        if (round == rounds_a && kFaultBuild)
            fault::setConfig(
                {fault_seed, fault_rate,
                 1u << static_cast<unsigned>(fault::Site::ShardFault)});
        if (round == rounds_a + rounds_b) {
            fault::setConfig(fault::FaultConfig{});
            for (Index s = 0; s < kMixShards; ++s)
                if (frontend.shardHealth(s) == ShardHealth::Failed) {
                    frontend.recoverShard(s);
                    failed_at_round[at(s)] = -1;
                }
        }
        // Scheduled recoveries (phase B) and the operator drain that
        // guarantees one failover per run.
        for (Index s = 0; s < kMixShards; ++s) {
            int &failed_at = failed_at_round[at(s)];
            if (frontend.shardHealth(s) != ShardHealth::Failed) {
                failed_at = -1;
            } else if (failed_at < 0) {
                failed_at = round; // wedge-driven, just noticed
            } else if (round - failed_at >= recover_delay) {
                frontend.recoverShard(s);
                failed_at = -1;
            }
        }
        if (phase_b && !op_drain_done && round >= op_drain_round &&
            frontend.shardHealth(0) != ShardHealth::Failed) {
            frontend.failShard(0);
            failed_at_round[0] = round;
            op_drain_done = true;
        }
        if (phase_c && !probes_added) {
            for (Driver &d : drivers)
                if (!d.dead)
                    ++d.target;
            probes_added = true;
        }

        // Bounced resubmits first (FIFO order is the stream order),
        // then at most one new step within the in-flight window.
        for (Index id = 0; id < n_sessions; ++id) {
            Driver &d = drivers[at(id)];
            bool blocked = d.dead;
            while (!blocked && !d.resubmit.empty()) {
                blocked = !admit(id, d, d.resubmit.front());
                if (!blocked)
                    d.resubmit.pop_front();
            }
            if (!blocked &&
                static_cast<Index>(d.outstanding.size()) < kWindow &&
                d.nextOrdinal < d.target && admit(id, d, d.nextOrdinal))
                ++d.nextOrdinal;
        }

        RoundStat stat;
        for (const Completion &c : frontend.flushOnce()) {
            Driver &d = drivers[at(c.session)];
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
                // of new work; the deque stays sorted because bounces
                // pop in FIFO order too.
                CTA_REQUIRE(!d.outstanding.empty(),
                            "bounce without an outstanding step");
                d.resubmit.push_back(d.outstanding.front());
                d.outstanding.pop_front();
                ++stat.bounced;
                ++bounced_total;
                break;
            case StepStatus::Corrupted:
                // Quarantined: terminally lost (dropped at the next
                // failover); everything it verified stays verified.
                d.dead = true;
                d.outstanding.clear();
                d.resubmit.clear();
                break;
            case StepStatus::Expired:
                CTA_FATAL("no deadlines in this soak; Expired is a bug");
            }
        }
        for (Index s = 0; s < kMixShards; ++s)
            if (frontend.shardHealth(s) == ShardHealth::Failed)
                ++stat.failedShards;
        timeline.push_back(stat);

        if (phase_c &&
            std::none_of(drivers.begin(), drivers.end(),
                         [](const Driver &d) {
                             return !d.dead &&
                                    (d.verified < d.target ||
                                     !d.outstanding.empty() ||
                                     !d.resubmit.empty());
                         })) {
            ended_at_round = round;
            break;
        }
    }

    cta::serve::ShardStats shards;
    SessionManagerStats corruption;
    for (Index s = 0; s < kMixShards; ++s) {
        const auto stats = frontend.shardStats(s);
        shards.failovers += stats.failovers;
        shards.recoveries += stats.recoveries;
        shards.flushFailures += stats.flushFailures;
        shards.sessionsMigratedOut += stats.sessionsMigratedOut;
        shards.sessionsDropped += stats.sessionsDropped;
        shards.prefixesMigratedIn += stats.prefixesMigratedIn;
        const auto mgr = frontend.manager(s).stats();
        corruption.corruptionsInjected += mgr.corruptionsInjected;
        corruption.corruptionsDetected += mgr.corruptionsDetected;
        corruption.corruptionsSilent += mgr.corruptionsSilent;
    }
    const std::uint64_t shard_draws =
        fault::totalInjections(fault::Site::ShardFault);

    Index dead_sessions = 0;
    Index lost_sessions = 0; // alive but incomplete — must be zero
    std::uint64_t verified_steps = 0;
    for (const Driver &d : drivers) {
        verified_steps += static_cast<std::uint64_t>(d.verified);
        if (d.dead)
            ++dead_sessions;
        else if (d.verified < d.target)
            ++lost_sessions;
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
    const double baseline_rate =
        meanOk(1, static_cast<std::size_t>(rounds_a)); // skip warmup
    const double recovered_rate = meanOk(
        static_cast<std::size_t>(rounds_a + rounds_b), timeline.size());

    const bool failover_ok = shards.failovers >= 1 && shards.recoveries >= 1;
    const bool no_lost_work =
        lost_sessions == 0 && mismatches == 0 && ended_at_round >= 0;
    const bool ledger_ok =
        !kFaultBuild ||
        (shards.flushFailures == shard_draws &&
         corruption.corruptionsDetected == corruption.corruptionsInjected &&
         corruption.corruptionsSilent == 0);
    const bool goodput_recovered =
        recovered_rate >= 0.5 * baseline_rate && baseline_rate > 0;
    const bool pass =
        failover_ok && no_lost_work && ledger_ok && goodput_recovered;
    if (!pass)
        std::fprintf(stderr,
                     "CHAOS SOAK FAILED: failover %d, no lost work %d, "
                     "ledger %d, goodput %d\n",
                     failover_ok, no_lost_work, ledger_ok,
                     goodput_recovered);

    Report report("chaos_soak");
    report.put("smoke", smoke)
        .put("fault_enabled", kFaultBuild)
        .put("fault_rate", fault_rate, "%.3f")
        .put("fault_seed", fault_seed)
        .put("shards", kMixShards)
        .put("sessions", n_sessions)
        .put("target_steps_per_session", target_steps)
        .put("rounds", timeline.size())
        .put("failovers", shards.failovers)
        .put("recoveries", shards.recoveries)
        .put("wedged_flushes", shards.flushFailures)
        .put("shard_fault_draws", shard_draws)
        .put("sessions_migrated", shards.sessionsMigratedOut)
        .put("sessions_dropped_at_failover", shards.sessionsDropped)
        .put("prefixes_migrated", shards.prefixesMigratedIn)
        .put("sessions_quarantined", dead_sessions)
        .put("sessions_lost", lost_sessions)
        .put("steps_verified", verified_steps)
        .put("step_mismatches", mismatches)
        .put("steps_bounced", bounced_total)
        .put("fenced_rejections", fenced_rejections)
        .put("quota_rejections", quota_rejections)
        .put("max_retry_hint_seconds", max_retry_hint, "%.4f")
        .put("corruptions_injected", corruption.corruptionsInjected)
        .put("corruptions_detected", corruption.corruptionsDetected)
        .put("corruptions_silent", corruption.corruptionsSilent)
        .put("baseline_ok_per_round", baseline_rate, "%.2f")
        .put("recovered_ok_per_round", recovered_rate, "%.2f")
        .open("asserts", '{')
        .put("failover_happened", failover_ok)
        .put("no_lost_work", no_lost_work)
        .put("ledger_balanced", ledger_ok)
        .put("goodput_recovered", goodput_recovered)
        .close()
        .put("pass", pass)
        .open("timeline", '[');
    for (std::size_t round = 0; round < timeline.size(); ++round)
        report.open(nullptr, '{')
            .put("round", round)
            .put("ok", timeline[round].ok)
            .put("bounced", timeline[round].bounced)
            .put("failed_shards", timeline[round].failedShards)
            .close();
    report.close();
    return report.write() && pass ? 0 : 1;
}

// ---------------------------------------------------------------------------
// SLO sweep
// ---------------------------------------------------------------------------

struct TenantPoint
{
    std::uint64_t offered = 0;   ///< tokens the trace asked for
    std::uint64_t admitted = 0;  ///< accepted by the front-end
    std::uint64_t shed = 0;      ///< rejected at admission
    std::uint64_t completed = 0; ///< StepStatus::Ok
    std::uint64_t withinSlo = 0; ///< completed within the SLO
    double p50Ms = 0;
    double p99Ms = 0;
    double goodput = 0; ///< withinSlo / virtual seconds
};

struct SweepPoint
{
    double offeredFraction = 0;
    double offeredTokensPerSecond = 0;
    double virtualSeconds = 0;
    double goodput = 0; ///< all tenants
    TenantPoint tenants[2];
};

/** Mean per-step wall seconds of one session — the capacity unit the
 *  sweep is scaled against. Warms the session up first: the steps
 *  right after a prefill amortize one-off compression builds and
 *  would overstate the steady-state cost several-fold. */
double
calibrateStepSeconds(const AttentionHeadParams &params, Index warmup,
                     Index steps)
{
    cta::serve::DecodeSession session(params, ServeConfig{}, kTokenDim);
    session.prefill(mixTokens(64, 7));
    const Matrix tokens = mixTokens(warmup + steps, 11);
    for (Index s = 0; s < warmup; ++s)
        session.step(tokens.row(s));
    const auto t0 = std::chrono::steady_clock::now();
    for (Index s = 0; s < steps; ++s)
        session.step(tokens.row(warmup + s));
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    return wall > 0 ? wall / static_cast<double>(steps) : 1e-7;
}

/**
 * One sweep point: the tenant mix replays per-tenant open-loop
 * traces at @p offered_fraction x capacity in virtual time — the
 * trace clock advances by each flushOnce()'s measured wall duration
 * and idle gaps are skipped, so the replay never sleeps. A token's
 * latency is its completion virtual time minus its trace arrival
 * time, tenant-queue wait included.
 */
SweepPoint
runPoint(const AttentionHeadParams &params, bool smoke,
         double offered_fraction, double capacity, double slo_seconds,
         double duration_seconds, Index quota, std::uint64_t seed)
{
    ServeFrontend frontend(params, ServeConfig{}, kTokenDim,
                           mixConfig(256));
    const Index first_session[2] = {0, mixSessions(0, smoke)};
    const auto seedOf = [&](Index tenant, Index i) {
        return seed * 131 +
               static_cast<std::uint64_t>(first_session[tenant] + i);
    };
    const auto total_sessions = static_cast<Index>(
        createTenantMix(frontend, smoke, quota, seedOf).size());

    // Per-tenant traces merged into one time-sorted schedule over
    // global session ids.
    const double offered_tokens = offered_fraction * capacity;
    std::vector<cta::serve::Arrival> trace;
    for (Index t = 0; t < 2; ++t) {
        cta::serve::LoadGenConfig lg;
        lg.sessions = mixSessions(t, smoke);
        lg.zipfExponent = 1.0;
        // steps/request is uniform in [1, 4], so requests/s =
        // tokens/s divided by the mean request length 2.5.
        lg.ratePerSecond = offered_tokens * kMix[t].trafficShare / 2.5;
        lg.burstFactor = kMix[t].burstFactor;
        lg.burstPeriodSeconds = kMix[t].burstPeriod;
        lg.minSteps = 1;
        lg.maxSteps = 4;
        lg.durationSeconds = duration_seconds;
        lg.seed = seed * 17 + static_cast<std::uint64_t>(t);
        trace = cta::serve::mergeArrivals(
            trace, cta::serve::generateArrivals(lg), first_session[t]);
    }

    // One reusable decode token per session.
    const Matrix decode_tokens = mixTokens(total_sessions, seed * 31 + 5);

    // Arrival-time FIFOs of each session's outstanding tokens;
    // completions pop in order because the front-end preserves
    // per-session submission order end to end.
    std::vector<std::deque<double>> outstanding(at(total_sessions));
    std::vector<double> latencies[2];
    SweepPoint point;
    point.offeredFraction = offered_fraction;
    point.offeredTokensPerSecond = offered_tokens;

    double vnow = 0;
    std::size_t next = 0;
    Index inflight = 0;
    for (int round = 0; round < 2000000; ++round) {
        // Admit every arrival the virtual clock has reached.
        for (; next < trace.size() && trace[next].time <= vnow; ++next) {
            const cta::serve::Arrival &a = trace[next];
            TenantPoint &tp =
                point.tenants[at(frontend.tenantOf(a.session))];
            for (Index s = 0; s < a.steps; ++s) {
                ++tp.offered;
                const auto verdict = frontend.admit(
                    a.session, decode_tokens.row(a.session));
                if (verdict.result == SubmitResult::Accepted) {
                    ++tp.admitted;
                    outstanding[at(a.session)].push_back(a.time);
                    ++inflight;
                } else {
                    ++tp.shed;
                }
            }
        }
        if (inflight == 0) {
            if (next >= trace.size())
                break; // drained and the trace is spent
            vnow = trace[next].time; // idle-skip to the next arrival
            continue;
        }
        const auto t0 = std::chrono::steady_clock::now();
        const auto completions = frontend.flushOnce();
        const auto t1 = std::chrono::steady_clock::now();
        vnow += std::chrono::duration<double>(t1 - t0).count();
        for (const Completion &c : completions) {
            auto &fifo = outstanding[at(c.session)];
            CTA_REQUIRE(!fifo.empty(), "session ", c.session,
                        " completed a step it never submitted");
            const double arrival = fifo.front();
            fifo.pop_front();
            --inflight;
            TenantPoint &tp = point.tenants[at(c.tenant)];
            if (c.status == StepStatus::Ok) {
                ++tp.completed;
                const double latency = vnow - arrival;
                latencies[at(c.tenant)].push_back(latency);
                if (latency <= slo_seconds)
                    ++tp.withinSlo;
            }
        }
    }

    point.virtualSeconds = vnow > 0 ? vnow : duration_seconds;
    std::uint64_t good = 0;
    for (std::size_t t = 0; t < 2; ++t) {
        TenantPoint &tp = point.tenants[t];
        tp.p50Ms = cta::core::percentile(latencies[t], 0.50) * 1e3;
        tp.p99Ms = cta::core::percentile(latencies[t], 0.99) * 1e3;
        tp.goodput =
            static_cast<double>(tp.withinSlo) / point.virtualSeconds;
        good += tp.withinSlo;
    }
    point.goodput = static_cast<double>(good) / point.virtualSeconds;
    return point;
}

/**
 * Goodput under a p99 latency target, swept over offered load. The
 * SLO is calibrated from the host's measured step time and the
 * sweep offers multiples of the calibrated capacity. Claims: total
 * goodput rises to a knee and then flattens, and from the lightest
 * to the heaviest point gold's p99 inflates strictly less than
 * bronze's — DRR protects the high-QoS class while admission quotas
 * shed the overload onto bronze. Latencies depend on host speed, so
 * the JSON is not byte-reproducible.
 */
int
serveSlo(bool smoke)
{
    // Per-tenant queue-wait / shed gauges ride the obs runtime flag.
    cta::obs::setTraceEnabled(true);
    cta::obs::resetMetrics();

    Rng rng(23);
    const auto params =
        AttentionHeadParams::randomInit(kTokenDim, kMixHeadDim, rng);
    const std::vector<double> fractions = smoke
        ? std::vector<double>{0.5, 4.0}
        : std::vector<double>{0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0};
    const double duration = smoke ? 0.05 : 1.5;
    const Index quota = smoke ? 512 : 4096;

    // The serial steady-state step rate, derated for flush/dispatch
    // overhead, anchors the sweep so "1.0x offered" lands near real
    // saturation on any host. The SLO is a few worst-case flush
    // durations (maxDispatchPerFlush steps), so a healthy system
    // clears it while a quota-deep queue cannot.
    const double step_seconds =
        calibrateStepSeconds(params, smoke ? 8 : 32, smoke ? 64 : 256);
    const double capacity = 0.85 / step_seconds;
    const double slo = std::max(0.005, 4.0 * 256.0 * step_seconds);

    std::vector<SweepPoint> points;
    for (std::size_t i = 0; i < fractions.size(); ++i)
        points.push_back(runPoint(params, smoke, fractions[i], capacity,
                                  slo, duration, quota,
                                  1 + static_cast<std::uint64_t>(i)));

    // The knee: the offered load where total goodput peaks.
    std::size_t knee = 0;
    for (std::size_t i = 1; i < points.size(); ++i)
        if (points[i].goodput > points[knee].goodput)
            knee = i;
    // Each class's p99 inflation from the lightest to the heaviest
    // load; DRR must hold gold's strictly below bronze's.
    const auto degradation = [&](std::size_t t) {
        return std::max(points.back().tenants[t].p99Ms, 1e-3) /
               std::max(points.front().tenants[t].p99Ms, 1e-3);
    };
    const double gold_deg = degradation(0);
    const double bronze_deg = degradation(1);
    const bool qos_ok = gold_deg < bronze_deg;

    Report report("serve_slo");
    report.put("smoke", smoke)
        .put("token_dim", kTokenDim)
        .put("slo_ms", slo * 1e3, "%.3f")
        .put("calibrated_tokens_per_second", capacity, "%.1f")
        .put("knee_offered_fraction", points[knee].offeredFraction, "%.2f")
        .put("knee_goodput_tokens_per_second", points[knee].goodput,
             "%.1f")
        .put("gold_p99_degradation", gold_deg, "%.3f")
        .put("bronze_p99_degradation", bronze_deg, "%.3f")
        .put("qos_separation_ok", qos_ok)
        .open("results", '[');
    for (const SweepPoint &p : points) {
        report.open(nullptr, '{')
            .put("offered_fraction", p.offeredFraction, "%.2f")
            .put("offered_tokens_per_second", p.offeredTokensPerSecond,
                 "%.1f")
            .put("virtual_seconds", p.virtualSeconds, "%.4f")
            .put("goodput_tokens_per_second", p.goodput, "%.1f")
            .open("tenants", '[');
        for (std::size_t t = 0; t < 2; ++t) {
            const TenantPoint &tp = p.tenants[t];
            report.open(nullptr, '{')
                .put("tenant", kMix[t].name)
                .put("offered", tp.offered)
                .put("admitted", tp.admitted)
                .put("shed", tp.shed)
                .put("completed", tp.completed)
                .put("within_slo", tp.withinSlo)
                .put("goodput_tokens_per_second", tp.goodput, "%.1f")
                .put("p50_ms", tp.p50Ms, "%.4f")
                .put("p99_ms", tp.p99Ms, "%.4f")
                .close();
        }
        report.close().close();
    }
    report.close();
    return report.write() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    struct Scenario
    {
        const char *name;
        int (*run)(bool smoke);
    };
    constexpr Scenario kScenarios[] = {
        {"serve_soak", serveSoak}, {"prefix_share", prefixShare},
        {"fault_soak", faultSoak}, {"chaos_soak", chaosSoak},
        {"serve_slo", serveSlo},
    };
    const bool smoke = argc == 3 && std::strcmp(argv[2], "--smoke") == 0;
    if (argc == 2 || smoke)
        for (const Scenario &s : kScenarios)
            if (std::strcmp(argv[1], s.name) == 0)
                return s.run(smoke);
    std::fprintf(stderr, "usage: %s <scenario> [--smoke]\nscenarios:",
                 argv[0]);
    for (const Scenario &s : kScenarios)
        std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    return 2;
}
