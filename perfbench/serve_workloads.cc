/**
 * @file
 * The serving workloads. Each is driven through serve::ServeFrontend
 * by one closed-loop driver thread, which submits a stream's next
 * token only after the previous one completed:
 *
 *  - chat: 32 conversations in flight. Each prefills a prompt of 128,
 *    256, 512 or 1024 tokens, decodes 64-192 tokens and is then
 *    replaced, so the context-length mix stays stationary. Two tenants
 *    (gold: weight 8, 30 % of conversations; bronze: weight 1), four
 *    shards, no byte budget. Time goes to prefill and to the per-token
 *    decode path; nothing is ever evicted or restored.
 *  - fork_resume: 256 sessions forked off 8 system prompts of 512
 *    tokens, under a fixed byte budget that holds about 30 % of their
 *    working set. Every flush resumes the next 32 sessions in
 *    round-robin order, which defeats LRU: nearly every step restores
 *    one session and evicts another. A session that reaches 64 private
 *    tokens is removed and a new fork of its prompt takes its place.
 *
 * After the timed window every complete sampled stream is replayed
 * through a standalone DecodeSession with the same parameters and
 * configuration. Its outputs must match the served ones bit for bit
 * (compared through a hash of every output), and every 8th output is
 * compared with exact attention over the stream's history so far.
 */

#include "harness.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/matrix.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "cta/config.h"
#include "nn/attention.h"
#include "nn/model_zoo.h"
#include "nn/workload.h"
#include "obs/trace.h"
#include "serve/decode_session.h"
#include "serve/frontend.h"

namespace perfbench {
namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;
using cta::serve::Completion;
using cta::serve::ServeFrontend;
using cta::serve::StepStatus;

// Paper per-head geometry (GPT-2-large): token dim 64, head dim 64.
constexpr Index kTokenDim = 64;
constexpr Index kHeadDim = 64;
/** Held-out sample CTA-0.5 is calibrated on. */
constexpr Index kCalibTokens = 1024;
/** Tokens per pooled document; every stream reads a window of one. */
constexpr Index kDocLen = 2048;
constexpr Index kShards = 4;
/** Latency series of the window's slices. */
constexpr int kTtft = 0;
constexpr int kTokenLatency = 1;
/** Largest relative difference the stationarity guard allows between
 *  the window halves in mean context length and FLOPs per token.
 *  Sampling noise stays well inside it at the benchmark's run length;
 *  a context that grows without turnover drifts far past it. */
constexpr double kDriftBound = 0.2;
/** Window tokens after which the exact manager counts are read. */
constexpr std::uint64_t kExactTokens = 4096;
/** Sampled streams (the first by start order) whose replay counts are
 *  the exact ones. */
constexpr std::size_t kExactStreams = 8;
/** Seconds past --seconds the window may run on to finish them. */
constexpr double kOverrunSeconds = 30;
/** Flushes between resident-byte samples in the traced half. */
constexpr std::uint64_t kResidentEvery = 8;

constexpr std::size_t kChatDocs = 16;
constexpr std::size_t kChatInFlight = 32;
constexpr Index kChatPromptLens[] = {128, 256, 512, 1024};
constexpr Index kChatDecodeMin = 64;
constexpr Index kChatDecodeMax = 192;
constexpr double kChatGoldShare = 0.3;
/** Conversations finished before the window opens: three turnovers of
 *  the 32 slots, so the synchronized start has washed out. */
constexpr std::uint64_t kChatWarmup = 96;
constexpr std::uint64_t kChatSampleEvery = 4;
constexpr double kChatErrorBound = 0.35;

constexpr std::size_t kForkPrompts = 8;
constexpr Index kForkPromptLen = 512;
constexpr std::size_t kForkSessions = 256;
constexpr std::size_t kForkResumePerFlush = 32;
/** Private tokens a fresh fork is given at once. */
constexpr Index kForkFreshTokens = 16;
/** Private tokens after which a session is removed and replaced. */
constexpr Index kForkLifetimeTokens = 64;
/** Resident byte budget over all shards: about 30 % of the 92 MiB
 *  working set the 256 sessions reach with no budget. */
constexpr std::size_t kForkBudgetBytes = std::size_t{28} << 20;
constexpr int kForkWarmupFlushes = 64;
constexpr std::uint64_t kForkSampleEvery = 1;
constexpr double kForkErrorBound = 0.35;

/** Replayed steps between comparisons with exact attention. */
constexpr Index kErrorStride = 8;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/** FNV-1a over @p size bytes at @p bytes, continuing from @p hash. */
std::uint64_t
fnv1a(std::uint64_t hash, const void *bytes, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(bytes);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** The served head, its calibrated CTA-0.5 configuration, and the
 *  pooled documents the streams read their tokens from. */
struct Model
{
    cta::nn::AttentionHeadParams params;
    cta::serve::ServeConfig config;
    std::vector<Matrix> docs;
};

/** The model (head weights and calibration sample) and the document
 *  pool are fixed, like a deployment's model and corpus; --seed draws
 *  the streams (which document window each reads, its lengths, tenant
 *  and continuation). Runs with different seeds then serve the same
 *  model over the same corpus: a seed-drawn corpus moved chat's
 *  compression ratio, and with it tokens_per_s, by 6 % between seeds. */
constexpr std::uint64_t kModelSeed = 20230225;

Model
buildModel(std::size_t docs)
{
    cta::core::Rng rng(mixSeed(kModelSeed, 1));
    Model model{cta::nn::AttentionHeadParams::randomInit(kTokenDim,
                                                         kHeadDim, rng),
                cta::serve::ServeConfig{}, std::vector<Matrix>{}};
    cta::nn::WorkloadGenerator calib(
        cta::nn::datasetProfile("WikiText-2", kCalibTokens, kTokenDim),
        mixSeed(kModelSeed, 2));
    const Matrix sample = calib.sampleTokens();
    model.config.cta =
        cta::alg::calibrate(sample, sample, cta::alg::Preset::Cta05);
    const auto profile =
        cta::nn::datasetProfile("WikiText-2", kDocLen, kTokenDim);
    for (std::size_t i = 0; i < docs; ++i) {
        cta::nn::WorkloadGenerator gen(profile, mixSeed(kModelSeed, 100 + i));
        model.docs.push_back(gen.sampleTokens());
    }
    return model;
}

std::unique_ptr<ServeFrontend>
makeFrontend(const Model &model, std::size_t budget_bytes)
{
    cta::serve::FrontendConfig config;
    config.shards = kShards;
    config.memBudgetBytes = budget_bytes;
    config.pool = &cta::core::ThreadPool::global();
    return std::make_unique<ServeFrontend>(model.params, model.config,
                                           kTokenDim, config);
}

/** A stream kept for the post-window replay check. */
struct SampledStream
{
    const Matrix *doc = nullptr;
    Index promptBegin = 0;
    Index promptLen = 0;
    Index stepBegin = 0; ///< doc row of the first decoded token
    Index steps = 0;     ///< decode steps of the whole stream
    Index served = 0;    ///< steps completed so far
    Index servedFirstHalf = 0;
    std::uint64_t outputHash = kFnvOffset; ///< over every served output
    bool failed = false;

    bool complete() const { return !failed && served == steps; }
};

/** What replaying one stream found. */
struct Replay
{
    bool identical = false;
    std::vector<double> stepFlops;
    double kvRatio = 0;
    double errSq = 0;
    double refSq = 0;
};

Replay
replayStream(const Model &model, const SampledStream &s)
{
    Replay r;
    cta::serve::DecodeSession session(model.params, model.config,
                                      kTokenDim);
    Matrix history =
        s.doc->rowSlice(s.promptBegin, s.promptBegin + s.promptLen);
    session.prefill(history);
    std::uint64_t hash = kFnvOffset;
    for (Index k = 0; k < s.steps; ++k) {
        const Index row = s.stepBegin + k;
        const Matrix out = session.step(s.doc->row(row));
        hash = fnv1a(hash, out.data(), sizeof(Real) * kHeadDim);
        r.stepFlops.push_back(
            static_cast<double>(session.lastStepOps().flops()));
        history.appendRows(s.doc->rowSlice(row, row + 1));
        // Every kErrorStride-th step and the last one are compared with
        // exact attention over the history so far: many samples per
        // stream keep the error stable across seeds.
        if ((k + 1) % kErrorStride != 0 && k + 1 != s.steps)
            continue;
        const Matrix exact = cta::nn::exactAttention(
            s.doc->rowSlice(row, row + 1), history, model.params);
        for (Index j = 0; j < kHeadDim; ++j) {
            const double diff = out(0, j) - exact(0, j);
            r.errSq += diff * diff;
            r.refSq += static_cast<double>(exact(0, j)) * exact(0, j);
        }
    }
    r.identical = hash == s.outputHash;
    const auto &kv = session.kv();
    r.kvRatio = static_cast<double>(kv.level1().numClusters() +
                                    kv.level2().numClusters()) /
                static_cast<double>(session.contextLength());
    return r;
}

/** Counters summed over the shards' session managers. */
struct ManagerTotals
{
    std::uint64_t restores = 0;
    std::uint64_t evictions = 0;
    std::uint64_t cowCopies = 0;
    std::uint64_t evicted = 0;
    std::size_t evictedBytes = 0;
    std::size_t residentBytes = 0;
    std::uint64_t prefixes = 0;
    std::uint64_t prefixRestores = 0;
    std::size_t prefixBytes = 0;
};

ManagerTotals
managerTotals(const ServeFrontend &frontend)
{
    ManagerTotals t;
    for (Index s = 0; s < frontend.shardCount(); ++s) {
        const cta::serve::SessionManagerStats st =
            frontend.manager(s).stats();
        t.restores += st.restores;
        t.evictions += st.evictions;
        t.cowCopies += st.cowCopies;
        t.evicted += static_cast<std::uint64_t>(st.evicted);
        t.evictedBytes += st.evictedBytes;
        t.residentBytes += st.residentBytes;
        t.prefixes += static_cast<std::uint64_t>(st.prefixes);
        t.prefixRestores += st.prefixRestores;
        t.prefixBytes += st.prefixBytes;
    }
    return t;
}

/** Window measurements of a serving run. */
struct ServeMeasure
{
    /** Series kTtft and kTokenLatency; work is completed tokens. */
    Slices slices;
    std::uint64_t tokens[2] = {0, 0};
    double contextSum[2] = {0, 0};
    // Layer measurements of the (traced) second half.
    Samples createMs;
    Samples queueWaitMs;
    std::uint64_t flushes = 0;
    std::uint64_t completions = 0;
    std::uint64_t prefillTokens = 0;
    std::size_t residentPeak = 0;
    ManagerTotals atStart;
    ManagerTotals atSwitch;
    ManagerTotals atExact;
    ManagerTotals atEnd;
    std::uint64_t exactTokens = 0; ///< window tokens at atExact
    bool switched = false;
};

/** State of one serving run that outlives its set-ups. */
struct ServeRun
{
    ServeRun(const Options &o, Result &r) : opts(o), result(r) {}

    const Options &opts;
    Result &result;
    TraceReducer tracer;
    Window window{opts, tracer};
    Samples setup;
    ServeMeasure measure;
    std::deque<SampledStream> streams;
    std::uint64_t firstWindowOrdinal = 0;
    /** Window half of the current iteration; -1 outside the window. */
    int half = -1;
};

/** A new stream with ordinal @p ordinal is sampled when it starts in
 *  the window and falls on the sampling stride. */
SampledStream *
maybeSample(ServeRun &r, std::uint64_t ordinal, std::uint64_t every)
{
    if (!r.window.active() || (ordinal - r.firstWindowOrdinal) % every != 0)
        return nullptr;
    return &r.streams.emplace_back();
}

/** Submits one token; a rejection is a failed operation. */
void
admit(ServeRun &r, ServeFrontend &frontend, Index session,
      std::span<const Real> token)
{
    cta::serve::Admission verdict;
    {
        cta::obs::TraceScope span("bench.admit");
        verdict = frontend.admit(session, token);
    }
    if (r.half >= 0)
        ++r.result.attempted;
    if (verdict.result != cta::serve::SubmitResult::Accepted)
        r.result.fail("admission to session " + std::to_string(session) +
                      " rejected: " + cta::serve::toString(verdict.result));
}

/** Records one completed token of a stream whose context (with the
 *  token) is @p context tokens long. */
void
recordToken(ServeRun &r, const Completion &c, Index context,
            SampledStream *sample)
{
    if (sample != nullptr) {
        sample->outputHash = fnv1a(sample->outputHash, c.output.data(),
                                   sizeof(Real) * kHeadDim);
        if (r.half == 0)
            ++sample->servedFirstHalf;
        ++sample->served;
    }
    if (r.half < 0)
        return;
    ServeMeasure &m = r.measure;
    ++m.tokens[r.half];
    m.slices.add(1);
    m.contextSum[r.half] += static_cast<double>(context);
    if (r.half == 1)
        m.queueWaitMs.add(1e3 * c.queueWaitSeconds);
}

bool
exactStreamsDone(const ServeRun &r)
{
    if (r.measure.exactTokens == 0 || r.streams.size() < kExactStreams)
        return false;
    for (std::size_t i = 0; i < kExactStreams; ++i)
        if (!r.streams[i].complete())
            return false;
    return true;
}

/**
 * The timed window: @p iterate runs one flush with its admissions and
 * completions. The window lasts --seconds, and on past that (up to
 * kOverrunSeconds) until the exact counts are in.
 */
template <typename Iterate>
void
runWindow(ServeRun &r, const ServeFrontend &frontend, Iterate iterate)
{
    ServeMeasure &m = r.measure;
    m.atStart = managerTotals(frontend);
    r.window.start();
    do {
        r.half = r.window.half();
        if (r.half == 1 && !m.switched) {
            cta::obs::TraceScope span("bench.stats");
            m.atSwitch = managerTotals(frontend);
            m.switched = true;
        }
        iterate();
        const bool exactDue =
            m.exactTokens == 0 && m.tokens[0] + m.tokens[1] >= kExactTokens;
        const bool residentDue = r.opts.trace && r.half == 1 &&
                                 m.flushes % kResidentEvery == 0;
        if (exactDue || residentDue) {
            cta::obs::TraceScope span("bench.stats");
            const ManagerTotals now = managerTotals(frontend);
            if (exactDue) {
                m.atExact = now;
                m.exactTokens = m.tokens[0] + m.tokens[1];
            }
            if (residentDue)
                m.residentPeak = std::max(m.residentPeak, now.residentBytes);
        }
        m.slices.between(r.window.elapsed());
        r.window.between();
    } while (!r.window.over(exactStreamsDone(r) ||
                            r.window.elapsed() >=
                                r.opts.seconds + kOverrunSeconds));
    r.window.finish();
    m.slices.finish(r.window.elapsed());
    r.half = -1;
    m.atEnd = managerTotals(frontend);
}

double
meanSelfUs(const SpanTotals &t)
{
    return t.count ? 1e-3 * static_cast<double>(t.selfNs) /
                         static_cast<double>(t.count)
                   : 0;
}

/** Replays the sampled streams, runs the checks and fills in the
 *  metrics of the run's mode. */
void
reportServe(ServeRun &r, const Model &model, double error_bound)
{
    Result &result = r.result;
    const ServeMeasure &m = r.measure;
    if (m.tokens[0] == 0 || m.tokens[1] == 0) {
        result.fail("a window half completed no tokens");
        return;
    }

    std::vector<const SampledStream *> done;
    for (const SampledStream &s : r.streams)
        if (s.complete())
            done.push_back(&s);
    std::vector<Replay> replays(done.size());
    cta::core::ThreadPool::global().run(
        static_cast<Index>(done.size()), [&](Index i) {
            const auto k = static_cast<std::size_t>(i);
            replays[k] = replayStream(model, *done[k]);
        });

    double errSq = 0;
    double refSq = 0;
    double flops[2] = {0, 0};
    double steps[2] = {0, 0};
    double exactFlops = 0;
    double exactSteps = 0;
    double exactKv = 0;
    for (std::size_t k = 0; k < replays.size(); ++k) {
        const Replay &rep = replays[k];
        ++result.attempted;
        if (!rep.identical)
            result.fail("sampled stream " + std::to_string(k) +
                        " replayed standalone is not bit-identical to "
                        "its served outputs");
        errSq += rep.errSq;
        refSq += rep.refSq;
        for (std::size_t j = 0; j < rep.stepFlops.size(); ++j) {
            const int h =
                static_cast<Index>(j) < done[k]->servedFirstHalf ? 0 : 1;
            flops[h] += rep.stepFlops[j];
            steps[h] += 1;
        }
        if (k < kExactStreams) {
            for (const double f : rep.stepFlops)
                exactFlops += f;
            exactSteps += static_cast<double>(rep.stepFlops.size());
            exactKv += rep.kvRatio;
        }
    }
    if (!exactStreamsDone(r))
        result.fail("the first sampled streams did not complete within "
                    "the window");
    const double relError = refSq > 0 ? std::sqrt(errSq / refSq) : 0;
    if (done.empty())
        result.fail("no sampled stream completed");
    else if (!(relError <= error_bound))
        result.fail("attention_rel_error " + std::to_string(relError) +
                    " exceeds its bound " + std::to_string(error_bound));

    checkDrift(result, "mean_context_tokens",
               m.contextSum[0] / static_cast<double>(m.tokens[0]),
               m.contextSum[1] / static_cast<double>(m.tokens[1]),
               kDriftBound);
    if (steps[0] == 0 || steps[1] == 0)
        result.fail("no replayed step fell in one of the window halves");
    else
        checkDrift(result, "flops_per_token", flops[0] / steps[0],
                   flops[1] / steps[1], kDriftBound);

    const double stepFlops = exactSteps > 0 ? exactFlops / exactSteps : 0;
    const double kvRatio = exactKv / static_cast<double>(kExactStreams);
    const double exactTokens = static_cast<double>(m.exactTokens);
    const ManagerTotals &a = m.atStart;
    const ManagerTotals &e = m.atExact;
    result.exact["window_tokens"] = exactTokens;
    result.exact["decode_session.step_flops"] = stepFlops;
    result.exact["cta.kv_ratio"] = kvRatio;
    result.exact["session_manager.restores_per_token"] =
        static_cast<double>(e.restores - a.restores) / exactTokens;
    result.exact["session_manager.evictions_per_token"] =
        static_cast<double>(e.evictions - a.evictions) / exactTokens;
    result.exact["session_manager.evicted_blob_bytes"] =
        static_cast<double>(e.evictedBytes);
    result.exact["page_arena.cow_copies_per_token"] =
        static_cast<double>(e.cowCopies - a.cowCopies) / exactTokens;

    char line[320];
    std::snprintf(line, sizeof(line),
                  "samples window_s=%.3f slices=%zu tokens=%llu ttft=%zu "
                  "token_latency=%zu streams_replayed=%zu",
                  r.window.seconds(), m.slices.count(),
                  static_cast<unsigned long long>(m.tokens[0] + m.tokens[1]),
                  m.slices.samples(kTtft), m.slices.samples(kTokenLatency),
                  done.size());
    result.note(line);
    result.note(m.slices.describe());
    std::snprintf(line, sizeof(line),
                  "prefixes start=%llu end=%llu prefix_restores=%llu "
                  "prefix_bytes_end=%zu resident_bytes_end=%zu",
                  static_cast<unsigned long long>(m.atStart.prefixes),
                  static_cast<unsigned long long>(m.atEnd.prefixes),
                  static_cast<unsigned long long>(m.atEnd.prefixRestores -
                                                  m.atStart.prefixRestores),
                  m.atEnd.prefixBytes, m.atEnd.residentBytes);
    result.note(line);
    noteSetup(result, r.setup);

    auto &out = result.metrics;
    if (!r.opts.trace) {
        out["tokens_per_s"] = m.slices.rate();
        out["ttft_mean_ms"] = m.slices.mean(kTtft);
        out["ttft_tail_ms"] = m.slices.tail(kTtft);
        out["token_latency_mean_ms"] = m.slices.mean(kTokenLatency);
        out["token_latency_tail_ms"] = m.slices.tail(kTokenLatency);
        out["attention_rel_error"] = relError;
        out["setup_s"] = r.setup.median();
        return;
    }

    const TraceReducer &t = r.tracer;
    const double tokens = static_cast<double>(m.tokens[1]);
    const ManagerTotals &s = m.atSwitch;
    const ManagerTotals &b = m.atEnd;
    out["frontend.flush_ms_p50"] =
        t["serve.frontend_flush"].durationsMs.median();
    out["frontend.steps_per_flush"] =
        m.flushes ? static_cast<double>(m.completions) /
                        static_cast<double>(m.flushes)
                  : 0;
    out["frontend.create_session_ms_p50"] = m.createMs.median();
    out["frontend.create_session_ms_tail"] = m.createMs.tail();
    out["frontend.queue_wait_ms_p50"] = m.queueWaitMs.median();
    out["batcher.step_ms_p50"] = t["decode.step"].durationsMs.median();
    out["batcher.step_ms_tail"] = t["decode.step"].durationsMs.tail();
    const double flushNs =
        static_cast<double>(t["serve.frontend_flush"].inclusiveNs);
    out["batcher.pool_efficiency"] =
        flushNs > 0
            ? static_cast<double>(t["serve.session_flush"].inclusiveNs) /
                  (flushNs * r.opts.threads)
            : 0;
    out["session_manager.restores_per_token"] =
        static_cast<double>(b.restores - s.restores) / tokens;
    out["session_manager.evictions_per_token"] =
        static_cast<double>(b.evictions - s.evictions) / tokens;
    out["session_manager.restore_ms_p50"] =
        t["serve.session_restore"].durationsMs.median();
    out["session_manager.evict_ms_p50"] =
        t["serve.session_evict"].durationsMs.median();
    out["session_manager.blob_kib_mean"] =
        b.evicted ? static_cast<double>(b.evictedBytes) / 1024.0 /
                        static_cast<double>(b.evicted)
                  : 0;
    out["session_manager.resident_mib_peak"] =
        static_cast<double>(m.residentPeak) / (1024.0 * 1024.0);
    out["page_arena.cow_copies_per_token"] =
        static_cast<double>(b.cowCopies - s.cowCopies) / tokens;
    out["decode_session.step_us"] = meanSelfUs(t["decode.step"]);
    out["decode_session.restore_us"] = meanSelfUs(t["decode.restore"]);
    out["decode_session.prefill_us_per_token"] =
        m.prefillTokens
            ? 1e-3 * static_cast<double>(t["decode.prefill"].inclusiveNs) /
                  static_cast<double>(m.prefillTokens)
            : 0;
    out["decode_session.step_flops"] = stepFlops;
    const std::uint64_t appends = t["compress.append"].count;
    out["cta.append_us"] =
        appends ? 1e-3 *
                      static_cast<double>(t["compress.append"].selfNs +
                                          t["cluster.append"].selfNs +
                                          t["lsh.hash"].selfNs) /
                      static_cast<double>(appends)
                : 0;
    out["cta.fused_attend_us"] = meanSelfUs(t["attention.fused_decode"]);
    out["cta.kv_ratio"] = kvRatio;
    reportTrace(t, r.window,
                static_cast<double>(m.tokens[0]) / r.window.halfSeconds(0),
                tokens / r.window.halfSeconds(1), result);
}

void
keepServeDurations(TraceReducer &tracer)
{
    for (const char *name : {"serve.frontend_flush", "decode.step",
                             "serve.session_restore", "serve.session_evict"})
        tracer.keepDurations(name);
}

// ---------------------------------------------------------------- chat

struct Conversation
{
    std::uint64_t ordinal = 0;
    Index session = -1;
    const Matrix *doc = nullptr;
    Index begin = 0; ///< doc row of the first prompt token
    Index promptLen = 0;
    Index decodeLen = 0;
    Index done = 0; ///< decode steps completed
    Clock::time_point started{};
    Clock::time_point last{};
    SampledStream *sample = nullptr;
};

struct Chat
{
    explicit Chat(Model m) : model(std::move(m)) {}

    Model model;
    std::unique_ptr<ServeFrontend> frontend;
    Index gold = 0;
    Index bronze = 0;
    std::vector<Conversation> slots;
    std::vector<std::size_t> slotOf; ///< global session id -> slot
    std::uint64_t nextOrdinal = 0;
    std::uint64_t finished = 0;
};

void
startConversation(ServeRun &r, Chat &chat, std::size_t slot)
{
    Conversation c;
    c.ordinal = chat.nextOrdinal++;
    cta::core::Rng rng(mixSeed(r.opts.seed, 1'000'000 + c.ordinal));
    c.doc = &chat.model.docs[rng.uniformInt(chat.model.docs.size())];
    c.promptLen = kChatPromptLens[rng.uniformInt(std::size(kChatPromptLens))];
    c.decodeLen = kChatDecodeMin +
                  static_cast<Index>(rng.uniformInt(
                      static_cast<std::uint64_t>(kChatDecodeMax -
                                                 kChatDecodeMin + 1)));
    c.begin = static_cast<Index>(rng.uniformInt(static_cast<std::uint64_t>(
        kDocLen - c.promptLen - c.decodeLen + 1)));
    const Index tenant =
        rng.uniform() < kChatGoldShare ? chat.gold : chat.bronze;
    c.sample = maybeSample(r, c.ordinal, kChatSampleEvery);
    if (c.sample != nullptr) {
        c.sample->doc = c.doc;
        c.sample->promptBegin = c.begin;
        c.sample->promptLen = c.promptLen;
        c.sample->stepBegin = c.begin + c.promptLen;
        c.sample->steps = c.decodeLen;
    }

    const Matrix prompt = c.doc->rowSlice(c.begin, c.begin + c.promptLen);
    c.started = Clock::now();
    {
        cta::obs::TraceScope span("bench.create");
        c.session = chat.frontend->createSession(tenant, prompt);
    }
    if (r.half >= 0)
        ++r.result.attempted;
    if (r.half == 1) {
        r.measure.createMs.add(msBetween(c.started, Clock::now()));
        r.measure.prefillTokens += static_cast<std::uint64_t>(c.promptLen);
    }
    const auto id = static_cast<std::size_t>(c.session);
    if (chat.slotOf.size() <= id)
        chat.slotOf.resize(id + 1);
    chat.slotOf[id] = slot;
    chat.slots[slot] = c;
    admit(r, *chat.frontend, c.session,
          c.doc->row(c.begin + c.promptLen));
}

void
chatIteration(ServeRun &r, Chat &chat)
{
    std::vector<Completion> done;
    {
        cta::obs::TraceScope span("bench.flush");
        done = chat.frontend->flushOnce();
    }
    const auto now = Clock::now();
    cta::obs::TraceScope span("bench.complete");
    if (r.half == 1) {
        ++r.measure.flushes;
        r.measure.completions += done.size();
    }
    for (const Completion &c : done) {
        const std::size_t slot =
            chat.slotOf[static_cast<std::size_t>(c.session)];
        Conversation &conv = chat.slots[slot];
        if (c.status == StepStatus::Ok) {
            recordToken(r, c, conv.promptLen + conv.done + 1, conv.sample);
            if (r.half >= 0) {
                if (conv.done == 0)
                    r.measure.slices.sample(kTtft,
                                            msBetween(conv.started, now));
                else
                    r.measure.slices.sample(kTokenLatency,
                                            msBetween(conv.last, now));
            }
            conv.last = now;
            if (++conv.done < conv.decodeLen) {
                admit(r, *chat.frontend, conv.session,
                      conv.doc->row(conv.begin + conv.promptLen + conv.done));
                continue;
            }
        } else {
            r.result.fail("chat step of session " +
                          std::to_string(c.session) + " did not complete");
            if (conv.sample != nullptr)
                conv.sample->failed = true;
        }
        {
            cta::obs::TraceScope remove("bench.remove");
            chat.frontend->removeSession(conv.session);
        }
        ++chat.finished;
        startConversation(r, chat, slot);
    }
}

// --------------------------------------------------------- fork_resume

/** One life of a fork_resume slot: a fork and its private tokens. */
struct Lifetime
{
    std::uint64_t ordinal = 0;
    Index session = -1;
    std::size_t prompt = 0;
    Index privateBegin = 0; ///< doc row of the first private token
    Index admitted = 0;
    Index done = 0;
    Clock::time_point forkedAt{};
    std::deque<Clock::time_point> admittedAt;
    SampledStream *sample = nullptr;
};

struct Fork
{
    explicit Fork(Model m) : model(std::move(m)) {}

    Model model;
    std::unique_ptr<ServeFrontend> frontend;
    Index tenant = 0;
    /** Per prompt, the session every fork is taken from (see
     *  setUpFork). */
    std::vector<Index> templates;
    std::vector<Lifetime> slots;
    std::vector<std::size_t> slotOf; ///< global session id -> slot
    std::uint64_t nextOrdinal = 0;
    std::size_t cursor = 0;
};

void
admitPrivate(ServeRun &r, Fork &fork, Lifetime &l)
{
    const Matrix &doc = fork.model.docs[l.prompt];
    l.admittedAt.push_back(Clock::now());
    admit(r, *fork.frontend, l.session, doc.row(l.privateBegin + l.admitted));
    ++l.admitted;
}

/** Forks a fresh session into @p slot and admits @p tokens private
 *  tokens (a negative count draws 16-63: set-up spreads the sessions
 *  over their lifetime so they do not all reach 64 together). */
void
startLifetime(ServeRun &r, Fork &fork, std::size_t slot, Index tokens)
{
    Lifetime l;
    l.ordinal = fork.nextOrdinal++;
    cta::core::Rng rng(mixSeed(r.opts.seed, 2'000'000 + l.ordinal));
    l.prompt = slot % kForkPrompts;
    l.privateBegin =
        kForkPromptLen +
        static_cast<Index>(rng.uniformInt(static_cast<std::uint64_t>(
            kDocLen - kForkPromptLen - kForkLifetimeTokens + 1)));
    if (tokens < 0)
        tokens = kForkFreshTokens +
                 static_cast<Index>(rng.uniformInt(static_cast<std::uint64_t>(
                     kForkLifetimeTokens - kForkFreshTokens)));
    l.sample = maybeSample(r, l.ordinal, kForkSampleEvery);
    if (l.sample != nullptr) {
        l.sample->doc = &fork.model.docs[l.prompt];
        l.sample->promptBegin = 0;
        l.sample->promptLen = kForkPromptLen;
        l.sample->stepBegin = l.privateBegin;
        l.sample->steps = kForkLifetimeTokens;
    }
    l.forkedAt = Clock::now();
    {
        cta::obs::TraceScope span("bench.create");
        l.session = fork.frontend->forkSession(fork.templates[l.prompt]);
    }
    if (r.half >= 0)
        ++r.result.attempted;
    if (r.half == 1)
        r.measure.createMs.add(msBetween(l.forkedAt, Clock::now()));
    const auto id = static_cast<std::size_t>(l.session);
    if (fork.slotOf.size() <= id)
        fork.slotOf.resize(id + 1);
    fork.slotOf[id] = slot;
    fork.slots[slot] = std::move(l);
    Lifetime &live = fork.slots[slot];
    for (Index i = 0; i < tokens; ++i)
        admitPrivate(r, fork, live);
}

/**
 * Keeps the templates resident, as a deployment keeps its system
 * prompts: a throwaway fork of each, once per flush, renews its place
 * in the LRU order before the flush evicts. An evicted template loses
 * its frozen prefix, and forking it again freezes a new one, a child
 * of the old that keeps the old resident. Without this the registry
 * grew by about 20 prefixes a second, their donors took the byte budget
 * over, and tokens_per_s fell from 2.5k to 1.2k within one 16 s window.
 */
void
touchTemplates(Fork &fork)
{
    cta::obs::TraceScope span("bench.touch");
    for (const Index t : fork.templates)
        fork.frontend->removeSession(fork.frontend->forkSession(t));
}

/** One flush and its completions (a finished lifetime is replaced). */
void
forkFlush(ServeRun &r, Fork &fork)
{
    touchTemplates(fork);
    std::vector<Completion> done;
    {
        cta::obs::TraceScope span("bench.flush");
        done = fork.frontend->flushOnce();
    }
    const auto now = Clock::now();
    cta::obs::TraceScope span("bench.complete");
    if (r.half == 1) {
        ++r.measure.flushes;
        r.measure.completions += done.size();
    }
    for (const Completion &c : done) {
        const std::size_t slot =
            fork.slotOf[static_cast<std::size_t>(c.session)];
        Lifetime &l = fork.slots[slot];
        const Clock::time_point admittedAt = l.admittedAt.front();
        l.admittedAt.pop_front();
        if (c.status == StepStatus::Ok) {
            recordToken(r, c, kForkPromptLen + l.done + 1, l.sample);
            if (r.half >= 0) {
                if (l.done == 0)
                    r.measure.slices.sample(kTtft,
                                            msBetween(l.forkedAt, now));
                r.measure.slices.sample(kTokenLatency,
                                        msBetween(admittedAt, now));
            }
        } else {
            r.result.fail("fork_resume step of session " +
                          std::to_string(c.session) + " did not complete");
            if (l.sample != nullptr)
                l.sample->failed = true;
        }
        if (++l.done < kForkLifetimeTokens)
            continue;
        {
            cta::obs::TraceScope remove("bench.remove");
            fork.frontend->removeSession(l.session);
        }
        startLifetime(r, fork, slot, kForkFreshTokens);
    }
}

void
forkIteration(ServeRun &r, Fork &fork)
{
    for (std::size_t i = 0; i < kForkResumePerFlush; ++i) {
        Lifetime &l = fork.slots[fork.cursor];
        fork.cursor = (fork.cursor + 1) % fork.slots.size();
        if (l.admitted < kForkLifetimeTokens)
            admitPrivate(r, fork, l);
    }
    forkFlush(r, fork);
}

/**
 * Forks come from a per-prompt template, a never-stepped fork of the
 * prompt session, and the prompt session itself is removed, so the
 * only sessions forked from are the templates, which touchTemplates()
 * keeps resident. The system prompts are part of the deployment, like
 * the model, and fixed; the seed draws each session's continuation and
 * lifetime.
 */
std::unique_ptr<Fork>
setUpFork(ServeRun &r)
{
    auto fork =
        std::make_unique<Fork>(buildModel(kForkPrompts));
    fork->frontend = makeFrontend(fork->model, kForkBudgetBytes);
    ServeFrontend &frontend = *fork->frontend;
    fork->tenant = frontend.registerTenant({"app", 1, 0});
    for (std::size_t p = 0; p < kForkPrompts; ++p) {
        const Index prompt = frontend.createSession(
            fork->tenant, fork->model.docs[p].rowSlice(0, kForkPromptLen));
        fork->templates.push_back(frontend.forkSession(prompt));
        frontend.removeSession(prompt);
    }
    fork->slots.resize(kForkSessions);
    for (std::size_t s = 0; s < kForkSessions; ++s) {
        startLifetime(r, *fork, s, -1);
        // At most 16 x 63 steps queue up, inside the tenant's default
        // quota of 1024; a flush dispatches at most 256 of them.
        while ((s + 1) % 16 == 0 && frontend.queuedSteps(fork->tenant) > 0)
            forkFlush(r, *fork);
    }
    return fork;
}

} // namespace

void
runChat(const Options &opts, Result &result)
{
    ServeRun r(opts, result);
    keepServeDurations(r.tracer);
    std::unique_ptr<Chat> chat;
    for (int i = 0; i < kSetupRepeats; ++i) {
        chat.reset();
        const auto t0 = Clock::now();
        chat = std::make_unique<Chat>(buildModel(kChatDocs));
        chat->frontend = makeFrontend(chat->model, 0);
        chat->gold = chat->frontend->registerTenant({"gold", 8, 0});
        chat->bronze = chat->frontend->registerTenant({"bronze", 1, 0});
        r.setup.add(secondsBetween(t0, Clock::now()));
    }
    // The first conversations are warm-up, not set-up: their prompt
    // lengths are drawn from the seed, and their prefill moved set-up
    // time by up to 40 % between seeds.
    chat->slots.resize(kChatInFlight);
    for (std::size_t s = 0; s < kChatInFlight; ++s)
        startConversation(r, *chat, s);
    while (chat->finished < kChatWarmup)
        chatIteration(r, *chat);
    r.firstWindowOrdinal = chat->nextOrdinal;
    runWindow(r, *chat->frontend, [&] { chatIteration(r, *chat); });
    reportServe(r, chat->model, kChatErrorBound);
}

void
runForkResume(const Options &opts, Result &result)
{
    ServeRun r(opts, result);
    keepServeDurations(r.tracer);
    std::unique_ptr<Fork> fork;
    for (int i = 0; i < kSetupRepeats; ++i) {
        fork.reset();
        const auto t0 = Clock::now();
        fork = setUpFork(r);
        r.setup.add(secondsBetween(t0, Clock::now()));
    }
    for (int i = 0; i < kForkWarmupFlushes; ++i)
        forkIteration(r, *fork);
    r.firstWindowOrdinal = fork->nextOrdinal;
    runWindow(r, *fork->frontend, [&] { forkIteration(r, *fork); });
    reportServe(r, fork->model, kForkErrorBound);
}

} // namespace perfbench
