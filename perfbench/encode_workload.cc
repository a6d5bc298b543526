/**
 * @file
 * The encode workload: offline batch encoding through one CTA-0.5
 * alg::CtaEncoderLayer at BERT-large geometry (d_model 1024, 16 heads,
 * FFN 4096) over 512-token SQuAD1.1-profile sequences taken in turn
 * from a pool the seed draws. It covers the batch path the decode workloads
 * barely touch, because their GEMMs have a single row: core GEMM at
 * full width, batch LSH and two-level compression, per-head attention,
 * and the nn FFN and LayerNorm.
 */

#include "harness.h"

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "core/op_counter.h"
#include "core/rng.h"
#include "cta/multihead.h"
#include "nn/model_zoo.h"
#include "nn/workload.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;

constexpr Index kModelDim = 1024;
constexpr Index kHeads = 16;
constexpr Index kFfnDim = 4096;
constexpr Index kSeqLen = 512;
/** Sequences in the pool; the window encodes them in turn. With 8,
 *  attention_rel_error, averaged over the pool, spread 9 % between
 *  seeds. */
constexpr std::size_t kPool = 16;
/** Largest relative error of forward() against forwardExact(). */
constexpr double kErrorBound = 0.05;
constexpr double kDriftBound = 0.2;

struct Encoder
{
    std::unique_ptr<cta::alg::CtaEncoderLayer> layer;
    std::vector<Matrix> pool;
};

/** The layer's weights and calibration sample are fixed; --seed draws
 *  only the encoded sequences. */
constexpr std::uint64_t kModelSeed = 20230225;

std::unique_ptr<Encoder>
setUpEncoder(std::uint64_t seed)
{
    auto enc = std::make_unique<Encoder>();
    cta::core::Rng rng(mixSeed(kModelSeed, 1));
    enc->layer = std::make_unique<cta::alg::CtaEncoderLayer>(
        kModelDim, kHeads, kFfnDim, rng);
    const auto profile =
        cta::nn::datasetProfile("SQuAD1.1", kSeqLen, kModelDim);
    cta::nn::WorkloadGenerator calib(profile, mixSeed(kModelSeed, 2));
    enc->layer->calibrate(calib.sampleTokens(), cta::alg::Preset::Cta05);
    for (std::size_t i = 0; i < kPool; ++i) {
        cta::nn::WorkloadGenerator gen(profile, mixSeed(seed, 100 + i));
        enc->pool.push_back(gen.sampleTokens());
    }
    return enc;
}

bool
allFinite(const Matrix &m)
{
    const Real *data = m.data();
    for (Index i = 0; i < m.size(); ++i)
        if (!std::isfinite(data[i]))
            return false;
    return true;
}

std::uint64_t
selfNs(const TraceReducer &tracer, std::initializer_list<const char *> names)
{
    std::uint64_t total = 0;
    for (const char *name : names)
        total += tracer[name].selfNs;
    return total;
}

} // namespace

void
runEncode(const Options &opts, Result &result)
{
    Samples setup;
    std::unique_ptr<Encoder> enc;
    for (int i = 0; i < kSetupRepeats; ++i) {
        enc.reset();
        const auto t0 = Clock::now();
        enc = setUpEncoder(opts.seed);
        setup.add(secondsBetween(t0, Clock::now()));
    }
    const cta::alg::CtaEncoderLayer &layer = *enc->layer;

    // Warm-up: one pass over the pool. Each sequence's output is the
    // reference every later encoding of it must reproduce bit for
    // bit; its FLOPs and pool[0]'s compression shape are exact counts.
    std::vector<Matrix> reference;
    std::vector<double> flops;
    cta::alg::CompressionStats shape;
    for (std::size_t k = 0; k < kPool; ++k) {
        cta::core::OpCounts counts;
        reference.push_back(layer.forward(enc->pool[k], &counts));
        flops.push_back(static_cast<double>(counts.flops()));
        if (k == 0)
            shape = layer.attention().lastStats();
    }

    TraceReducer tracer;
    Window window(opts, tracer);
    Slices slices;
    double tokens[2] = {0, 0};
    double forwards[2] = {0, 0};
    double flopsIn[2] = {0, 0};
    std::size_t next = 0;
    window.start();
    while (!window.over(forwards[0] > 0 && forwards[1] > 0)) {
        const int h = window.half();
        const std::size_t k = next++ % kPool;
        const auto t0 = Clock::now();
        Matrix out;
        {
            cta::obs::TraceScope span("bench.forward");
            out = layer.forward(enc->pool[k]);
        }
        slices.sample(0, msBetween(t0, Clock::now()));
        slices.add(kSeqLen);
        tokens[h] += kSeqLen;
        forwards[h] += 1;
        flopsIn[h] += flops[k];
        {
            cta::obs::TraceScope span("bench.check");
            ++result.attempted;
            if (!allFinite(out))
                result.fail("encoding of pool sequence " +
                            std::to_string(k) + " is not finite");
            else if (std::memcmp(out.data(), reference[k].data(),
                                 sizeof(Real) * static_cast<std::size_t>(
                                                    out.size())) != 0)
                result.fail("encoding of pool sequence " +
                            std::to_string(k) +
                            " differs from its first encoding");
        }
        slices.between(window.elapsed());
        window.between();
    }
    window.finish();
    slices.finish(window.elapsed());

    double errSq = 0;
    double refSq = 0;
    for (std::size_t k = 0; k < kPool; ++k) {
        const Matrix exact = layer.forwardExact(enc->pool[k]);
        for (Index i = 0; i < exact.size(); ++i) {
            const double ref = exact.data()[i];
            const double diff = reference[k].data()[i] - ref;
            errSq += diff * diff;
            refSq += ref * ref;
        }
    }
    const double relError = std::sqrt(errSq / refSq);
    ++result.attempted;
    if (!(relError <= kErrorBound))
        result.fail("attention_rel_error " + std::to_string(relError) +
                    " exceeds its bound " + std::to_string(kErrorBound));

    checkDrift(result, "mean_context_tokens", kSeqLen, kSeqLen, kDriftBound);
    checkDrift(result, "flops_per_token", flopsIn[0] / tokens[0],
               flopsIn[1] / tokens[1], kDriftBound);

    const double kvRatio = static_cast<double>(shape.k1 + shape.k2) /
                           static_cast<double>(shape.n);
    result.exact["encode.forward_flops"] = flops[0];
    result.exact["cta.kv_ratio"] = kvRatio;
    result.exact["cta.rl"] = shape.rl();
    result.exact["cta.ra"] = shape.effectiveRelationRatio();

    char line[256];
    std::snprintf(line, sizeof(line),
                  "samples window_s=%.3f slices=%zu forwards=%zu",
                  window.seconds(), slices.count(), slices.samples(0));
    result.note(line);
    result.note(slices.describe());
    noteSetup(result, setup);

    auto &out = result.metrics;
    if (!opts.trace) {
        out["tokens_per_s"] = slices.rate();
        // Every token of a sequence comes out of the one forward call.
        out["ttft_mean_ms"] = slices.mean(0);
        out["ttft_tail_ms"] = slices.tail(0);
        out["token_latency_mean_ms"] = slices.mean(0);
        out["token_latency_tail_ms"] = slices.tail(0);
        out["attention_rel_error"] = relError;
        out["setup_s"] = setup.median();
        return;
    }

    const double traced = forwards[1];
    const double forwardNs =
        static_cast<double>(tracer["bench.forward"].inclusiveNs);
    out["cta.compress_ms"] =
        1e-6 *
        static_cast<double>(selfNs(tracer, {"compress.two_level",
                                            "compress.level",
                                            "lsh.hash_batch", "cluster.build",
                                            "cluster.aggregate"})) /
        traced;
    out["cta.head_attention_ms"] =
        1e-6 * static_cast<double>(tracer["attention.head"].inclusiveNs) /
        traced;
    out["cta.rl"] = shape.rl();
    out["cta.ra"] = shape.effectiveRelationRatio();
    out["cta.kv_ratio"] = kvRatio;
    out["nn.ffn_norm_ms"] =
        1e-6 *
        (forwardNs -
         static_cast<double>(tracer["attention.multihead"].inclusiveNs)) /
        traced;
    // FLOPs per ns is GFLOP/s.
    out["core.forward_gflops"] = forwardNs > 0 ? flopsIn[1] / forwardNs : 0;
    reportTrace(tracer, window, tokens[0] / window.halfSeconds(0),
                tokens[1] / window.halfSeconds(1), result);
}

} // namespace perfbench
