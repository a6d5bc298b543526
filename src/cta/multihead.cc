#include "cta/multihead.h"

#include <algorithm>

#include "core/logging.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "obs/trace.h"

namespace cta::alg {

using core::Index;
using core::Matrix;
using core::OpCounts;

CtaMultiHeadAttention::CtaMultiHeadAttention(Index d_model,
                                             Index num_heads,
                                             core::Rng &rng)
    : headDim_(d_model / num_heads),
      outputProj_(nn::Linear::randomInit(d_model, d_model, rng))
{
    CTA_REQUIRE(num_heads > 0 && d_model % num_heads == 0,
                "d_model ", d_model, " not divisible by heads ",
                num_heads);
    heads_.reserve(static_cast<std::size_t>(num_heads));
    for (Index h = 0; h < num_heads; ++h)
        heads_.push_back(nn::AttentionHeadParams::randomInit(
            d_model, headDim_, rng));
}

void
CtaMultiHeadAttention::calibrate(const Matrix &sample_tokens,
                                 Preset preset, std::uint64_t seed)
{
    config_ = alg::calibrate(sample_tokens, sample_tokens, preset, 6,
                             seed);
}

const CtaConfig &
CtaMultiHeadAttention::config() const
{
    CTA_REQUIRE(config_.has_value(),
                "CtaMultiHeadAttention used before calibrate()/"
                "setConfig()");
    return *config_;
}

Matrix
CtaMultiHeadAttention::forward(const Matrix &x, OpCounts *counts) const
{
    CTA_TRACE_SCOPE("attention.multihead");
    const CtaConfig &cfg = config();
    // Compress the layer input ONCE; all heads share it.
    const LshParamSet lsh = sampleLshParams(cfg, x.cols());
    OpCounts compression_ops;
    const TwoLevelCompression kv_comp =
        compressTwoLevel(x, lsh.lsh1, lsh.lsh2, &compression_ops);
    const CompressionLevel query_comp =
        compressTokens(x, lsh.lsh0, &compression_ops);
    if (counts)
        *counts += compression_ops;

    const auto num_heads = static_cast<Index>(heads_.size());
    Matrix all(x.rows(), headDim_ * num_heads);
    // Per-head fan-out: given the shared compression the heads are
    // independent, so they run concurrently, each borrowing the one
    // compression and writing its output straight into its own
    // columns of `all`. A head keeps only its stats and op counts;
    // the reduction below walks them in ascending head order, so
    // counts are bit-identical for any thread count.
    std::vector<CtaHeadSummary> summaries(heads_.size());
    core::parallelFor(0, num_heads, [&](Index begin, Index end) {
        for (Index h = begin; h < end; ++h) {
            CTA_TRACE_SCOPE_ID("attention.head", h);
            const auto slot = static_cast<std::size_t>(h);
            summaries[slot] = ctaAttentionInto(
                query_comp, kv_comp, heads_[slot], cfg.subtractRowMax,
                all, h * headDim_);
        }
    });
    if (counts)
        for (const CtaHeadSummary &head : summaries)
            *counts += head.totalOps();
    lastStats_ = summaries.back().stats;
    return outputProj_.forward(all, counts);
}

Matrix
CtaMultiHeadAttention::forwardExact(const Matrix &x,
                                    OpCounts *counts) const
{
    const auto num_heads = static_cast<Index>(heads_.size());
    Matrix all(x.rows(), headDim_ * num_heads);
    // Same fan-out as forward(): each head copies its output into its
    // columns as soon as it finishes; the OpCounts land in slots and
    // reduce in ascending head order.
    std::vector<OpCounts> head_counts(heads_.size());
    core::parallelFor(0, num_heads, [&](Index begin, Index end) {
        for (Index h = begin; h < end; ++h) {
            const auto slot = static_cast<std::size_t>(h);
            const Matrix out = nn::exactAttention(
                x, x, heads_[slot],
                counts ? &head_counts[slot] : nullptr);
            for (Index i = 0; i < out.rows(); ++i) {
                const auto src = out.row(i);
                std::copy(src.begin(), src.end(),
                          all.row(i).begin() + h * headDim_);
            }
        }
    });
    if (counts)
        for (const OpCounts &c : head_counts)
            *counts += c;
    return outputProj_.forward(all, counts);
}

CtaEncoderLayer::CtaEncoderLayer(Index d_model, Index num_heads,
                                 Index d_hidden, core::Rng &rng)
    : norm1_(d_model), attention_(d_model, num_heads, rng),
      norm2_(d_model), ffn_(d_model, d_hidden, rng)
{
}

void
CtaEncoderLayer::calibrate(const Matrix &sample_tokens, Preset preset,
                           std::uint64_t seed)
{
    // Calibrate on what the attention block actually sees: the
    // layer-normalized tokens.
    attention_.calibrate(norm1_.forward(sample_tokens), preset, seed);
}

Matrix
CtaEncoderLayer::forward(const Matrix &x, OpCounts *counts) const
{
    Matrix attn_out =
        attention_.forward(norm1_.forward(x, counts), counts);
    Matrix mid = add(x, attn_out, counts);
    Matrix ffn_out = ffn_.forward(norm2_.forward(mid, counts), counts);
    return add(mid, ffn_out, counts);
}

Matrix
CtaEncoderLayer::forwardExact(const Matrix &x, OpCounts *counts) const
{
    Matrix attn_out =
        attention_.forwardExact(norm1_.forward(x, counts), counts);
    Matrix mid = add(x, attn_out, counts);
    Matrix ffn_out = ffn_.forward(norm2_.forward(mid, counts), counts);
    return add(mid, ffn_out, counts);
}

} // namespace cta::alg
