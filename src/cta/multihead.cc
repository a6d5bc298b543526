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

namespace {

/** Copies one head's output into columns [offset, offset + cols) of
 *  the concatenated matrix, one row span at a time. */
void
copyHeadColumns(const Matrix &head, Index offset, Matrix &all)
{
    CTA_ASSERT(head.rows() == all.rows() &&
                   offset + head.cols() <= all.cols(),
               "head output ", head.rows(), "x", head.cols(),
               " does not fit at column ", offset, " of ", all.rows(),
               "x", all.cols());
    for (Index i = 0; i < head.rows(); ++i) {
        const auto src = head.row(i);
        std::copy(src.begin(), src.end(), all.row(i).begin() + offset);
    }
}

} // namespace

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
    // independent, so they run concurrently into per-head slots. The
    // OpCounts reduction below walks the slots in ascending head
    // order — counts are bit-identical for any thread count.
    std::vector<CtaResult> results(heads_.size());
    core::parallelFor(0, num_heads, [&](Index begin, Index end) {
        for (Index h = begin; h < end; ++h) {
            CTA_TRACE_SCOPE_ID("attention.head", h);
            results[static_cast<std::size_t>(h)] =
                ctaAttentionFromCompression(
                    query_comp, kv_comp, x.rows(),
                    heads_[static_cast<std::size_t>(h)],
                    cfg.subtractRowMax);
        }
    });
    for (Index h = 0; h < num_heads; ++h) {
        const CtaResult &r = results[static_cast<std::size_t>(h)];
        const Index offset = h * headDim_;
        if (counts)
            *counts += r.totalOps();
        copyHeadColumns(r.output, offset, all);
    }
    lastStats_ = results.back().stats;
    return outputProj_.forward(all, counts);
}

Matrix
CtaMultiHeadAttention::forwardExact(const Matrix &x,
                                    OpCounts *counts) const
{
    const auto num_heads = static_cast<Index>(heads_.size());
    Matrix all(x.rows(), headDim_ * num_heads);
    // Same fan-out as forward(): per-head outputs and OpCounts land
    // in slots, then reduce in ascending head order.
    std::vector<Matrix> outputs(heads_.size());
    std::vector<OpCounts> head_counts(heads_.size());
    core::parallelFor(0, num_heads, [&](Index begin, Index end) {
        for (Index h = begin; h < end; ++h) {
            const auto slot = static_cast<std::size_t>(h);
            outputs[slot] = nn::exactAttention(
                x, x, heads_[slot],
                counts ? &head_counts[slot] : nullptr);
        }
    });
    for (Index h = 0; h < num_heads; ++h) {
        const auto slot = static_cast<std::size_t>(h);
        const Index offset = h * headDim_;
        if (counts)
            *counts += head_counts[slot];
        copyHeadColumns(outputs[slot], offset, all);
    }
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
