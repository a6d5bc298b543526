/**
 * @file
 * Multi-head CTA attention and a drop-in CTA transformer encoder
 * layer.
 *
 * Key system-level property: token compression depends only on the
 * *tokens*, not on head weights, so one LSH clustering of a layer's
 * input serves all of its heads — the compression overhead (paper
 * SIII-D) is paid once per layer instead of once per head. The
 * per-head work is ctaAttentionInto(): each head borrows the layer's
 * one compression, writes its output into its own columns of the
 * concatenated matrix and keeps only its stats and op counts.
 */

#pragma once

#include <optional>
#include <vector>

#include "cta/compressed_attention.h"
#include "cta/config.h"
#include "nn/transformer.h"

namespace cta::alg {

/** Multi-head self-attention where every head runs the CTA scheme
 *  on a single shared token compression. */
class CtaMultiHeadAttention
{
  public:
    /**
     * @param d_model model (token) dimension
     * @param num_heads head count; d_model must divide evenly
     */
    CtaMultiHeadAttention(core::Index d_model, core::Index num_heads,
                          core::Rng &rng);

    /**
     * Calibrates the LSH bucket widths for the given preset on a
     * sample token matrix (e.g. one training sequence). Must be
     * called before forward().
     */
    void calibrate(const core::Matrix &sample_tokens, Preset preset,
                   std::uint64_t seed = 7);

    /** Sets an explicit configuration instead of calibrating. */
    void setConfig(const CtaConfig &config) { config_ = config; }

    /** The active configuration (fatal if not calibrated). */
    const CtaConfig &config() const;

    /**
     * CTA self-attention over x (n x d_model): compress once, run
     * every head on the shared compression, concatenate and project.
     */
    core::Matrix forward(const core::Matrix &x,
                         core::OpCounts *counts = nullptr) const;

    /** Exact multi-head attention with the same weights (for
     *  accuracy comparisons). */
    core::Matrix forwardExact(const core::Matrix &x,
                              core::OpCounts *counts = nullptr) const;

    /** Shapes realized by the most recent forward() call. */
    const CompressionStats &lastStats() const { return lastStats_; }

    core::Index headDim() const { return headDim_; }
    const std::vector<nn::AttentionHeadParams> &heads() const
    {
        return heads_;
    }
    /** The projection applied to the concatenated head outputs. */
    const nn::Linear &outputProj() const { return outputProj_; }

  private:
    core::Index headDim_;
    std::vector<nn::AttentionHeadParams> heads_;
    nn::Linear outputProj_;
    std::optional<CtaConfig> config_;
    mutable CompressionStats lastStats_;
};

/** Pre-norm transformer encoder layer with CTA attention. */
class CtaEncoderLayer
{
  public:
    CtaEncoderLayer(core::Index d_model, core::Index num_heads,
                    core::Index d_hidden, core::Rng &rng);

    /** Calibrates the attention block (see
     *  CtaMultiHeadAttention::calibrate). */
    void calibrate(const core::Matrix &sample_tokens, Preset preset,
                   std::uint64_t seed = 7);

    /** Forward with CTA attention. */
    core::Matrix forward(const core::Matrix &x,
                         core::OpCounts *counts = nullptr) const;

    /** Forward with exact attention (same weights). */
    core::Matrix forwardExact(const core::Matrix &x,
                              core::OpCounts *counts = nullptr) const;

    const CtaMultiHeadAttention &attention() const
    {
        return attention_;
    }

  private:
    nn::LayerNorm norm1_;
    CtaMultiHeadAttention attention_;
    nn::LayerNorm norm2_;
    nn::FeedForward ffn_;
};

} // namespace cta::alg
