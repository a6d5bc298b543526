/**
 * @file
 * Minimal transformer-encoder substrate: layer normalization and the
 * GELU feed-forward network. The encoder layer that puts them around
 * attention (exact or CTA) is alg::CtaEncoderLayer (cta/multihead.h).
 * Used by the end-to-end examples and the end-to-end speedup bench
 * (paper SVI-C "End-to-end performance").
 */

#pragma once

#include "core/matrix.h"
#include "nn/linear.h"

namespace cta::nn {

/** Per-feature layer normalization with learned scale/shift. */
class LayerNorm
{
  public:
    /** Identity-initialized (gamma = 1, beta = 0) layer norm. */
    explicit LayerNorm(core::Index dim, core::Real epsilon = 1e-5f);

    /** Normalizes each row of @p x to zero mean / unit variance. */
    core::Matrix forward(const core::Matrix &x,
                         core::OpCounts *counts = nullptr) const;

  private:
    core::Matrix gamma_;
    core::Matrix beta_;
    core::Real epsilon_;
};

/** Two-layer position-wise feed-forward network with GELU. */
class FeedForward
{
  public:
    FeedForward(core::Index d_model, core::Index d_hidden,
                core::Rng &rng);

    core::Matrix forward(const core::Matrix &x,
                         core::OpCounts *counts = nullptr) const;

  private:
    Linear up_;
    Linear down_;
};

/** GELU activation applied element-wise (tanh approximation), row
 *  by row through core::simdGeluRow: tanh is computed in-tree, so the
 *  result is bit-identical at every ISA level and thread count. It
 *  transforms @p x in place and returns it, so an rvalue argument
 *  (FeedForward's up-projection) costs no second matrix. */
core::Matrix gelu(core::Matrix x, core::OpCounts *counts = nullptr);

} // namespace cta::nn
