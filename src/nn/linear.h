/**
 * @file
 * Dense linear (fully-connected) layer: Y = X . W (+ bias).
 *
 * Attention's Q/K/V projections are bias-free in the paper's
 * formulation (SII-A), so bias is optional and off by default.
 */

#pragma once

#include <optional>

#include "core/matrix.h"
#include "core/types.h"

namespace cta::core {
class Rng;
struct OpCounts;
} // namespace cta::core

namespace cta::nn {

/** A dense linear transformation with optional bias. */
class Linear
{
  public:
    /** Creates an uninitialized (zero-weight) layer. */
    Linear(core::Index in_dim, core::Index out_dim, bool with_bias = false);

    /** Creates a layer with the given weights (and no bias). */
    explicit Linear(core::Matrix weight);

    /**
     * Xavier/Glorot-style random initialization: weights i.i.d. from
     * N(0, 1/in_dim) so activations keep unit scale through stacking.
     */
    static Linear randomInit(core::Index in_dim, core::Index out_dim,
                             core::Rng &rng, bool with_bias = false);

    /** Y = X . W (+ bias), charging in*out*rows(X) MACs. */
    core::Matrix forward(const core::Matrix &x,
                         core::OpCounts *counts = nullptr) const;

    /** forward() into @p y (storage reused, see core::matmulInto). */
    void forwardInto(const core::Matrix &x, core::Matrix &y,
                     core::OpCounts *counts = nullptr) const;

    /** Input dimension. */
    core::Index inDim() const { return weight_.rows(); }

    /** Output dimension. */
    core::Index outDim() const { return weight_.cols(); }

    /** The in_dim x out_dim weight matrix. */
    const core::Matrix &weight() const { return weight_; }

    /** Mutable weight access (for quantization passes). */
    core::Matrix &weight() { return weight_; }

    /** Bias vector if present. */
    const std::optional<core::Matrix> &bias() const { return bias_; }

  private:
    core::Matrix weight_;
    std::optional<core::Matrix> bias_;
};

} // namespace cta::nn
