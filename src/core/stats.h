/**
 * @file
 * Small statistics helpers used by benchmarks and tests (geometric
 * means for speedup aggregation, cosine similarity for accuracy
 * proxies, simple summary statistics).
 */

#pragma once

#include <span>
#include <vector>

#include "core/types.h"

namespace cta::core {

/** Arithmetic mean; returns 0 for an empty span. */
Wide mean(std::span<const Wide> values);

/** Sample standard deviation; returns 0 for fewer than 2 values. */
Wide stddev(std::span<const Wide> values);

/** Geometric mean; all values must be positive. */
Wide geomean(std::span<const Wide> values);

/**
 * Geometric mean over the positive entries only: non-positive or
 * non-finite values are dropped with a warning instead of aborting,
 * so one degenerate measurement cannot take down a whole bench run.
 * Returns 0 when no positive values survive.
 */
Wide geomeanPositive(std::span<const Wide> values);

/** Minimum; span must be non-empty. */
Wide minOf(std::span<const Wide> values);

/** Maximum; span must be non-empty. */
Wide maxOf(std::span<const Wide> values);

/**
 * Nearest-rank percentile, @p q in [0, 1]: the ceil(q * n)-th smallest
 * value, rank clamped to [1, n]; 0 for an empty span.
 */
Wide percentile(std::span<const Wide> values, Wide q);

/** Cosine similarity of two equal-length vectors; 0 if either is 0. */
Real cosineSimilarity(std::span<const Real> a, std::span<const Real> b);

/** Euclidean (L2) distance of two equal-length vectors. */
Real l2Distance(std::span<const Real> a, std::span<const Real> b);

/** Squared L2 norm of a vector. */
Real squaredNorm(std::span<const Real> a);

/**
 * Accumulates a running summary (count/mean/min/max) without storing
 * samples — used by the simulator's per-step statistics.
 */
class RunningStat
{
  public:
    /** Adds one sample. */
    void add(Wide value);

    /** Number of samples added. */
    std::uint64_t count() const { return count_; }

    /** Mean of samples, 0 when empty. */
    Wide mean() const { return count_ ? sum_ / count_ : 0; }

    /** Sum of samples. */
    Wide sum() const { return sum_; }

    /** Minimum sample, 0 when empty. */
    Wide min() const { return count_ ? min_ : 0; }

    /** Maximum sample, 0 when empty. */
    Wide max() const { return count_ ? max_ : 0; }

  private:
    std::uint64_t count_ = 0;
    Wide sum_ = 0;
    Wide min_ = 0;
    Wide max_ = 0;
};

} // namespace cta::core
