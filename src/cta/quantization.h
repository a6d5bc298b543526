/**
 * @file
 * Fixed-point CTA inference (paper SIV-C "Number Quantization").
 *
 * Runs the one CTA runner of ctaAttention() (detail::runCta) with
 * every tensor snapped to the paper's fixed-point grids at the points
 * hardware would hold it:
 *
 *   - input tokens            -> 13-bit Q6.7
 *   - linear weights          -> 12-bit, integer bits fit to range
 *   - LSH direction matrix A  -> 12-bit Q3.9 (three-sigma rule)
 *   - centroids, Qb/Kb/Vb     -> 12-bit Q6.6
 *   - scores S̄                -> 16-bit Q7.9
 *   - normalized output       -> 13-bit Q6.7 (the token grid)
 *
 * The paper also places the probabilities on the 16-bit grid; this
 * runner does not yet. The exponentiated probabilities AP, their row
 * sums and the unnormalized output Ō = AP·V̄ stay FP32 until the
 * output writeback (ROADMAP item 12(d) covers that half of the
 * fixed-point path).
 *
 * The paper reports < 0.1 % accuracy loss from this scheme; the
 * reproduction's quantization bench verifies the analogous claim on
 * output error (tests/quantization_test.cc, bench/ablation suite).
 */

#pragma once

#include "core/fixed_point.h"
#include "cta/compressed_attention.h"

namespace cta::alg {

/**
 * CTA attention computed on fixed-point-quantized tensors.
 *
 * Quantizes the tokens and weights, then calls the same runner as
 * ctaAttention() with @p scheme as its grid, which quantizes at the
 * other module boundaries (LSH parameter load, centroid writeback,
 * compressed Q/K/V writeback, score writeback, output writeback).
 * The level-1 row-max shift is always on, whatever
 * config.subtractRowMax says: it bounds the exp-LUT input range
 * (paper SIV-B score phase).
 */
CtaResult ctaAttentionQuantized(const core::Matrix &xq,
                                const core::Matrix &xkv,
                                const nn::AttentionHeadParams &params,
                                const CtaConfig &config,
                                const core::QuantScheme &scheme =
                                    core::QuantScheme::paperDefault());

/**
 * Exact attention with the same token/weight quantization, for
 * isolating quantization error from approximation error.
 */
core::Matrix exactAttentionQuantized(const core::Matrix &xq,
                                     const core::Matrix &xkv,
                                     const nn::AttentionHeadParams &params,
                                     const core::QuantScheme &scheme =
                                         core::QuantScheme::paperDefault());

} // namespace cta::alg
