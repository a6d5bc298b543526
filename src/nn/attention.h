/**
 * @file
 * Reference (exact) scaled-dot-product attention — the baseline CTA
 * approximates. Follows paper SII-A:
 *
 *   Q = X^Q . W^Q,  K = X^KV . W^K,  V = X^KV . W^V
 *   S = Q . K^T / sqrt(d)
 *   P = softmax(S)        (row-wise)
 *   O = P . V
 *
 * These are the single-head primitives (what the accelerators
 * process); the multi-head layer with exact and CTA forwards is
 * alg::CtaMultiHeadAttention (cta/multihead.h).
 */

#pragma once

#include "core/matrix.h"
#include "nn/linear.h"

namespace cta::nn {

/** The three projection weights of one attention head. */
struct AttentionHeadParams
{
    Linear wq;
    Linear wk;
    Linear wv;

    /** Random head with token dim @p d_w and head dim @p d. */
    static AttentionHeadParams randomInit(core::Index d_w, core::Index d,
                                          core::Rng &rng);
};

/** All intermediates of one exact attention evaluation. */
struct AttentionTrace
{
    core::Matrix q;      ///< m x d queries
    core::Matrix k;      ///< n x d keys
    core::Matrix v;      ///< n x d values
    core::Matrix scores; ///< m x n scaled dot products
    core::Matrix probs;  ///< m x n attention probabilities
    core::Matrix output; ///< m x d outputs
};

/**
 * Attention masking mode. Causal masking (GPT-2-style decoding,
 * paper workload SVI-A) forbids query i from attending to keys j > i.
 *
 * Note on CTA: the published CTA scheme is mask-agnostic — its
 * clustering merges tokens regardless of position, so the paper's
 * GPT-2 evaluation treats the attention window as given (per-step
 * full attention over the visible prefix). The reference
 * implementation here provides causal exact attention for the
 * substrate; CTA runs are performed over the visible prefix.
 */
enum class AttentionMask
{
    None,
    Causal,
};

/**
 * Exact single-head attention.
 *
 * @param xq token matrix for queries (m x d_w)
 * @param xkv token matrix for keys/values (n x d_w); pass the same
 *        matrix as @p xq for self-attention
 * @param counts optional op accounting (covers linears + attention)
 */
core::Matrix exactAttention(const core::Matrix &xq,
                            const core::Matrix &xkv,
                            const AttentionHeadParams &params,
                            core::OpCounts *counts = nullptr,
                            AttentionMask mask = AttentionMask::None);

/** Exact attention that also returns every intermediate. */
AttentionTrace exactAttentionTraced(const core::Matrix &xq,
                                    const core::Matrix &xkv,
                                    const AttentionHeadParams &params,
                                    core::OpCounts *counts = nullptr,
                                    AttentionMask mask =
                                        AttentionMask::None);

/**
 * Operation counts of the *attention calculation* part only
 * (scores + softmax + output), i.e. the paper's "RA" denominator.
 * m,n are sequence lengths and d the head dimension.
 */
core::OpCounts exactAttentionCalcOps(core::Index m, core::Index n,
                                     core::Index d);

/** Operation counts of the Q/K/V linears, the paper's "RL"
 *  denominator. */
core::OpCounts exactLinearOps(core::Index m, core::Index n,
                              core::Index d_w, core::Index d);

} // namespace cta::nn
