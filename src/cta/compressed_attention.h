/**
 * @file
 * The complete CTA approximation scheme (paper SIII):
 *
 *   1. Compress query tokens with LSH0 (one level) and key/value
 *      tokens with LSH1 + LSH2 (two-level residual clustering).
 *   2. Project only the compressed tokens:
 *        Qb = C0 . W^Q,  Kb = [C1; C2] . W^K,  Vb = [C1; C2] . W^V
 *   3. Compressed scores Sb = Qb . Kb^T / sqrt(d)    (k0 x (k1+k2))
 *   4. Attention probability aggregation (Fig. 6): every original KV
 *      position j contributes p_j = exp(Sb[i, CT1[j]] + Sb[i,
 *      k1+CT2[j]]) to both of its centroid columns of AP.
 *   5. Ob = AP . Vb; the output for original query i is
 *      Ob[CT0[i]] / (rowsum(AP[CT0[i]]) / 2)  — the half-sum because
 *      each p_j was accumulated twice per row (paper SIII-C).
 *
 * The optional row-max subtraction mirrors the PPE behaviour in the
 * score-calculation phase (SIV-B(1)): the maximum of each row's first
 * k1 scores is subtracted from its k2 remaining scores, keeping
 * aggregated scores small for the exp LUT; it cancels in the final
 * normalization.
 *
 * Stages 3 and 4 are compressedScores() and aggregatePairs()
 * (cta/fused_decode.h), shared with the decode step; this path passes
 * its KV tokens as pairs of count 1 (tokenPairs()). The fixed-point
 * path (cta/quantization.h) runs these same stages, with each stored
 * tensor snapped to its grid (detail::runCta).
 */

#pragma once

#include <memory>
#include <vector>

#include "core/fixed_point.h"
#include "core/matrix.h"
#include "core/op_counter.h"
#include "core/page_arena.h"
#include "cta/compression.h"
#include "nn/attention.h"

namespace cta::alg {

/** Tunable parameters of one CTA attention evaluation. */
struct CtaConfig
{
    /** Hash-code length l (paper uses 6). */
    core::Index hashLen = 6;
    /** LSH0 bucket width (query tokens). */
    core::Real w0 = 1.0f;
    /** LSH1 bucket width (KV tokens, coarse level). */
    core::Real w1 = 1.0f;
    /** LSH2 bucket width (KV residuals, fine level). */
    core::Real w2 = 0.5f;
    /** Apply the PPE row-max subtraction (hardware behaviour). */
    bool subtractRowMax = true;
    /** Seed for sampling the LSH hyperparameters A, B. */
    std::uint64_t seed = 1;
};

/** Shape/compression summary of one CTA evaluation. */
struct CompressionStats
{
    core::Index m = 0;  ///< query count
    core::Index n = 0;  ///< key/value count
    core::Index dw = 0; ///< token dimension
    core::Index d = 0;  ///< head dimension
    core::Index k0 = 0; ///< compressed query count
    core::Index k1 = 0; ///< coarse KV cluster count
    core::Index k2 = 0; ///< fine KV cluster count

    /**
     * RL: linear-transformation computation ratio vs exact attention
     * = (k0 + 2(k1+k2)) / (m + 2n)  (paper SIII-D, eq. 3 vs SII-A).
     */
    core::Real rl() const;

    /**
     * Effective-relation proportion k0*(k1+k2) / (m*n) — the quantity
     * plotted in paper Fig. 2.
     */
    core::Real effectiveRelationRatio() const;
};

/**
 * Every intermediate of a CTA evaluation (consumed by the hardware
 * model and by tests).
 *
 * Ownership rule: a compression is held once, by whoever built it.
 * ctaAttention() builds its own and moves it into queryComp/kvComp;
 * the functions that take a compression (ctaAttentionFromCompression,
 * ctaAttentionInto) only borrow it and leave queryComp/kvComp empty,
 * so all heads of a layer read the one copy the layer made.
 */
struct CtaIntermediates
{
    CompressionLevel queryComp;    ///< C0 / CT0 (ctaAttention only)
    TwoLevelCompression kvComp;    ///< C1, C2 / CT1, CT2 (ditto)
    core::Matrix qBar;             ///< k0 x d
    core::Matrix kBar;             ///< (k1+k2) x d
    core::Matrix vBar;             ///< (k1+k2) x d
    core::Matrix sBar;             ///< k0 x (k1+k2) compressed scores
    core::Matrix ap;               ///< k0 x (k1+k2) aggregated probs
    core::Matrix apRowSums;        ///< k0 x 1 (twice the denominator)
};

/** What one head's evaluation cost and how far it compressed — all a
 *  multi-head layer keeps of a head once its output is written. */
struct CtaHeadSummary
{
    CompressionStats stats;
    /** Token-compression + probability-aggregation bookkeeping ops
     *  (paper SIII-D "overhead": hashing, centroid agg, AP adds). */
    core::OpCounts overheadOps;
    /** Compressed Q/K/V projection ops (the RL numerator). */
    core::OpCounts linearOps;
    /** Score + normalization + output ops (the RA numerator). */
    core::OpCounts attnOps;

    /** All operations combined. */
    core::OpCounts totalOps() const
    {
        return overheadOps + linearOps + attnOps;
    }

    /** Measured RA: attention-calculation FLOPs vs exact attention. */
    core::Real measuredRa() const;

    /** Measured RL: linear FLOPs vs exact attention's linears. */
    core::Real measuredRl() const;
};

/** Result of one CTA attention evaluation. */
struct CtaResult : CtaHeadSummary
{
    /** Full m x d output approximating exact attention. */
    core::Matrix output;
    CtaIntermediates inter;
};

/** The three LSH instances one CtaConfig induces. */
struct LshParamSet
{
    LshParams lsh0; ///< query clustering
    LshParams lsh1; ///< KV coarse clustering
    LshParams lsh2; ///< KV residual clustering
};

/**
 * Samples the LSH hyperparameters a CtaConfig implies for tokens of
 * dimension @p dim. Deterministic in config.seed; this exact sampling
 * is what ctaAttention(), the calibration code and the hardware model
 * all share.
 */
LshParamSet sampleLshParams(const CtaConfig &config, core::Index dim);

/**
 * Runs the CTA scheme for one attention head. The compression it
 * builds is kept, not copied, in result.inter.
 *
 * @param xq query token matrix (m x dw); pass the same matrix as
 *        @p xkv for self-attention
 * @param xkv key/value token matrix (n x dw)
 */
CtaResult ctaAttention(const core::Matrix &xq, const core::Matrix &xkv,
                       const nn::AttentionHeadParams &params,
                       const CtaConfig &config);

namespace detail {

/**
 * Stages 1-5 of one head, the one runner of ctaAttention() (float,
 * @p grid null) and ctaAttentionQuantized(). A non-null @p grid snaps
 * each tensor where the hardware stores it (paper SIV-C): the LSH A
 * matrices to grid->lshParams; the centroids, Q-bar, K-bar and V-bar
 * to grid->centroids; S-bar to grid->scores; and the normalized
 * k0 x d output to grid->tokens.
 */
CtaResult runCta(const core::Matrix &xq, const core::Matrix &xkv,
                 const nn::AttentionHeadParams &params,
                 const CtaConfig &config, bool subtract_row_max,
                 const core::QuantScheme *grid);

} // namespace detail

/**
 * Stages 2-5 of the CTA scheme on *precomputed* compressions —
 * linears, compressed scores, probability aggregation and output
 * recovery. This is the per-head work when one token compression is
 * shared by all heads of a layer (clustering depends only on the
 * tokens, not on head weights; see cta/multihead.h). The compressions
 * are borrowed, not copied: result.inter holds the projections,
 * scores and AP, and its queryComp/kvComp stay empty. The returned
 * result's overheadOps contains only the probability-aggregation
 * additions; charge the compression overhead once at the layer
 * level.
 *
 * @param m original query count (output rows to expand to)
 */
CtaResult ctaAttentionFromCompression(
    const CompressionLevel &query_comp,
    const TwoLevelCompression &kv_comp, core::Index m,
    const nn::AttentionHeadParams &params,
    bool subtract_row_max = true);

/**
 * ctaAttentionFromCompression() writing the head's output straight
 * into columns [col, col + d) of @p out, one row per original query
 * (m = out.rows()), and keeping nothing else: the intermediates are
 * freed before it returns. Every output element has the bits of the
 * same element of ctaAttentionFromCompression(...).output. Writes
 * only those columns, so heads may fill disjoint column slices of one
 * matrix concurrently.
 */
CtaHeadSummary ctaAttentionInto(const CompressionLevel &query_comp,
                                const TwoLevelCompression &kv_comp,
                                const nn::AttentionHeadParams &params,
                                bool subtract_row_max, core::Matrix &out,
                                core::Index col);

/**
 * K-bar or V-bar of a two-level compression: the level-1 centroids
 * projected through @p linear into rows [0, k1), the level-2
 * centroids into rows [k1, k1 + k2). Each row is one GEMM row of its
 * own level's centroid matrix, so it has the bits of the same row of
 * linear.forward() over the concatenated centroids (core/backend.h)
 * without materializing that concatenation. Charges (k1 + k2) rows
 * of the forward's op counts.
 */
core::Matrix projectKvCentroids(const nn::Linear &linear,
                                const TwoLevelCompression &kv_comp,
                                core::OpCounts *counts = nullptr);

/**
 * Multiset of (level-1, level-2) cluster-pair occurrences over the KV
 * tokens, in first-seen order. A token's aggregated probability
 * p_j = exp(Sb[CT1[j]] + Sb[k1+CT2[j]]) depends only on its pair, so
 * a decode session maintains these counts as it appends tokens and
 * aggregates probabilities per distinct pair instead of per token
 * (aggregatePairs, cta/fused_decode.h). Summing per pair reorders
 * the per-token sums, so a decode step agrees with the batch path to
 * rounding, not bit for bit (tests/serve_test.cc bounds it at 1e-4).
 */
class ClusterPairCounts
{
  public:
    struct Pair
    {
        core::Index c1 = 0;     ///< level-1 cluster
        core::Index c2 = 0;     ///< level-2 cluster (un-offset)
        core::Index count = 0;  ///< tokens with this pair
    };

    /** Standalone counts with a private arena. */
    ClusterPairCounts();

    /** Counts stored in @p arena pages (session fork shares CoW). */
    explicit ClusterPairCounts(std::shared_ptr<core::PageArena> arena);

    /**
     * Records the (c1[i], c2[i]) assignment of every token i in
     * order: a new pair is appended, a seen one has its count bumped,
     * so pair order, counts and page writes do not depend on how the
     * tokens are batched. A batch of one pair (a decode step) scans
     * the pair list linearly; a larger batch hashes only its own
     * distinct pairs and locates them in one pass over the stored
     * list, so a restore's short suffix does not pay for the whole
     * multiset. No index is stored — that is what makes a fork
     * O(shared pages).
     */
    void addBatch(std::span<const core::Index> c1,
                  std::span<const core::Index> c2);

    /** Materializes the distinct pairs in first-seen order. */
    std::vector<Pair> pairs() const;

    /** Distinct pairs recorded so far. */
    core::Index pairCount() const
    {
        return static_cast<core::Index>(pairs_.size());
    }

    Pair pair(core::Index i) const
    {
        return pairs_[static_cast<std::size_t>(i)];
    }

    /** Total tokens recorded. */
    core::Index tokens() const { return tokens_; }

    void clear();

    /** Privately-owned heap footprint (solely-owned pages + index). */
    std::size_t stateBytes() const;

    /** stateBytes() without the pages: the page index alone. */
    std::size_t heapBytes() const { return pairs_.heapBytes(); }

  private:
    core::PagedVector<Pair> pairs_;
    core::Index tokens_ = 0;
};

/**
 * The KV tokens' (CT1[j], CT2[j]) assignments of @p kv_comp as pairs
 * of count 1, in token order: aggregatePairs() over them is the
 * batch path's per-token aggregation (paper Fig. 6).
 */
std::vector<ClusterPairCounts::Pair>
tokenPairs(const TwoLevelCompression &kv_comp);

/**
 * Re-projects the centroids @p rows of @p level through @p linear
 * into the same rows of @p projected: one Linear::forwardInto (a
 * single backend gemm) over the centroids, formed from the level's
 * sums (IncrementalCompression::centroid). Every
 * backend computes each GEMM output row independently with one fixed
 * k-ascending chain whatever the row count (core/backend.h), so a row
 * refreshed here — alone or in any batch — is bit-identical to the
 * corresponding row of linear.forward() over the full centroid
 * matrix. That is how a decode session keeps its cached Kb/Vb in sync
 * while re-projecting only centroids that changed.
 *
 * @p rows must be ascending; ids at or past projected.rows() are
 * appended and must continue it without gaps. The gather and output
 * scratch is thread-local and reused, so once warm the projection
 * allocates nothing; a row on a page shared with a fork donor is
 * written to @p projected's row overlay (core::PagedRows).
 * Charges the forward's op counts for rows.size() rows.
 */
void refreshProjectedRows(const nn::Linear &linear,
                          const IncrementalCompression &level,
                          std::span<const core::Index> rows,
                          core::PagedRows &projected,
                          core::OpCounts *counts = nullptr);

} // namespace cta::alg
