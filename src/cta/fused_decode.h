/**
 * @file
 * CTA stages 3-4 — compressed scores (eq. 5) with the level-1
 * row-max shift (SIV-B), and probability aggregation (Fig. 6) — as
 * the one implementation every path calls: the batch head runner
 * (cta/compressed_attention.cc: encode, ctaAttention, the figure
 * benches, and the fixed-point ctaAttentionQuantized, whose grid
 * quantizes the scores between the two calls) and a decode step
 * (fusedDecodeAttend below, over a DecodeSession's paged cluster
 * projections). Stage 5 stays with the caller: the batch paths run
 * the backend GEMM over their contiguous V-bar, a decode step
 * core::simdFmaRows over its paged rows; both are the one
 * k-ascending FP32 FMA chain (core/simd.h).
 *
 * Neither stage is an online softmax: a row's scores are all
 * computed, then shifted by one maximum, then exponentiated. Online
 * softmax over score tiles rescales partial sums and would change
 * results.
 *
 * Bit-exactness contract: each score is the FP32 k-ascending FMA
 * chain of core::matmulTransBInto (the lane-per-row kernel straight
 * off the row pointers for one query row, so paged rows need no copy;
 * the backend GEMM over a gathered K-bar^T for more), then multiplied
 * by 1/sqrt(d) — bit for bit matmul(Q-bar, K-bar^T) followed by
 * scale(), under every backend. The shift is one sequential max scan
 * and one subtraction per level-2 score. Aggregation runs one exp per
 * (row, pair) in pair order and one Wide total chain per row. A
 * per-token caller passes each token as a pair of count 1, and
 * Real(1) * p == p exactly, so the per-token and the grouped
 * aggregation are one loop. Results are a pure function of the inputs
 * under every backend, ISA level and thread count
 * (tests/fused_decode_test.cc pins both callers to test-local copies
 * of the unshared chains).
 *
 * fused_decode.cc is compiled with -ffp-contract=off (see
 * src/CMakeLists.txt), matching core/backend.cc and core/simd.cc, so
 * its scalar steps round exactly as written.
 */

#pragma once

#include <span>
#include <vector>

#include "core/matrix.h"
#include "core/page_arena.h"
#include "cta/compressed_attention.h"

namespace cta::core {
struct OpCounts;
} // namespace cta::core

namespace cta::alg {

/**
 * Stage 3 for every row i of @p q_bar (rows x d): @p scores becomes
 * rows x (k1 + k2) with scores(i, j) = (q_i . k_j) * @p inv_sqrt_d over
 * the cluster rows @p k_rows (the k1 K1-bar rows, then the k2 K2-bar
 * rows), then, when @p subtract_row_max, the max of the row's first
 * k1 scores subtracted from its k2 level-2 scores. Since every
 * aggregated score is (level1 + level2), the shift moves all of a
 * row's scores by one constant, which cancels after normalization but
 * keeps exp() arguments small. The dot products are
 * core::matmulTransBInto, which fans more than one row out through
 * the backend GEMM; @p scores' storage is reused.
 *
 * Charges rows * (k1+k2) * d MACs and rows * (k1+k2) scale muls, and
 * with the shift rows * (k1-1) compares and rows * k2 adds.
 */
void compressedScores(const core::Matrix &q_bar,
                      const core::Real *const *k_rows, core::Index k1,
                      core::Index k2, core::Real inv_sqrt_d,
                      bool subtract_row_max, core::Matrix &scores,
                      core::OpCounts *counts = nullptr);

/**
 * Stage 4 for @p rows score rows of width k_total (row-major
 * @p scores): for each (c1, c2, count) of @p pairs in order, adds
 * Real(count) * exp(s[c1] + s[k1 + c2]) into ap[c1] and ap[k1 + c2]
 * of the matching row of @p ap (rows x k_total, zeroed by the
 * caller), and stores the row's probability mass (twice the softmax
 * denominator, one Wide chain) in row_sums[i]. A single row runs
 * inline; more fan out over the active backend's row map.
 *
 * Charges one exp and three adds (s1 + s2, two AP merges) per
 * (row, pair); a grouped caller charges its count muls itself.
 */
void aggregatePairs(const core::Real *scores, core::Index rows,
                    core::Index k1, core::Index k_total,
                    std::span<const ClusterPairCounts::Pair> pairs,
                    core::Real *ap, core::Real *row_sums,
                    core::OpCounts *counts = nullptr);

/**
 * Reusable per-session buffers of fusedDecodeAttend(). Holding them
 * in the session turns three heap allocations per decode step into
 * amortized none.
 */
struct FusedDecodeScratch
{
    core::Matrix scores;            ///< 1 x (k1 + k2) scaled scores
    std::vector<core::Real> ap;     ///< k1 + k2 aggregated probabilities
    std::vector<core::Real> out;    ///< d un-normalized output row
    std::vector<const core::Real *> rows; ///< K- then V-bar row pointers
};

/**
 * CTA stages 3-5 of one decode step, for the single query @p q_bar
 * (1 x d) over the paged cached cluster projections, with no K-bar or
 * V-bar materialization: compressedScores(), aggregatePairs() over
 * the session's (c1, c2) multiset, then the AV accumulation. Leaves
 * the un-normalized output row in @p scratch.out and returns the
 * probability-mass row sum. The caller owns the shared tail:
 * denominator halving, quality-guard probes and the final
 * normalization.
 *
 * @param q_bar      projected query, 1 x d
 * @param k_bar1/2   cached W^K projections of the level-1/2 centroids
 * @param v_bar1/2   cached W^V projections of the level-1/2 centroids
 * @param pairs      the session's (c1, c2) multiset
 * @param inv_sqrt_d the 1/sqrt(d) score scale
 * @param subtract_row_max apply the level-1 row-max shift to the
 *                   level-2 scores (CtaConfig::subtractRowMax)
 * @param counts     charged per pair, count muls included
 */
core::Real fusedDecodeAttend(const core::Matrix &q_bar,
                             const core::PagedRows &k_bar1,
                             const core::PagedRows &k_bar2,
                             const core::PagedRows &v_bar1,
                             const core::PagedRows &v_bar2,
                             const ClusterPairCounts &pairs,
                             core::Real inv_sqrt_d,
                             bool subtract_row_max,
                             FusedDecodeScratch &scratch,
                             core::OpCounts *counts = nullptr);

} // namespace cta::alg
