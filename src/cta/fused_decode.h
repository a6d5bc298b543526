/**
 * @file
 * Fused online-softmax decode-attention kernel: CTA stages 3-5 for a
 * single query in ONE pass over the cached cluster projections,
 * replacing the materialize-concatenate-multiply pipeline of the
 * unfused grouped decode (matmulTransB, scale, row-max shift,
 * aggregateProbabilitiesGrouped, matmul), which survives only as the
 * reference in tests/fused_decode_test.cc.
 *
 * What fusion removes per step — all pure overhead, no math:
 *  - the K-bar / V-bar matrix materializations (PagedRows::toMatrix
 *    plus appendRows copies two (k1+k2) x d matrices per token),
 *  - three intermediate Matrix allocations (scores, AP, output),
 *  - separate full passes for the score scale and the row-max shift.
 *
 * Bit-exactness contract (tests/fused_decode_test.cc): the kernel
 * performs the exact per-element operation sequence of the unfused
 * grouped path. The scores run through core::simdDotRows, the
 * lane-per-row kernel behind SimdBackend::gemmTransposedB — the
 * reference Wide k-ascending chain per row, 8 rows at a time, read
 * straight from the paged rows — then the same cast-then-scale. Then
 * come the same sequential row-max scan, the same pair-ordered
 * exp/aggregate loop with one Wide total chain, and the same
 * k-ascending AV accumulation (core::simdFmaRows / simdMulAddRows,
 * the output row held in registers across the cluster rows), using
 * FMA steps when the active backend's GEMM does (fma_chains — see
 * Backend::gemmFmaChains) and mul-then-add steps otherwise. Outputs
 * are therefore bit-identical to the unfused path under EVERY
 * backend, ISA level and thread count, and OpCounts match exactly.
 *
 * fused_decode.cc is compiled with -ffp-contract=off (see
 * src/CMakeLists.txt), matching core/backend.cc and core/simd.cc, so
 * its scalar steps round exactly as written. The pair loop
 * replicated from cta/compressed_attention.cc (a default-flags TU)
 * contains no operation a baseline x86 build could contract;
 * tests/fused_decode_test.cc verifies the resulting bit-identity on
 * the build host.
 */

#pragma once

#include <vector>

#include "core/matrix.h"
#include "core/page_arena.h"
#include "cta/compressed_attention.h"

namespace cta::core {
struct OpCounts;
} // namespace cta::core

namespace cta::alg {

/**
 * Reusable per-session buffers of fusedDecodeAttend(). Holding them
 * in the session turns three heap allocations per decode step into
 * amortized none.
 */
struct FusedDecodeScratch
{
    std::vector<core::Real> scores; ///< k1 + k2 scaled scores
    std::vector<core::Real> ap;     ///< k1 + k2 aggregated probabilities
    std::vector<core::Real> out;    ///< d un-normalized output row
    std::vector<const core::Real *> rows; ///< K- then V-bar row pointers
};

/**
 * Computes the un-normalized decode-attention output of the single
 * query @p q_bar (1 x d) over the cached cluster projections, leaving
 * the result row in @p scratch.out and returning the probability-mass
 * row sum (the unfused path's row_sums(0, 0)). The caller owns the
 * shared tail: denominator halving, quality-guard probes and the
 * final normalization.
 *
 * @param q_bar      projected query, 1 x d
 * @param k_bar1/2   cached W^K projections of the level-1/2 centroids
 * @param v_bar1/2   cached W^V projections of the level-1/2 centroids
 * @param pairs      the session's (c1, c2) multiset (grouped
 *                   aggregation — the fused path requires it)
 * @param inv_sqrt_d the 1/sqrt(d) score scale
 * @param subtract_row_max apply the level-1 row-max shift to the
 *                   level-2 scores (CtaConfig::subtractRowMax)
 * @param fma_chains accumulate AV with one-rounding FMA steps (true
 *                   when the active backend's GEMM uses FMA chains)
 *                   instead of mul-then-add steps
 * @param counts     charged exactly as the unfused pipeline charges
 */
core::Real fusedDecodeAttend(const core::Matrix &q_bar,
                             const core::PagedRows &k_bar1,
                             const core::PagedRows &k_bar2,
                             const core::PagedRows &v_bar1,
                             const core::PagedRows &v_bar2,
                             const ClusterPairCounts &pairs,
                             core::Real inv_sqrt_d,
                             bool subtract_row_max, bool fma_chains,
                             FusedDecodeScratch &scratch,
                             core::OpCounts *counts = nullptr);

} // namespace cta::alg
