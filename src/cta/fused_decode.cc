#include "cta/fused_decode.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"
#include "core/op_counter.h"
#include "core/simd.h"
#include "obs/trace.h"

namespace cta::alg {

using core::Index;
using core::OpCounts;
using core::PagedRows;
using core::Real;
using core::Wide;

Real
fusedDecodeAttend(const core::Matrix &q_bar, const PagedRows &k_bar1,
                  const PagedRows &k_bar2, const PagedRows &v_bar1,
                  const PagedRows &v_bar2,
                  const ClusterPairCounts &pairs, Real inv_sqrt_d,
                  bool subtract_row_max, bool fma_chains,
                  FusedDecodeScratch &scratch, OpCounts *counts)
{
    CTA_TRACE_SCOPE("attention.fused_decode");
    const Index d = q_bar.cols();
    const Index k1 = k_bar1.rows();
    const Index k2 = k_bar2.rows();
    const Index k_total = k1 + k2;
    CTA_REQUIRE(q_bar.rows() == 1,
                "fused decode serves one query, got ", q_bar.rows());
    CTA_REQUIRE(k_bar1.cols() == d && k_bar2.cols() == d,
                "query dim ", d, " != cached K projection dims ",
                k_bar1.cols(), " / ", k_bar2.cols());
    CTA_REQUIRE(k_total > 0, "fused decode over empty context");
    const Index d_v = v_bar1.cols();
    CTA_REQUIRE(v_bar2.cols() == d_v, "cached V projection dims ",
                v_bar1.cols(), " / ", v_bar2.cols(), " disagree");
    CTA_REQUIRE(v_bar1.rows() == k1 && v_bar2.rows() == k2,
                "cached K/V projection row counts disagree");

    scratch.scores.resize(static_cast<std::size_t>(k_total));
    scratch.ap.assign(static_cast<std::size_t>(k_total), Real{0});
    scratch.out.assign(static_cast<std::size_t>(d_v), Real{0});
    const Real *q = q_bar.row(0).data();
    Real *srow = scratch.scores.data();
    std::vector<const Real *> &rows = scratch.rows;

    // Stage 3 scores, straight off the paged projection rows: per
    // element the Wide k-ascending chain of gemmTransposedB (the same
    // simdDotRows kernel, one row per lane), then the cast-then-
    // multiply scale() performs — the concatenated [K1-bar; K2-bar]
    // matrix is never built.
    rows.clear();
    k_bar1.appendRowPointers(rows);
    k_bar2.appendRowPointers(rows);
    core::simdDotRows(q, rows.data(), k_total, d, srow);
    core::simdScaleRow(srow, k_total, inv_sqrt_d);

    // Level-1 row-max shift of the level-2 scores: sequential scan,
    // matching the unfused step() loop comparison for comparison.
    if (subtract_row_max) {
        Real row_max = srow[0];
        for (Index j = 1; j < k1; ++j)
            row_max = std::max(row_max, srow[j]);
        for (Index j = k1; j < k_total; ++j)
            srow[j] -= row_max;
        if (counts) {
            counts->cmps += static_cast<std::uint64_t>(k1 - 1);
            counts->adds += static_cast<std::uint64_t>(k2);
        }
    }

    // Stage 4, the aggregateProbabilitiesGrouped() pair loop: one
    // exp per distinct (c1, c2) pair, weighted by its token count,
    // merged into both clusters' AP slots; one Wide total chain in
    // pair order.
    Real *aprow = scratch.ap.data();
    Wide total = 0;
    for (Index pi = 0; pi < pairs.pairCount(); ++pi) {
        const ClusterPairCounts::Pair pair = pairs.pair(pi);
        const Index c1 = pair.c1;
        const Index c2 = k1 + pair.c2;
        CTA_ASSERT(c1 < k1 && c2 < k_total,
                   "cluster index out of range");
        const Real p = std::exp(srow[c1] + srow[c2]);
        const Real weighted = static_cast<Real>(pair.count) * p;
        aprow[c1] += weighted;
        aprow[c2] += weighted;
        total += 2.0 * weighted;
    }

    // Stage 5 AV accumulation, k-ascending over the cluster rows with
    // the accumulation step class of the active backend's GEMM: FMA
    // when its GEMM fuses (SimdBackend), mul-then-add otherwise —
    // that is what keeps fused == unfused bitwise under EVERY backend.
    // The d_v-wide output row stays in registers across all rows.
    rows.clear();
    v_bar1.appendRowPointers(rows);
    v_bar2.appendRowPointers(rows);
    if (fma_chains)
        core::simdFmaRows(scratch.out.data(), rows.data(), aprow,
                          k_total, d_v);
    else
        core::simdMulAddRows(scratch.out.data(), rows.data(), aprow,
                             k_total, d_v);

    if (counts) {
        const auto kt = static_cast<std::uint64_t>(k_total);
        const auto pu = static_cast<std::uint64_t>(pairs.pairCount());
        counts->macs += kt * static_cast<std::uint64_t>(d); // scores
        counts->muls += kt;                    // 1/sqrt(d) scale
        counts->exps += pu;
        counts->muls += pu;                    // count weighting
        counts->adds += 3 * pu;                // s1+s2, two AP merges
        counts->macs += kt * static_cast<std::uint64_t>(d_v); // AV
    }
    return static_cast<Real>(total);
}

} // namespace cta::alg
