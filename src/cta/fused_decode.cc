#include "cta/fused_decode.h"

#include <algorithm>
#include <cmath>

#include "core/backend.h"
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

namespace {

/** body(begin, end) over [0, rows): inline for a decode step's one
 *  row (no std::function, no pool), else over the backend row map —
 *  rows are independent, so the partition changes no bit. */
template <class Body>
void
forRows(Index rows, const Body &body)
{
    if (rows == 1)
        body(0, 1);
    else
        core::activeBackend().mapRows(rows, body);
}

/** aggregatePairs() for one score row: returns its probability mass.
 *  Its own function, so the loop bounds stay in registers across the
 *  exp calls instead of being reloaded through a lambda capture. */
Real
aggregateRow(const Real *srow, Index k1, Index k_total,
             std::span<const ClusterPairCounts::Pair> pairs, Real *aprow)
{
    Wide total = 0;
    for (const ClusterPairCounts::Pair &pair : pairs) {
        const Index c1 = pair.c1;
        const Index c2 = k1 + pair.c2;
        CTA_ASSERT(c1 >= 0 && c1 < k1 && c2 >= k1 && c2 < k_total,
                   "cluster index out of range");
        const Real p = std::exp(srow[c1] + srow[c2]);
        const Real weighted = static_cast<Real>(pair.count) * p;
        aprow[c1] += weighted;
        aprow[c2] += weighted;
        total += 2.0 * weighted;
    }
    return static_cast<Real>(total);
}

} // namespace

void
compressedScores(const core::Matrix &q_bar, const Real *const *k_rows,
                 Index k1, Index k2, Real inv_sqrt_d,
                 bool subtract_row_max, core::Matrix &scores,
                 OpCounts *counts)
{
    const Index k_total = k1 + k2;
    CTA_REQUIRE(k1 > 0, "scores over an empty level-1 context");
    core::matmulTransBInto(
        q_bar, {k_rows, static_cast<std::size_t>(k_total)}, scores);
    core::simdScaleRow(scores.data(), scores.size(), inv_sqrt_d);
    if (subtract_row_max) {
        for (Index i = 0; i < q_bar.rows(); ++i) {
            Real *srow = scores.row(i).data();
            Real row_max = srow[0];
            for (Index j = 1; j < k1; ++j)
                row_max = std::max(row_max, srow[j]);
            for (Index j = k1; j < k_total; ++j)
                srow[j] -= row_max;
        }
    }
    if (counts) {
        const auto rows = static_cast<std::uint64_t>(q_bar.rows());
        const auto kt = static_cast<std::uint64_t>(k_total);
        counts->macs +=
            rows * kt * static_cast<std::uint64_t>(q_bar.cols());
        counts->muls += rows * kt; // 1/sqrt(d) scale
        if (subtract_row_max) {
            counts->cmps += rows * static_cast<std::uint64_t>(k1 - 1);
            counts->adds += rows * static_cast<std::uint64_t>(k2);
        }
    }
}

void
aggregatePairs(const Real *scores, Index rows, Index k1, Index k_total,
               std::span<const ClusterPairCounts::Pair> pairs, Real *ap,
               Real *row_sums, OpCounts *counts)
{
    forRows(rows, [&](Index begin, Index end) {
        for (Index i = begin; i < end; ++i)
            row_sums[i] = aggregateRow(scores + i * k_total, k1, k_total,
                                       pairs, ap + i * k_total);
    });
    if (counts) {
        const auto n = static_cast<std::uint64_t>(rows) * pairs.size();
        counts->exps += n;
        counts->adds += 3 * n; // s1+s2, two AP merges
    }
}

Real
fusedDecodeAttend(const core::Matrix &q_bar, const PagedRows &k_bar1,
                  const PagedRows &k_bar2, const PagedRows &v_bar1,
                  const PagedRows &v_bar2,
                  const ClusterPairCounts &pairs, Real inv_sqrt_d,
                  bool subtract_row_max, FusedDecodeScratch &scratch,
                  OpCounts *counts)
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
    const Index d_v = v_bar1.cols();
    CTA_REQUIRE(v_bar2.cols() == d_v, "cached V projection dims ",
                v_bar1.cols(), " / ", v_bar2.cols(), " disagree");
    CTA_REQUIRE(v_bar1.rows() == k1 && v_bar2.rows() == k2,
                "cached K/V projection row counts disagree");

    scratch.ap.assign(static_cast<std::size_t>(k_total), Real{0});
    scratch.out.assign(static_cast<std::size_t>(d_v), Real{0});
    std::vector<const Real *> &rows = scratch.rows;

    // Stages 3-4 straight off the paged projection rows: the
    // concatenated [K1-bar; K2-bar] matrix is never built.
    rows.clear();
    k_bar1.appendRowPointers(rows);
    k_bar2.appendRowPointers(rows);
    compressedScores(q_bar, rows.data(), k1, k2, inv_sqrt_d,
                     subtract_row_max, scratch.scores, counts);
    // The paged multiset gathered into one span. Thread-local, not
    // session scratch: a copy per session would double every
    // session's pair bytes.
    thread_local std::vector<ClusterPairCounts::Pair> pair_list;
    pair_list.clear();
    for (Index pi = 0; pi < pairs.pairCount(); ++pi)
        pair_list.push_back(pairs.pair(pi));
    Real row_sum = 0;
    aggregatePairs(scratch.scores.data(), 1, k1, k_total, pair_list,
                   scratch.ap.data(), &row_sum, counts);

    // Stage 5 AV accumulation: the backend GEMM's k-ascending FMA
    // chain over the cluster rows, with the d_v-wide output row held
    // in registers across all rows.
    rows.clear();
    v_bar1.appendRowPointers(rows);
    v_bar2.appendRowPointers(rows);
    core::simdFmaRows(scratch.out.data(), rows.data(), scratch.ap.data(),
                      k_total, d_v);

    if (counts) {
        counts->muls += static_cast<std::uint64_t>(pairs.pairCount());
        counts->macs += static_cast<std::uint64_t>(k_total) *
                        static_cast<std::uint64_t>(d_v); // AV
    }
    return row_sum;
}

} // namespace cta::alg
