#include "cta/compressed_attention.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "core/logging.h"
#include "core/rng.h"
#include "cta/fused_decode.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cta::alg {

using core::Index;
using core::Matrix;
using core::OpCounts;
using core::Real;

Real
CompressionStats::rl() const
{
    return static_cast<Real>(k0 + 2 * (k1 + k2)) /
           static_cast<Real>(m + 2 * n);
}

Real
CompressionStats::effectiveRelationRatio() const
{
    return static_cast<Real>(k0) * static_cast<Real>(k1 + k2) /
           (static_cast<Real>(m) * static_cast<Real>(n));
}

Real
CtaHeadSummary::measuredRa() const
{
    const OpCounts exact =
        nn::exactAttentionCalcOps(stats.m, stats.n, stats.d);
    return static_cast<Real>(attnOps.flops()) /
           static_cast<Real>(exact.flops());
}

Real
CtaHeadSummary::measuredRl() const
{
    const OpCounts exact =
        nn::exactLinearOps(stats.m, stats.n, stats.dw, stats.d);
    return static_cast<Real>(linearOps.flops()) /
           static_cast<Real>(exact.flops());
}

ClusterPairCounts::ClusterPairCounts()
    : ClusterPairCounts(std::make_shared<core::PageArena>(
          core::PageArena::pageBytesFromEnv()))
{
}

ClusterPairCounts::ClusterPairCounts(
    std::shared_ptr<core::PageArena> arena)
    : pairs_(std::move(arena))
{
}

void
ClusterPairCounts::addBatch(std::span<const Index> c1,
                            std::span<const Index> c2)
{
    CTA_REQUIRE(c1.size() == c2.size(), "pair batch sizes differ: ",
                c1.size(), " vs ", c2.size());
    // Counts token t's pair into slot `at` (a new pair when `at` is
    // past the end).
    const auto record = [&](std::size_t t, std::size_t at) {
        if (at == pairs_.size()) {
            pairs_.push_back(Pair{c1[t], c2[t], 1});
        } else {
            Pair p = pairs_[at];
            ++p.count;
            pairs_.set(at, p);
        }
        ++tokens_;
    };
    for (std::size_t t = 0; t < c1.size(); ++t)
        CTA_REQUIRE(c1[t] >= 0 && c2[t] >= 0, "negative cluster index ",
                    c1[t], ", ", c2[t]);
    if (c1.size() == 1) {
        // A decode step's one pair: distinct pairs stay few, so a
        // linear scan beats building an index over all of them.
        std::size_t at = 0;
        while (at < pairs_.size() &&
               (pairs_[at].c1 != c1[0] || pairs_[at].c2 != c2[0]))
            ++at;
        record(0, at);
        return;
    }
    const auto key = [](Index a, Index b) {
        return static_cast<std::uint64_t>(a) << 32 |
               static_cast<std::uint32_t>(b);
    };
    // Index only the batch's own distinct pairs (a restore replays a
    // few dozen against hundreds stored), then find each one's slot
    // in a single pass over the stored pairs. The index lives only
    // for this call, so the stored state — and a fork's page sharing
    // — is the same whatever the batching.
    constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(c1.size());
    for (std::size_t t = 0; t < c1.size(); ++t)
        index.try_emplace(key(c1[t], c2[t]), kUnseen);
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
        const Pair p = pairs_[i];
        const auto hit = index.find(key(p.c1, p.c2));
        if (hit != index.end())
            hit->second = i;
    }
    for (std::size_t t = 0; t < c1.size(); ++t) {
        std::size_t &at = index.find(key(c1[t], c2[t]))->second;
        if (at == kUnseen)
            at = pairs_.size();
        record(t, at);
    }
}

std::vector<ClusterPairCounts::Pair>
ClusterPairCounts::pairs() const
{
    std::vector<Pair> out;
    out.reserve(pairs_.size());
    for (std::size_t i = 0; i < pairs_.size(); ++i)
        out.push_back(pairs_[i]);
    return out;
}

void
ClusterPairCounts::clear()
{
    pairs_.clear();
    tokens_ = 0;
}

std::size_t
ClusterPairCounts::stateBytes() const
{
    return pairs_.privateBytes();
}

std::vector<ClusterPairCounts::Pair>
tokenPairs(const TwoLevelCompression &kv_comp)
{
    const std::vector<Index> &ct1 = kv_comp.level1.table;
    const std::vector<Index> &ct2 = kv_comp.level2.table;
    CTA_REQUIRE(ct1.size() == ct2.size(), "CT1/CT2 size mismatch");
    std::vector<ClusterPairCounts::Pair> pairs(ct1.size());
    for (std::size_t j = 0; j < ct1.size(); ++j)
        pairs[j] = {ct1[j], ct2[j], 1};
    return pairs;
}

void
refreshProjectedRows(const nn::Linear &linear,
                     const IncrementalCompression &level,
                     std::span<const Index> rows,
                     core::PagedRows &projected, OpCounts *counts)
{
    const Index m = static_cast<Index>(rows.size());
    const Index in = linear.inDim();
    CTA_REQUIRE(level.dim() == in, "centroid dim ", level.dim(),
                " != linear in dim ", in);
    if (m == 0)
        return;
    thread_local Matrix centroids;
    thread_local Matrix y;
    centroids.resize(m, in);
    for (Index r = 0; r < m; ++r)
        level.centroid(rows[r], centroids.row(r));
    linear.forwardInto(centroids, y, counts);
    for (Index r = 0; r < m; ++r) {
        const Index row = rows[r];
        CTA_REQUIRE(row >= 0 && row <= projected.rows() &&
                        (r == 0 || row > rows[r - 1]),
                    "projected row ", row, " out of order or range");
        if (row == projected.rows()) {
            projected.appendRow(y.row(r));
            continue;
        }
        std::copy(y.row(r).begin(), y.row(r).end(),
                  projected.writableRow(row).begin());
    }
}

LshParamSet
sampleLshParams(const CtaConfig &config, Index dim)
{
    CTA_REQUIRE(config.hashLen > 0 && config.w0 > 0 && config.w1 > 0 &&
                config.w2 > 0, "invalid CtaConfig");
    core::Rng rng(config.seed);
    LshParamSet set{
        LshParams::sample(config.hashLen, dim, config.w0, rng),
        LshParams::sample(config.hashLen, dim, config.w1, rng),
        LshParams::sample(config.hashLen, dim, config.w2, rng),
    };
    return set;
}

Matrix
projectKvCentroids(const nn::Linear &linear,
                   const TwoLevelCompression &kv_comp, OpCounts *counts)
{
    Matrix projected = linear.forward(kv_comp.level1.centroids, counts);
    projected.appendRows(linear.forward(kv_comp.level2.centroids, counts));
    return projected;
}

namespace {

/**
 * Stages 2-5 over a borrowed compression: fills @p inter's
 * projections, scores and AP (never its compressions), charges
 * @p head's op counts and stats, and writes the out.rows() x d output
 * into columns [col, col + d) of @p out. A non-null @p grid snaps
 * Q-bar/K-bar/V-bar, S-bar and the normalized k0 x d output to its
 * grids as the hardware writes them back (runCta).
 */
void
runHead(const CompressionLevel &query_comp,
        const TwoLevelCompression &kv_comp,
        const nn::AttentionHeadParams &params, bool subtract_row_max,
        const core::QuantScheme *grid, CtaIntermediates &inter,
        CtaHeadSummary &head, Matrix &out, Index col)
{
    CTA_TRACE_SCOPE("attention.from_compression");
    CTA_REQUIRE(!query_comp.table.empty() &&
                !kv_comp.level1.table.empty(),
                "empty compression");
    const Index m = out.rows();
    const auto n = static_cast<Index>(kv_comp.level1.table.size());
    const Index dw = query_comp.centroids.cols();
    const Index d = params.wq.outDim();
    CTA_REQUIRE(m <= static_cast<Index>(query_comp.table.size()) &&
                    col >= 0 && col + d <= out.cols(),
                "head output ", m, "x", d, " does not fit at column ",
                col, " of ", out.rows(), "x", out.cols(), " over ",
                query_comp.table.size(), " queries");

    const Index k0 = query_comp.numClusters;
    const Index k1 = kv_comp.level1.numClusters;
    const Index k2 = kv_comp.level2.numClusters;

    // --- Stage 2: linears on compressed tokens (eq. 3). ---
    {
        CTA_TRACE_SCOPE("attention.linears");
        inter.qBar = params.wq.forward(query_comp.centroids,
                                       &head.linearOps);
        inter.kBar = projectKvCentroids(params.wk, kv_comp,
                                        &head.linearOps);
        inter.vBar = projectKvCentroids(params.wv, kv_comp,
                                        &head.linearOps);
    }
    if (grid) {
        inter.qBar = quantizeMatrix(inter.qBar, grid->centroids);
        inter.kBar = quantizeMatrix(inter.kBar, grid->centroids);
        inter.vBar = quantizeMatrix(inter.vBar, grid->centroids);
    }

    // --- Stages 3-4: compressed scores (eq. 5) and probability
    // aggregation (Fig. 6), each token a pair of count 1. ---
    CTA_TRACE_SCOPE("attention.scores_to_output");
    const Index k_total = k1 + k2;
    std::vector<const Real *> k_rows(static_cast<std::size_t>(k_total));
    for (Index j = 0; j < k_total; ++j)
        k_rows[static_cast<std::size_t>(j)] = inter.kBar.row(j).data();
    compressedScores(inter.qBar, k_rows.data(), k1, k2,
                     1.0f / std::sqrt(static_cast<Real>(d)),
                     subtract_row_max, inter.sBar, &head.attnOps);
    if (grid)
        inter.sBar = quantizeMatrix(inter.sBar, grid->scores);
    inter.ap = Matrix(k0, k_total);
    inter.apRowSums = Matrix(k0, 1);
    OpCounts agg_ops;
    aggregatePairs(inter.sBar.data(), k0, k1, k_total,
                   tokenPairs(kv_comp), inter.ap.data(),
                   inter.apRowSums.data(), &agg_ops);
    // Paper SIII-D: the exps count against the (reduced) softmax
    // stage; the 3*k0*n merge additions are approximation overhead.
    head.attnOps.exps += agg_ops.exps;
    head.overheadOps.adds += agg_ops.adds;

    // --- Stage 5: output calculation (eq. 8). ---
    Matrix o_bar = matmul(inter.ap, inter.vBar, &head.attnOps);

    // Normalize per compressed query: divide by rowsum(AP)/2 (the
    // probabilities were accumulated twice per row). k0*d divisions,
    // matching the paper's "output divisions reduced from nd to k0d".
    for (Index i = 0; i < k0; ++i) {
        const Real denom = inter.apRowSums(i, 0) * 0.5f;
        CTA_ASSERT(denom > 0, "zero attention denominator");
        const Real inv = 1.0f / denom;
        for (Real &v : o_bar.row(i))
            v *= inv;
    }
    head.attnOps.divs += static_cast<std::uint64_t>(k0) * d;
    if (grid)
        o_bar = quantizeMatrix(o_bar, grid->tokens);

    // Expand to the original sequence: O_i = O_norm[CT0[i]].
    for (Index i = 0; i < m; ++i) {
        const auto src =
            o_bar.row(query_comp.table[static_cast<std::size_t>(i)]);
        std::copy(src.begin(), src.end(), out.row(i).begin() + col);
    }

    head.stats = CompressionStats{m, n, dw, d, k0, k1, k2};
}

} // namespace

CtaResult
detail::runCta(const Matrix &xq, const Matrix &xkv,
               const nn::AttentionHeadParams &params,
               const CtaConfig &config, bool subtract_row_max,
               const core::QuantScheme *grid)
{
    CTA_TRACE_SCOPE("attention.cta");
    CTA_OBS_COUNT("attention.cta_calls", 1);
    CTA_REQUIRE(xq.cols() == xkv.cols(), "query/key token dims differ");

    // --- Stage 1: token compression (paper SIII-A/B), KV then Q. On
    // a grid, A sits in weight memory and the centroids are written
    // back to result memory, each on its grid. The compression then
    // stays in the result, which stages 2-5 borrow it from. ---
    LshParamSet lsh = sampleLshParams(config, xq.cols());
    CtaResult result;
    CtaIntermediates &inter = result.inter;
    if (grid)
        for (LshParams *p : {&lsh.lsh0, &lsh.lsh1, &lsh.lsh2})
            p->a = quantizeMatrix(p->a, grid->lshParams);
    inter.kvComp = compressTwoLevel(xkv, lsh.lsh1, lsh.lsh2,
                                    &result.overheadOps);
    inter.queryComp = compressTokens(xq, lsh.lsh0, &result.overheadOps);
    if (grid)
        for (Matrix *c : {&inter.queryComp.centroids,
                          &inter.kvComp.level1.centroids,
                          &inter.kvComp.level2.centroids})
            *c = quantizeMatrix(*c, grid->centroids);

    result.output = Matrix(xq.rows(), params.wq.outDim());
    runHead(inter.queryComp, inter.kvComp, params, subtract_row_max,
            grid, inter, result, result.output, 0);
    return result;
}

CtaResult
ctaAttention(const Matrix &xq, const Matrix &xkv,
             const nn::AttentionHeadParams &params,
             const CtaConfig &config)
{
    return detail::runCta(xq, xkv, params, config,
                          config.subtractRowMax, nullptr);
}

CtaResult
ctaAttentionFromCompression(const CompressionLevel &query_comp,
                            const TwoLevelCompression &kv_comp,
                            Index m,
                            const nn::AttentionHeadParams &params,
                            bool subtract_row_max)
{
    CtaResult result;
    result.output = Matrix(m, params.wq.outDim());
    runHead(query_comp, kv_comp, params, subtract_row_max, nullptr,
            result.inter, result, result.output, 0);
    return result;
}

CtaHeadSummary
ctaAttentionInto(const CompressionLevel &query_comp,
                 const TwoLevelCompression &kv_comp,
                 const nn::AttentionHeadParams &params,
                 bool subtract_row_max, Matrix &out, Index col)
{
    CtaHeadSummary head;
    CtaIntermediates inter;
    runHead(query_comp, kv_comp, params, subtract_row_max, nullptr,
            inter, head, out, col);
    return head;
}

} // namespace cta::alg
