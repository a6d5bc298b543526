#include "cta/compression.h"

#include <cstring>
#include <utility>

#include "core/logging.h"
#include "core/op_counter.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cta::alg {

using core::Index;
using core::Matrix;
using core::Real;

Real
CompressionLevel::ratio() const
{
    if (table.empty())
        return 1;
    return static_cast<Real>(numClusters) /
           static_cast<Real>(table.size());
}

Matrix
aggregateCentroids(const Matrix &x, const ClusterTable &ct,
                   core::OpCounts *counts)
{
    CTA_TRACE_SCOPE("cluster.aggregate");
    CTA_REQUIRE(static_cast<Index>(ct.table.size()) == x.rows(),
                "cluster table size ", ct.table.size(),
                " != token count ", x.rows());
    const Index d = x.cols();
    Matrix centroids(ct.numClusters, d);
    std::vector<Index> members(
        static_cast<std::size_t>(ct.numClusters), 0);
    for (Index i = 0; i < x.rows(); ++i) {
        const Index c = ct.table[static_cast<std::size_t>(i)];
        CTA_ASSERT(c >= 0 && c < ct.numClusters, "bad cluster id ", c);
        Real *crow = centroids.row(c).data();
        const Real *trow = x.row(i).data();
        for (Index j = 0; j < d; ++j)
            crow[j] += trow[j];
        ++members[static_cast<std::size_t>(c)];
    }
    for (Index c = 0; c < ct.numClusters; ++c) {
        const Real inv =
            1.0f / static_cast<Real>(members[static_cast<std::size_t>(c)]);
        Real *crow = centroids.row(c).data();
        for (Index j = 0; j < d; ++j)
            crow[j] *= inv;
    }
    if (counts) {
        counts->adds += static_cast<std::uint64_t>(x.rows()) * d;
        counts->divs += static_cast<std::uint64_t>(ct.numClusters) * d;
    }
    return centroids;
}

CompressionLevel
compressTokens(const Matrix &x, const LshParams &params,
               core::OpCounts *counts)
{
    CTA_TRACE_SCOPE("compress.level");
    const HashMatrix codes = hashTokens(x, params, counts);
    ClusterTable ct = buildClusterTable(codes);
    CompressionLevel level;
    level.centroids = aggregateCentroids(x, ct, counts);
    level.numClusters = ct.numClusters;
    level.table = std::move(ct.table);
    return level;
}

TwoLevelCompression
compressTwoLevel(const Matrix &x, const LshParams &params1,
                 const LshParams &params2, core::OpCounts *counts)
{
    CTA_TRACE_SCOPE("compress.two_level");
    CTA_OBS_COUNT("compress.batch_calls", 1);
    TwoLevelCompression out;
    out.level1 = compressTokens(x, params1, counts);
    // Residual tokens rX = X - C1[CT1] (the SA's leftmost adder
    // column performs this subtraction in hardware).
    Matrix residual(x.rows(), x.cols());
    for (Index i = 0; i < x.rows(); ++i) {
        const Index c = out.level1.table[static_cast<std::size_t>(i)];
        const Real *trow = x.row(i).data();
        const Real *crow = out.level1.centroids.row(c).data();
        Real *rrow = residual.row(i).data();
        for (Index j = 0; j < x.cols(); ++j)
            rrow[j] = trow[j] - crow[j];
    }
    if (counts)
        counts->adds += static_cast<std::uint64_t>(x.size());
    out.level2 = compressTokens(residual, params2, counts);
    return out;
}

IncrementalCompression::IncrementalCompression(LshParams params)
    : IncrementalCompression(
          std::make_shared<const LshParams>(std::move(params)),
          std::make_shared<core::PageArena>(
              core::PageArena::pageBytesFromEnv()))
{
}

IncrementalCompression::IncrementalCompression(
    std::shared_ptr<const LshParams> params,
    std::shared_ptr<core::PageArena> arena)
    : params_(std::move(params)),
      arena_(std::move(arena)),
      table_(params_->hashLen(), arena_),
      sums_(arena_, params_->dim()),
      centroids_(arena_, params_->dim())
{
}

CompressionLevel
IncrementalCompression::level() const
{
    CompressionLevel level;
    level.centroids = centroids_.toMatrix();
    level.table = table_.tableSuffix(0);
    level.numClusters = numClusters();
    return level;
}

void
IncrementalCompression::appendBatch(const Matrix &tokens,
                                    std::span<Index> clusters,
                                    Matrix *residuals,
                                    core::OpCounts *counts)
{
    const Index n = tokens.rows();
    const Index d = params_->dim();
    CTA_REQUIRE(tokens.cols() == d, "token dim ", tokens.cols(),
                " != compression dim ", d);
    CTA_REQUIRE(static_cast<Index>(clusters.size()) == n,
                "batch cluster slots ", clusters.size(),
                " != token count ", n);
    CTA_REQUIRE(!residuals ||
                    (residuals->rows() == n && residuals->cols() == d),
                "batch residuals shape mismatch");
    if (n == 0)
        return;
    // Thread-local and resized, not freed: a warm decode step hashes
    // into the buffer the previous step left behind.
    thread_local std::vector<std::int32_t> codes;
    codes.resize(static_cast<std::size_t>(n * params_->hashLen()));
    {
        CTA_TRACE_SCOPE("lsh.hash");
        CTA_OBS_COUNT("lsh.tokens_hashed", static_cast<std::uint64_t>(n));
        hashRows(tokens, *params_, codes, counts);
    }
    table_.appendBatch(codes, clusters);
    for (Index i = 0; i < n; ++i) {
        const std::span<const Real> token = tokens.row(i);
        const Index c = clusters[static_cast<std::size_t>(i)];
        accumulate(token, c, counts);
        if (!residuals)
            continue;
        // Frozen-at-insertion residual against the post-insert mean.
        const std::span<const Real> mean = centroid(c);
        Real *rrow = residuals->row(i).data();
        for (Index j = 0; j < d; ++j)
            rrow[j] = token[static_cast<std::size_t>(j)] -
                      mean[static_cast<std::size_t>(j)];
    }
}

void
IncrementalCompression::accumulate(std::span<const Real> token, Index c,
                                   core::OpCounts *counts)
{
    const Index d = params_->dim();
    // Clusters are numbered in first-seen order, so a new cluster's
    // index is exactly the next row.
    if (c == static_cast<Index>(members_.size())) {
        sums_.appendZeroRow();
        centroids_.appendZeroRow();
        members_.push_back(0);
    }
    // Running member sum in ascending token order — the accumulation
    // order aggregateCentroids uses, so sums stay bit-identical to a
    // batch rebuild of the prefix. writableRow privatises the page
    // CoW first, so a forked session never touches its donor's rows.
    Real *sum = sums_.writableRow(c).data();
    for (Index j = 0; j < d; ++j)
        sum[j] += token[static_cast<std::size_t>(j)];
    ++members_[static_cast<std::size_t>(c)];
    // Refresh only the touched centroid: mean = sum * (1/count), the
    // same mul aggregateCentroids applies.
    const Real inv =
        1.0f /
        static_cast<Real>(members_[static_cast<std::size_t>(c)]);
    Real *crow = centroids_.writableRow(c).data();
    for (Index j = 0; j < d; ++j)
        crow[j] = sum[j] * inv;
    if (counts) {
        // d adds into the sum plus a d-wide centroid refresh; the
        // refresh really happens once per append here (the batch path
        // pays numClusters*d divisions once instead).
        counts->adds += static_cast<std::uint64_t>(d);
        counts->divs += static_cast<std::uint64_t>(d);
    }
}

CompressionLevelDelta
IncrementalCompression::saveDelta(
    const IncrementalCompression *base) const
{
    const Index d = params_->dim();
    CompressionLevelDelta delta;
    delta.baseTokens = base ? base->size() : 0;
    delta.baseClusters = base ? base->numClusters() : 0;
    CTA_REQUIRE(delta.baseTokens <= size() &&
                    delta.baseClusters <= numClusters(),
                "delta base (", delta.baseTokens, " tokens, ",
                delta.baseClusters, " clusters) ahead of the level (",
                size(), " tokens, ", numClusters(), " clusters)");
    delta.tableSuffix = table_.tableSuffix(delta.baseTokens);
    delta.codeSuffix = table_.codeSuffix(delta.baseClusters);
    delta.members = members_;
    // A base cluster diverged iff this level appended into it:
    // member count or bitwise sum differs. (Member counts alone are
    // not enough — an all-zero token leaves the sum bit-identical
    // while changing the centroid through the count.)
    for (Index c = 0; c < delta.baseClusters; ++c) {
        const std::span<const Real> mine = sums_.row(c);
        const std::span<const Real> theirs = base->sums_.row(c);
        const bool diverged =
            members_[static_cast<std::size_t>(c)] !=
                base->members_[static_cast<std::size_t>(c)] ||
            std::memcmp(mine.data(), theirs.data(),
                        static_cast<std::size_t>(d) * sizeof(Real)) !=
                0;
        if (diverged)
            delta.divergedRows.push_back(c);
    }
    delta.divergedSums =
        Matrix(static_cast<Index>(delta.divergedRows.size()), d);
    for (std::size_t i = 0; i < delta.divergedRows.size(); ++i) {
        const std::span<const Real> src =
            sums_.row(delta.divergedRows[i]);
        std::memcpy(delta.divergedSums.row(static_cast<Index>(i))
                        .data(),
                    src.data(),
                    static_cast<std::size_t>(d) * sizeof(Real));
    }
    delta.appendedSums =
        Matrix(numClusters() - delta.baseClusters, d);
    for (Index c = delta.baseClusters; c < numClusters(); ++c) {
        const std::span<const Real> src = sums_.row(c);
        std::memcpy(
            delta.appendedSums.row(c - delta.baseClusters).data(),
            src.data(), static_cast<std::size_t>(d) * sizeof(Real));
    }
    return delta;
}

void
IncrementalCompression::restoreDelta(
    const CompressionLevelDelta &delta)
{
    const Index d = params_->dim();
    CTA_REQUIRE(size() == delta.baseTokens,
                "delta base has ", delta.baseTokens,
                " tokens, level has ", size());
    CTA_REQUIRE(numClusters() == delta.baseClusters,
                "delta base has ", delta.baseClusters,
                " clusters, level has ", numClusters());
    table_.restoreSuffix(delta.tableSuffix, delta.codeSuffix);
    const Index k = numClusters();
    CTA_REQUIRE(static_cast<Index>(delta.members.size()) == k,
                "delta member counts ", delta.members.size(),
                " != cluster count ", k);
    for (const Index m : delta.members)
        CTA_REQUIRE(m > 0, "delta cluster with no members");
    CTA_REQUIRE(delta.appendedSums.rows() == k - delta.baseClusters &&
                    (delta.appendedSums.rows() == 0 ||
                     delta.appendedSums.cols() == d),
                "delta appended sums shape ",
                delta.appendedSums.rows(), "x",
                delta.appendedSums.cols(), " != ",
                k - delta.baseClusters, "x", d);
    CTA_REQUIRE(delta.divergedSums.rows() ==
                        static_cast<Index>(delta.divergedRows.size()) &&
                    (delta.divergedSums.rows() == 0 ||
                     delta.divergedSums.cols() == d),
                "delta diverged sums shape mismatch");
    // Non-diverged base clusters must agree with the delta's counts —
    // a cheap consistency check that catches blob/base mismatches.
    std::vector<bool> diverged(static_cast<std::size_t>(k), false);
    for (const Index c : delta.divergedRows) {
        CTA_REQUIRE(c >= 0 && c < delta.baseClusters,
                    "delta diverged row ", c, " outside base [0, ",
                    delta.baseClusters, ")");
        diverged[static_cast<std::size_t>(c)] = true;
    }
    for (Index c = 0; c < delta.baseClusters; ++c)
        if (!diverged[static_cast<std::size_t>(c)])
            CTA_REQUIRE(
                delta.members[static_cast<std::size_t>(c)] ==
                    members_[static_cast<std::size_t>(c)],
                "delta claims cluster ", c,
                " unchanged but member counts differ");
    members_ = delta.members;
    const auto refreshRow = [&](Index c) {
        const Real inv =
            1.0f /
            static_cast<Real>(members_[static_cast<std::size_t>(c)]);
        const std::span<const Real> sum = sums_.row(c);
        Real *crow = centroids_.writableRow(c).data();
        for (Index j = 0; j < d; ++j)
            crow[j] = sum[static_cast<std::size_t>(j)] * inv;
    };
    for (std::size_t i = 0; i < delta.divergedRows.size(); ++i) {
        const Index c = delta.divergedRows[i];
        const std::span<const Real> src =
            delta.divergedSums.row(static_cast<Index>(i));
        std::memcpy(sums_.writableRow(c).data(), src.data(),
                    static_cast<std::size_t>(d) * sizeof(Real));
        refreshRow(c);
    }
    for (Index r = 0; r < delta.appendedSums.rows(); ++r) {
        sums_.appendRow(delta.appendedSums.row(r));
        centroids_.appendZeroRow();
        refreshRow(delta.baseClusters + r);
    }
}

std::size_t
IncrementalCompression::stateBytes() const
{
    return table_.stateBytes() + sums_.privateBytes() +
           centroids_.privateBytes() +
           members_.capacity() * sizeof(Index);
}

IncrementalTwoLevelCompression::IncrementalTwoLevelCompression(
    LshParams params1, LshParams params2)
    : level1_(std::move(params1)), level2_(std::move(params2))
{
    CTA_REQUIRE(level1_.dim() == level2_.dim(),
                "level-1/level-2 dims differ: ", level1_.dim(), " vs ",
                level2_.dim());
}

IncrementalTwoLevelCompression::IncrementalTwoLevelCompression(
    std::shared_ptr<const LshParams> params1,
    std::shared_ptr<const LshParams> params2,
    std::shared_ptr<core::PageArena> arena)
    : level1_(std::move(params1), arena),
      level2_(std::move(params2), std::move(arena))
{
    CTA_REQUIRE(level1_.dim() == level2_.dim(),
                "level-1/level-2 dims differ: ", level1_.dim(), " vs ",
                level2_.dim());
}

void
IncrementalTwoLevelCompression::appendBatch(const Matrix &tokens,
                                            std::span<Index> level1,
                                            std::span<Index> level2,
                                            core::OpCounts *counts)
{
    CTA_TRACE_SCOPE("compress.append");
    CTA_OBS_COUNT("compress.appended_tokens",
                  static_cast<std::uint64_t>(tokens.rows()));
    // Level 2 hashes residuals frozen at insertion, which depend only
    // on level-1 state up to their own token — so all of level 1 can
    // run first, then all of level 2, with each token's arithmetic
    // the same whatever batch it arrives in.
    thread_local Matrix residuals;
    residuals.resize(tokens.rows(), tokens.cols());
    level1_.appendBatch(tokens, level1, &residuals, counts);
    if (counts)
        counts->adds += static_cast<std::uint64_t>(tokens.size());
    level2_.appendBatch(residuals, level2, nullptr, counts);
}

TwoLevelCompression
IncrementalTwoLevelCompression::snapshot() const
{
    return TwoLevelCompression{level1_.level(), level2_.level()};
}

TwoLevelDelta
IncrementalTwoLevelCompression::saveDelta(
    const IncrementalTwoLevelCompression *base) const
{
    return TwoLevelDelta{
        level1_.saveDelta(base ? &base->level1_ : nullptr),
        level2_.saveDelta(base ? &base->level2_ : nullptr)};
}

void
IncrementalTwoLevelCompression::restoreDelta(const TwoLevelDelta &delta)
{
    // Both levels hold one entry per token: a delta whose levels
    // would end at different lengths is corrupt, not restorable.
    const CompressionLevelDelta &l1 = delta.level1;
    const CompressionLevelDelta &l2 = delta.level2;
    CTA_REQUIRE(l1.baseTokens == l2.baseTokens &&
                    l1.tableSuffix.size() == l2.tableSuffix.size(),
                "two-level delta with mismatched token counts: ",
                l1.baseTokens, " + ", l1.tableSuffix.size(), " vs ",
                l2.baseTokens, " + ", l2.tableSuffix.size());
    level1_.restoreDelta(delta.level1);
    level2_.restoreDelta(delta.level2);
}

void
IncrementalTwoLevelCompression::shareTrees()
{
    level1_.shareTree();
    level2_.shareTree();
}

std::size_t
IncrementalTwoLevelCompression::stateBytes() const
{
    return level1_.stateBytes() + level2_.stateBytes();
}

TwoLevelCompression
compressTwoLevelDecode(const Matrix &x, const LshParams &params1,
                       const LshParams &params2,
                       core::OpCounts *counts)
{
    TwoLevelCompression out;
    out.level1 = compressTokens(x, params1, counts);
    // Residuals frozen at insertion: token i sees the centroid of its
    // cluster over members 0..i only. Replayed here with running
    // sums, mirroring the incremental arithmetic exactly (sum in
    // token order, mean = sum * (1/count), subtract the stored mean).
    const Index n = x.rows();
    const Index d = x.cols();
    Matrix sums(out.level1.numClusters, d);
    std::vector<Index> members(
        static_cast<std::size_t>(out.level1.numClusters), 0);
    Matrix residual(n, d);
    for (Index i = 0; i < n; ++i) {
        const Index c = out.level1.table[static_cast<std::size_t>(i)];
        Real *sum = sums.row(c).data();
        const Real *trow = x.row(i).data();
        for (Index j = 0; j < d; ++j)
            sum[j] += trow[j];
        ++members[static_cast<std::size_t>(c)];
        const Real inv =
            1.0f /
            static_cast<Real>(members[static_cast<std::size_t>(c)]);
        Real *rrow = residual.row(i).data();
        for (Index j = 0; j < d; ++j) {
            const Real mean = sum[j] * inv;
            rrow[j] = trow[j] - mean;
        }
    }
    if (counts)
        counts->adds += static_cast<std::uint64_t>(x.size());
    out.level2 = compressTokens(residual, params2, counts);
    return out;
}

Matrix
reconstruct(const CompressionLevel &level)
{
    const Index n = static_cast<Index>(level.table.size());
    Matrix out(n, level.centroids.cols());
    for (Index i = 0; i < n; ++i) {
        const Index c = level.table[static_cast<std::size_t>(i)];
        const Real *crow = level.centroids.row(c).data();
        Real *orow = out.row(i).data();
        for (Index j = 0; j < out.cols(); ++j)
            orow[j] = crow[j];
    }
    return out;
}

Matrix
reconstruct(const TwoLevelCompression &compression)
{
    Matrix coarse = reconstruct(compression.level1);
    const Matrix fine = reconstruct(compression.level2);
    return add(coarse, fine);
}

} // namespace cta::alg
