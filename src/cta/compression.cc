#include "cta/compression.h"

#include <algorithm>
#include <cstring>
#include <iterator>
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
      sums_(arena_, params_->dim())
{
}

void
IncrementalCompression::centroid(Index c, std::span<Real> out) const
{
    const std::span<const Real> sum = sums_.row(c);
    // mean = sum * (1/count): the mul aggregateCentroids applies.
    const Real inv =
        1.0f / static_cast<Real>(members_[static_cast<std::size_t>(c)]);
    for (std::size_t j = 0; j < sum.size(); ++j)
        out[j] = sum[j] * inv;
}

CompressionLevel
IncrementalCompression::level() const
{
    CompressionLevel level;
    level.centroids = Matrix(numClusters(), dim());
    for (Index c = 0; c < numClusters(); ++c)
        centroid(c, level.centroids.row(c));
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
        // Frozen-at-insertion residual against the post-insert mean,
        // formed in the residual row and then subtracted from.
        const std::span<Real> rrow = residuals->row(i);
        centroid(c, rrow);
        for (Index j = 0; j < d; ++j)
            rrow[static_cast<std::size_t>(j)] =
                token[static_cast<std::size_t>(j)] -
                rrow[static_cast<std::size_t>(j)];
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
        // Grow by an eighth, not by doubling: a fork's copy of the
        // counts starts full, and its first new cluster would
        // otherwise double a capacity that is priced.
        if (members_.size() == members_.capacity())
            members_.reserve(members_.size() +
                             std::max<std::size_t>(16, members_.size() / 8));
        members_.push_back(0);
    }
    // Running member sum in ascending token order — the accumulation
    // order aggregateCentroids uses, so sums stay bit-identical to a
    // batch rebuild of the prefix. On a page shared with a fork donor
    // writableRow copies just this row into the private overlay, so a
    // forked session never touches its donor's rows.
    Real *sum = sums_.writableRow(c).data();
    for (Index j = 0; j < d; ++j)
        sum[j] += token[static_cast<std::size_t>(j)];
    ++members_[static_cast<std::size_t>(c)];
    if (counts) {
        // d adds into the sum plus the d-wide mean of the touched
        // cluster, which a decode append forms once per token (the
        // batch path pays numClusters*d divisions once instead).
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
    // A base cluster diverged iff this level appended into it, iff it
    // wrote the cluster's sum row. Every base row sits on a page
    // shared with @p base, so each such write went to the overlay (or
    // was folded from it): those ids below baseClusters are the
    // diverged rows, ascending.
    const std::span<const Index> written = sums_.overlayRows();
    std::set_union(
        folded_.begin(),
        std::lower_bound(folded_.begin(), folded_.end(),
                         delta.baseClusters),
        written.begin(),
        std::lower_bound(written.begin(), written.end(),
                         delta.baseClusters),
        std::back_inserter(delta.divergedRows));
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

bool
IncrementalCompression::canRestore(const CompressionLevelDelta &delta,
                                   bool from_empty,
                                   std::string *error) const
{
    const auto fail = [error](const auto &...parts) {
        if (error)
            *error = core::detail::concat(parts...);
        return false;
    };
    const Index d = dim();
    const Index l = params_->hashLen();
    const Index tokens = from_empty ? 0 : size();
    const Index base = from_empty ? 0 : numClusters();
    if (delta.baseTokens != tokens || delta.baseClusters != base)
        return fail("delta base (", delta.baseTokens, " tokens, ",
                    delta.baseClusters, " clusters) != level (", tokens,
                    " tokens, ", base, " clusters)");
    if (delta.codeSuffix.size() % static_cast<std::size_t>(l) != 0)
        return fail("delta cluster codes (", delta.codeSuffix.size(),
                    ") not a multiple of hash length ", l);
    const Index fresh = static_cast<Index>(delta.codeSuffix.size()) / l;
    const Index k = base + fresh;
    if (static_cast<Index>(delta.members.size()) != k)
        return fail("delta member counts ", delta.members.size(),
                    " != cluster count ", k);
    for (Index c = 0; c < k; ++c)
        if (delta.members[static_cast<std::size_t>(c)] <= 0)
            return fail("delta cluster ", c, " has no members");
    for (const Index c : delta.tableSuffix)
        if (c < 0 || c >= k)
            return fail("delta table entry ", c, " outside [0, ", k,
                        ")");
    const std::vector<Index> &diverged = delta.divergedRows;
    for (std::size_t i = 0; i < diverged.size(); ++i)
        if (diverged[i] < 0 || diverged[i] >= base ||
            (i > 0 && diverged[i] <= diverged[i - 1]))
            return fail("delta diverged row ", diverged[i],
                        " out of order or outside base [0, ", base,
                        ")");
    // Every base row the delta does not list keeps the base's count.
    auto listed = diverged.begin();
    for (Index c = 0; c < base; ++c) {
        if (listed != diverged.end() && *listed == c) {
            ++listed;
            continue;
        }
        if (delta.members[static_cast<std::size_t>(c)] !=
            members_[static_cast<std::size_t>(c)])
            return fail("delta claims cluster ", c,
                        " unchanged but member counts differ");
    }
    const auto shaped = [d](const Matrix &m, Index rows) {
        return m.rows() == rows && (rows == 0 || m.cols() == d);
    };
    if (!shaped(delta.divergedSums,
                static_cast<Index>(delta.divergedRows.size())))
        return fail("delta diverged sums shape ",
                    delta.divergedSums.rows(), "x",
                    delta.divergedSums.cols(), " != ",
                    delta.divergedRows.size(), "x", d);
    if (!shaped(delta.appendedSums, fresh))
        return fail("delta appended sums shape ",
                    delta.appendedSums.rows(), "x",
                    delta.appendedSums.cols(), " != ", fresh, "x", d);
    // Each fresh code must found its own new cluster: unknown to the
    // base and distinct from the other fresh codes.
    const auto code = [&](Index c) {
        return std::span<const std::int32_t>(
            delta.codeSuffix.data() + static_cast<std::size_t>(c * l),
            static_cast<std::size_t>(l));
    };
    thread_local std::vector<Index> order;
    order.clear();
    for (Index c = 0; c < fresh; ++c) {
        if (!from_empty && table_.find(code(c)) >= 0)
            return fail("delta cluster code ", c,
                        " already names a base cluster");
        order.push_back(c);
    }
    const auto less = [&](Index a, Index b) {
        const auto ca = code(a), cb = code(b);
        return std::lexicographical_compare(ca.begin(), ca.end(),
                                            cb.begin(), cb.end());
    };
    std::sort(order.begin(), order.end(), less);
    for (std::size_t i = 1; i < order.size(); ++i)
        if (!less(order[i - 1], order[i]))
            return fail("delta cluster codes ", order[i - 1], " and ",
                        order[i], " are equal");
    return true;
}

void
IncrementalCompression::restoreDelta(
    const CompressionLevelDelta &delta)
{
    std::string why;
    CTA_REQUIRE(canRestore(delta, false, &why),
                "corrupt compression delta: ", why);
    applyCheckedDelta(delta);
}

void
IncrementalCompression::applyCheckedDelta(
    const CompressionLevelDelta &delta)
{
    const Index d = params_->dim();
    table_.restoreSuffix(delta.tableSuffix, delta.codeSuffix);
    members_ = delta.members;
    for (std::size_t i = 0; i < delta.divergedRows.size(); ++i) {
        const std::span<const Real> src =
            delta.divergedSums.row(static_cast<Index>(i));
        std::memcpy(sums_.writableRow(delta.divergedRows[i]).data(),
                    src.data(),
                    static_cast<std::size_t>(d) * sizeof(Real));
    }
    for (Index r = 0; r < delta.appendedSums.rows(); ++r)
        sums_.appendRow(delta.appendedSums.row(r));
}

void
IncrementalCompression::foldOverlay()
{
    const std::span<const Index> written = sums_.overlayRows();
    if (written.empty())
        return;
    std::vector<Index> merged;
    merged.reserve(folded_.size() + written.size());
    std::set_union(folded_.begin(), folded_.end(), written.begin(),
                   written.end(), std::back_inserter(merged));
    folded_ = std::move(merged);
    sums_.foldOverlay();
}

std::size_t
IncrementalCompression::stateBytes() const
{
    return table_.stateBytes() + sums_.privateBytes() +
           members_.capacity() * sizeof(Index) +
           folded_.capacity() * sizeof(Index);
}

std::size_t
IncrementalCompression::heapBytes() const
{
    return table_.heapBytes() + sums_.heapBytes() +
           members_.capacity() * sizeof(Index) +
           folded_.capacity() * sizeof(Index);
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

namespace {

/** Both levels hold one entry per token: a delta whose levels would
 *  end at different lengths is corrupt, not restorable. Empty when
 *  they agree, else the diagnostic. */
std::string
levelMismatch(const TwoLevelDelta &delta)
{
    const CompressionLevelDelta &l1 = delta.level1;
    const CompressionLevelDelta &l2 = delta.level2;
    if (l1.baseTokens == l2.baseTokens &&
        l1.tableSuffix.size() == l2.tableSuffix.size())
        return {};
    return core::detail::concat(
        "two-level delta with mismatched token counts: ", l1.baseTokens,
        " + ", l1.tableSuffix.size(), " vs ", l2.baseTokens, " + ",
        l2.tableSuffix.size());
}

} // namespace

bool
IncrementalTwoLevelCompression::canRestore(const TwoLevelDelta &delta,
                                           bool from_empty,
                                           std::string *error) const
{
    std::string mismatch = levelMismatch(delta);
    if (!mismatch.empty()) {
        if (error)
            *error = std::move(mismatch);
        return false;
    }
    return level1_.canRestore(delta.level1, from_empty, error) &&
           level2_.canRestore(delta.level2, from_empty, error);
}

void
IncrementalTwoLevelCompression::restoreDelta(const TwoLevelDelta &delta)
{
    // Level-wise checks run inside each level's restoreDelta; the
    // cross-level one runs first, before either level mutates.
    const std::string mismatch = levelMismatch(delta);
    CTA_REQUIRE(mismatch.empty(), mismatch);
    level1_.restoreDelta(delta.level1);
    level2_.restoreDelta(delta.level2);
}

void
IncrementalTwoLevelCompression::applyCheckedDelta(
    const TwoLevelDelta &delta)
{
    level1_.applyCheckedDelta(delta.level1);
    level2_.applyCheckedDelta(delta.level2);
}

void
IncrementalTwoLevelCompression::shareTrees()
{
    level1_.shareTree();
    level2_.shareTree();
}

void
IncrementalTwoLevelCompression::foldOverlays()
{
    level1_.foldOverlay();
    level2_.foldOverlay();
}

void
IncrementalTwoLevelCompression::rebase()
{
    level1_.rebase();
    level2_.rebase();
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
