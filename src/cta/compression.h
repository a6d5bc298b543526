/**
 * @file
 * Token compression (paper SIII-B).
 *
 * One-level compression clusters tokens by LSH and replaces each
 * cluster with its centroid (mean of member tokens, Fig. 4b).
 * Two-level compression (used for key/value tokens) clusters the
 * *residuals* X - C1[CT1] a second time, so tokens are approximated
 * as the sum of a coarse and a fine centroid (eq. 2):
 *
 *   X_i  =~  C1[CT1[i]] + C2[CT2[i]]
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "core/page_arena.h"
#include "cta/cluster_tree.h"
#include "cta/lsh.h"

namespace cta::serve {
class DecodeSession;
} // namespace cta::serve

namespace cta::alg {

/** One clustering level: centroids plus the token -> cluster table. */
struct CompressionLevel
{
    core::Matrix centroids;          ///< numClusters x d
    std::vector<core::Index> table;  ///< CT: token -> cluster index
    core::Index numClusters = 0;     ///< k

    /** Compression ratio k / n. */
    core::Real ratio() const;
};

/** Two-level residual compression of a key/value token matrix. */
struct TwoLevelCompression
{
    CompressionLevel level1; ///< coarse (LSH1)
    CompressionLevel level2; ///< fine, over residuals (LSH2)

    /** k1 + k2, the compressed KV token count. */
    core::Index totalClusters() const
    {
        return level1.numClusters + level2.numClusters;
    }
};

/**
 * Averages tokens per cluster (Fig. 4b centroid aggregation).
 *
 * Charges n*d adds and k*d divisions when @p counts is given —
 * the paper's SIII-D centroid-aggregation overhead.
 */
core::Matrix aggregateCentroids(const core::Matrix &x,
                                const ClusterTable &ct,
                                core::OpCounts *counts = nullptr);

/** Hash + cluster + aggregate: one full compression level. */
CompressionLevel compressTokens(const core::Matrix &x,
                                const LshParams &params,
                                core::OpCounts *counts = nullptr);

/**
 * Two-level residual compression: level 1 on @p x with @p params1,
 * level 2 on the residual tokens with @p params2 (Fig. 3b).
 * Charges n*d adds for forming residuals.
 */
TwoLevelCompression compressTwoLevel(const core::Matrix &x,
                                     const LshParams &params1,
                                     const LshParams &params2,
                                     core::OpCounts *counts = nullptr);

/** Reconstructs X~ with X~_i = centroids[CT[i]] (eq. 2, queries). */
core::Matrix reconstruct(const CompressionLevel &level);

/** Reconstructs X~_i = C1[CT1[i]] + C2[CT2[i]] (eq. 2, keys/values). */
core::Matrix reconstruct(const TwoLevelCompression &compression);

/**
 * Delta state of one compression level against a shared-prefix base:
 * everything the level accumulated past the fork point, plus the base
 * rows the child diverged from. A cluster diverges exactly when the
 * child appended a token into it, which is exactly when the child
 * wrote its sum row (an all-zero token still counts: it changes the
 * member count, and hence the centroid, without changing the sum).
 * With no base (baseTokens == baseClusters == 0) the delta is a
 * complete snapshot: restoreDelta() then rebuilds from empty. The
 * delta is the only form a level's state leaves in.
 *
 * Centroids are absent because no level stores them: a centroid is
 * always formed as sum * (1/count) from the sums and counts the delta
 * carries. The code index is absent too: the first-seen codes rebuild
 * it (IncrementalClusterTable).
 */
struct CompressionLevelDelta
{
    core::Index baseTokens = 0;
    core::Index baseClusters = 0;
    /** token -> cluster for tokens [baseTokens, size). */
    std::vector<core::Index> tableSuffix;
    /** First-seen codes of clusters [baseClusters, k), flattened. */
    std::vector<std::int32_t> codeSuffix;
    /** Full per-cluster member counts (all k clusters). */
    std::vector<core::Index> members;
    /** Base cluster ids whose sums/counts differ from the base. */
    std::vector<core::Index> divergedRows;
    core::Matrix divergedSums;  ///< |divergedRows| x d
    core::Matrix appendedSums;  ///< (k - baseClusters) x d
};

/**
 * One streaming compression level for autoregressive decode:
 * appendBatch() hashes just the new tokens (a prompt, or a decode
 * step's one row), inserts their codes into the live cluster index
 * and adds each into its cluster's running sum — O(l*d) per token
 * instead of the O(n*l*d) full recompression compressTokens() pays
 * per call.
 *
 * Centroid contract: the level stores sums and member counts, never
 * centroids. centroid() forms cluster c's mean on demand as
 * sum * (1/count), the one expression aggregateCentroids() applies,
 * wherever a mean is needed: the level-2 residual, re-projection and
 * level(). So a centroid has the same bits wherever and whenever it
 * is formed, and a fork writes one row per touched cluster, not two.
 *
 * Equivalence contract: level() after any sequence of batches is
 * bit-identical to compressTokens() over the same token prefix. The
 * table matches because index assignment is order-streaming;
 * centroids match because each cluster's sum accumulates its members
 * in ascending token order — exactly aggregateCentroids()'s order —
 * and the mean is formed the same way. Enforced by
 * tests/serve_test.cc.
 */
class IncrementalCompression
{
  public:
    /** Standalone level: copies @p params, owns a private arena. */
    explicit IncrementalCompression(LshParams params);

    /** Serving-layer level: shares LSH parameters and the page arena
     *  with every other session of the same manager. */
    IncrementalCompression(std::shared_ptr<const LshParams> params,
                           std::shared_ptr<core::PageArena> arena);

    /**
     * Appends every row of @p tokens in order: the rows are hashed as
     * one batch (hashRows, one "lsh.hash" span), their codes inserted
     * in one pass (IncrementalClusterTable::appendBatch), then each
     * token's running sum and centroid update in token order, so any
     * split of a token sequence into batches lands on the same state.
     * clusters[i] receives the cluster row i joined. When
     * @p residuals is non-null (rows x dim()), its row i receives
     * token i minus its cluster's centroid right after token i's
     * update — the frozen-at-insertion level-2 residual of
     * IncrementalTwoLevelCompression. The code buffer is thread-local
     * and reused, so a warm append allocates only when its state
     * grows.
     */
    void appendBatch(const core::Matrix &tokens,
                     std::span<core::Index> clusters,
                     core::Matrix *residuals = nullptr,
                     core::OpCounts *counts = nullptr);

    /** Materializes the compression of every token appended so far. */
    CompressionLevel level() const;

    /** Writes the current centroid of cluster @p c, sum * (1/count),
     *  into @p out (dim() values). */
    void centroid(core::Index c, std::span<core::Real> out) const;

    /** Tokens appended so far. */
    core::Index size() const { return table_.size(); }

    core::Index numClusters() const { return table_.numClusters(); }

    core::Index dim() const { return params_->dim(); }

    /** The live cluster table (paged assignments, no copy). */
    const IncrementalClusterTable &clusters() const { return table_; }

    /** Running member sums, paged (numClusters rows). */
    const core::PagedRows &sums() const { return sums_; }

    const std::vector<core::Index> &memberCounts() const
    {
        return members_;
    }

    /**
     * Delta against @p base (a frozen shared-prefix donor this level
     * was forked from), or a complete snapshot when @p base is null.
     * @p base must be the level this one was copied from (and rebased
     * on), whose pages it still shares: every base cluster this level
     * appended into then sits in the sums' row overlay or among the
     * rows a fold kept, and those row ids are the delta's diverged
     * rows, with no row compared.
     */
    CompressionLevelDelta
    saveDelta(const IncrementalCompression *base) const;

    /**
     * The non-fatal form of every check restoreDelta() makes: true
     * when @p delta applies on top of this level's current state or,
     * with @p from_empty, on top of an empty level with the same
     * parameters (a standalone snapshot). Checks the base token and
     * cluster counts, that the fresh codes split into whole codes
     * that found new, distinct clusters, one positive member count
     * per cluster (unchanged for base rows the delta does not list),
     * ascending diverged rows inside the base, table entries below
     * the cluster count, and the sums' shapes. Reads only, so a
     * corrupt delta is refused before any state mutates; on false
     * @p error (when non-null) names the first inconsistency.
     */
    bool canRestore(const CompressionLevelDelta &delta, bool from_empty,
                    std::string *error) const;

    /**
     * Applies @p delta on top of the current state, which must be
     * exactly the delta's base (canRestore(), verified fatally). For
     * a full delta the level must be empty or is reset by the caller
     * first.
     */
    void restoreDelta(const CompressionLevelDelta &delta);

    /** Freezes the cluster code index into a shared base (fork
     *  donors). */
    void shareTree() { table_.shareTree(); }

    /** Writes the sums' row overlay back into pages (before a fork
     *  donor is frozen; core::PagedRows::foldOverlay), keeping the
     *  overlay's row ids as rows this level has written since its
     *  base, so saveDelta() still lists them. */
    void foldOverlay();

    /** Makes the current state this level's delta base: forgets the
     *  rows foldOverlay() kept. A fresh fork of a donor has written
     *  nothing yet. */
    void rebase() { folded_ = {}; }

    /** Privately-owned heap footprint of the live level: solely-owned
     *  pages, row overlays, page indexes, member counts and the
     *  post-fork code index. Shared pages and shared base indexes are
     *  priced elsewhere. */
    std::size_t stateBytes() const;

    /** stateBytes() without the arena pages: what the level holds on
     *  the heap beside them. */
    std::size_t heapBytes() const;

    /** Footprint of the frozen shared code index, if any. */
    std::size_t sharedTreeBytes() const
    {
        return table_.sharedTreeBytes();
    }

  private:
    friend class IncrementalTwoLevelCompression;

    /** Adds @p token into cluster @p c's running sum, creating the
     *  row when @p c is new. */
    void accumulate(std::span<const core::Real> token, core::Index c,
                    core::OpCounts *counts);

    /** restoreDelta() for a delta canRestore() has already accepted
     *  against this state: the apply step alone, no check. */
    void applyCheckedDelta(const CompressionLevelDelta &delta);

    std::shared_ptr<const LshParams> params_;
    std::shared_ptr<core::PageArena> arena_;
    IncrementalClusterTable table_;
    core::PagedRows sums_; ///< numClusters x d member sums
    std::vector<core::Index> members_;
    /** Rows written since the base whose overlay copies were folded
     *  into pages, ascending (a frozen fork's divergence). */
    std::vector<core::Index> folded_;
};

/** Delta state of both levels against a shared-prefix base. */
struct TwoLevelDelta
{
    CompressionLevelDelta level1;
    CompressionLevelDelta level2;
};

/**
 * Streaming two-level residual compression — the KV-side state a
 * decode session maintains across steps.
 *
 * Decode-time residual semantics: the level-2 residual of token i is
 * frozen at insertion, r_i = x_i - C1[CT1[i]] with C1 taken right
 * after inserting token i. (Batch compressTwoLevel() subtracts the
 * *final* centroids instead; under that definition every append to a
 * cluster would change the residuals — and hence level-2 codes — of
 * all its earlier members, forcing O(n) rehash/rebuild work per step.
 * Freezing keeps appends O(l*d) while eq. 2 still holds with the
 * prefix centroid state.) The from-scratch reference for this
 * semantics is compressTwoLevelDecode(); incremental state must match
 * it bit-for-bit at every prefix length (tests/serve_test.cc).
 */
class IncrementalTwoLevelCompression
{
  public:
    IncrementalTwoLevelCompression(LshParams params1,
                                   LshParams params2);

    IncrementalTwoLevelCompression(
        std::shared_ptr<const LshParams> params1,
        std::shared_ptr<const LshParams> params2,
        std::shared_ptr<core::PageArena> arena);

    /**
     * Appends every row of @p tokens to both levels — the only way
     * tokens enter: level 1 takes the whole batch (one batch hash,
     * then in-order inserts that also freeze each token's residual),
     * then level 2 takes the batch of residuals (thread-local
     * scratch). Row i's clusters land in level1[i] and level2[i]. One
     * "compress.append" span per batch; compress.appended_tokens
     * counts rows.
     */
    void appendBatch(const core::Matrix &tokens,
                     std::span<core::Index> level1,
                     std::span<core::Index> level2,
                     core::OpCounts *counts = nullptr);

    const IncrementalCompression &level1() const { return level1_; }
    const IncrementalCompression &level2() const { return level2_; }

    /** Copies the current state into a batch TwoLevelCompression. */
    TwoLevelCompression snapshot() const;

    /** Delta of both levels against @p base (null -> full). The
     *  only form the state leaves in (eviction, tests). */
    TwoLevelDelta
    saveDelta(const IncrementalTwoLevelCompression *base) const;

    /** Non-fatal check that @p delta applies on top of the current
     *  state (or, with @p from_empty, an empty one): both levels end
     *  at the same token count and each passes
     *  IncrementalCompression::canRestore. Reads only. */
    bool canRestore(const TwoLevelDelta &delta, bool from_empty,
                    std::string *error) const;

    /** Applies @p delta on top of the current (base) state; appends
     *  afterwards are bit-identical to an instance that never left.
     *  Fatal when canRestore() would refuse it. */
    void restoreDelta(const TwoLevelDelta &delta);

    /** Freezes both cluster indexes into shared bases (fork donors). */
    void shareTrees();

    /** Folds both levels' row overlays into pages (fork donors). */
    void foldOverlays();

    /** Makes the current state both levels' delta base (a fresh fork
     *  of a donor; IncrementalCompression::rebase). */
    void rebase();

    /** Privately-owned heap footprint of both live levels (see
     *  IncrementalCompression::stateBytes). */
    std::size_t stateBytes() const;

    /** stateBytes() without the pages (IncrementalCompression::
     *  heapBytes). */
    std::size_t heapBytes() const
    {
        return level1_.heapBytes() + level2_.heapBytes();
    }

    /** Footprint of the frozen shared code indexes, if any. */
    std::size_t sharedTreeBytes() const
    {
        return level1_.sharedTreeBytes() + level2_.sharedTreeBytes();
    }

    /** Tokens appended so far. */
    core::Index size() const { return level1_.size(); }

  private:
    // The session's restore checks a snapshot with canRestore() against
    // the state it then copies in, so it applies without a re-check.
    friend class serve::DecodeSession;

    /** restoreDelta() for a delta canRestore() has already accepted
     *  against this exact state (or, from empty, an empty one). */
    void applyCheckedDelta(const TwoLevelDelta &delta);

    IncrementalCompression level1_;
    IncrementalCompression level2_;
};

/**
 * From-scratch rebuild of the decode-time two-level compression over
 * a whole prefix, built from the batch primitives (hashTokens,
 * buildClusterTable, aggregateCentroids): level 1 is exactly
 * compressTokens(); residuals are then formed sequentially against
 * the running (prefix) centroid of each token's cluster and level 2
 * is compressTokens() over those residuals. This is the independent
 * reference IncrementalTwoLevelCompression is bit-compared against.
 */
TwoLevelCompression compressTwoLevelDecode(const core::Matrix &x,
                                           const LshParams &params1,
                                           const LshParams &params2,
                                           core::OpCounts *counts =
                                               nullptr);

} // namespace cta::alg
