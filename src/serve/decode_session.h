/**
 * @file
 * One autoregressive decode stream served with CTA compression state
 * maintained *incrementally* across steps.
 *
 * Tokens enter one way: prefill() ingests a prompt and step() its
 * token as a batch of one, through the same path —
 *
 *   1. append the rows to the two-level KV compression
 *      (IncrementalTwoLevelCompression::appendBatch: hash only the
 *      new rows, insert into the live cluster index, update only the
 *      touched sums — O(l*d) per token) and their (c1, c2)
 *      pairs to the pair multiset (ClusterPairCounts::addBatch),
 *   2. re-project each touched centroid row once through W^K / W^V
 *      (alg::refreshProjectedRows, O(d*d) each; GEMM rows are
 *      independent under the backend determinism contract, so cached
 *      rows stay bit-identical to a full forward over the centroid
 *      matrix).
 *
 * A step then runs CTA stages 3-5 for the single new query against
 * the cached compressed projections with the fused kernel
 * (cta/fused_decode.h) — O((k1+k2)*d) scores/output plus O(pairs)
 * grouped probability aggregation. Total per-step cost is
 * O(l*d + (k1+k2)*d + pairs) — sub-linear in the context length n,
 * versus the O(n*l*d) full recompression a batch ctaAttention() call
 * pays.
 *
 * State leaves one way too: snapshot() writes a base-less or
 * shared-prefix delta (IncrementalTwoLevelCompression::saveDelta),
 * and restore() applies it.
 *
 * Equivalence contract (tests/serve_test.cc): after any number of
 * steps, kv().snapshot() is bit-identical to compressTwoLevelDecode()
 * over the same token prefix, and a step's output agrees to 1e-4 with
 * ctaAttentionFromCompression() over that rebuilt state with the new
 * token as the only query (grouped aggregation accumulates per pair,
 * not per token, so the two agree to rounding, not bit for bit).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "core/op_counter.h"
#include "core/page_arena.h"
#include "cta/compressed_attention.h"
#include "cta/compression.h"
#include "cta/fused_decode.h"
#include "nn/attention.h"

namespace cta::serve {

class SharedPrefix;

/** Serving-layer configuration of one decode session. */
struct ServeConfig
{
    /** The CTA scheme parameters (hash length, bucket widths, ...). */
    alg::CtaConfig cta;
    /**
     * Collapsed-cluster probe floor of the per-session quality guard
     * (DESIGN.md §4.5), which is always on: non-finite input tokens
     * are sanitized to zero, and a degenerate attention denominator,
     * a non-finite output, or fully collapsed clusters (k1 == k2 == 1)
     * at a context of at least this many tokens permanently demote
     * the session to exact attention instead of crashing the process.
     * On a healthy stream none of the probes fire.
     */
    core::Index guardMinContext = 4096;
};

/**
 * Serializable compression state of one DecodeSession. Holds only
 * the incremental KV compression *delta*: for a session forked from
 * a shared prefix, just the privately-owned state past the fork
 * point plus a reference to the prefix (prefixId); for a standalone
 * session, the full state as a base-less delta. The projection
 * weights, the pair multiset and the cached centroid projections are
 * all re-derivable (weights are shared model state the owner
 * re-supplies on restore, the rest is recomputed bit-identically),
 * so an evicted session costs a fraction of its live footprint —
 * and an evicted *forked* session costs only its divergence.
 */
struct SessionSnapshot
{
    core::Index tokenDim = 0;
    /** Shared-prefix reference, or -1 for a standalone snapshot. */
    std::int64_t prefixId = -1;
    /** Context length of the prefix donor at fork time. */
    core::Index prefixTokens = 0;
    alg::TwoLevelDelta kv;
};

/** Encodes @p snap as a flat little-endian byte blob (magic "CTAS",
 *  versioned, CRC-32 trailer) — what a SessionManager keeps for an
 *  evicted session. */
std::vector<std::uint8_t> serializeSnapshot(const SessionSnapshot &snap);

/**
 * Non-fatal inverse of serializeSnapshot(). Returns false — with a
 * diagnostic in @p error when non-null — on any malformed blob: bad
 * magic or version, CRC-32 mismatch (every single-byte flip and every
 * truncation lands here before structural parsing runs), or
 * structural damage behind a forged checksum. @p snap is only written
 * on success.
 */
bool tryDeserializeSnapshot(std::span<const std::uint8_t> bytes,
                            SessionSnapshot *snap,
                            std::string *error = nullptr);

/** Inverse of serializeSnapshot(); fatal on a malformed blob. Prefer
 *  tryDeserializeSnapshot() where corruption must be survivable. */
SessionSnapshot
deserializeSnapshot(std::span<const std::uint8_t> bytes);

/** Incremental CTA decode state for one attention head's stream. */
class DecodeSession
{
  public:
    /**
     * Standalone session: copies @p params, samples its own LSH set
     * and owns a private page arena.
     *
     * @param params projection weights of the served head; wq/wk/wv
     *        must all accept tokens of dimension @p token_dim
     * @param token_dim dimension d_w of incoming tokens
     */
    DecodeSession(nn::AttentionHeadParams params, ServeConfig config,
                  core::Index token_dim);

    /**
     * Serving-layer session: shares the head weights, the sampled
     * LSH parameter set and the page arena with every other session
     * of the same SessionManager. @p lsh must equal
     * sampleLshParams(config.cta, token_dim) — it is hoisted, not
     * re-interpreted.
     */
    DecodeSession(std::shared_ptr<const nn::AttentionHeadParams> params,
                  ServeConfig config, core::Index token_dim,
                  std::shared_ptr<const alg::LshParamSet> lsh,
                  std::shared_ptr<core::PageArena> arena);

    /** Withdraws the heap bytes this session posted to its arena. */
    ~DecodeSession();

    /**
     * Forks a child session off a frozen shared prefix: the child
     * starts bit-identical to the donor, sharing every state page
     * CoW — a divergent write to a cluster row copies that one row
     * into the child's row overlay, not the page or the session.
     * O(pages) bookkeeping, no state copied.
     */
    static std::unique_ptr<DecodeSession>
    forkFrom(std::shared_ptr<const SharedPrefix> prefix);

    /**
     * Freezes the current state as a shareable prefix under @p id: a
     * CoW copy of this session becomes the immutable fork donor, with
     * its row overlays folded back into pages, and the cluster code
     * indexes become lookup-only bases shared by this session, the
     * donor, and every future child. Cached
     * until the next mutation (prefill/step/restore), so repeated
     * forks off an unchanged parent reuse one donor. Fatal on a
     * fallback session (its exact caches cannot be shared CoW).
     */
    std::shared_ptr<const SharedPrefix> sharedPrefix(std::int64_t id);

    /**
     * Ingests a context-token matrix (n x tokenDim), updating KV
     * state without producing outputs: the prompt is one batch of
     * the ingest path (file comment). The state after it is
     * bit-identical to step()'s ingest of the same rows one at a time
     * (tests/serve_test.cc). Op counts differ on purpose: totalOps()
     * charges each touched centroid's projection once per batch, not
     * once per token.
     */
    void prefill(const core::Matrix &tokens);

    /**
     * Ingests @p token as a one-row batch and returns the CTA
     * attention output (1 x d) of the new token attending over the
     * whole context including itself. The single query is its own
     * cluster, so the query "compression" is the identity.
     */
    core::Matrix step(std::span<const core::Real> token);

    /** Context tokens absorbed so far (prefill + steps). */
    core::Index contextLength() const { return kv_.size(); }

    core::Index tokenDim() const { return tokenDim_; }

    const ServeConfig &config() const { return config_; }

    const nn::AttentionHeadParams &params() const { return *params_; }

    /** Live incremental KV compression state (for tests/metrics). */
    const alg::IncrementalTwoLevelCompression &kv() const
    {
        return kv_;
    }

    /** Live (c1, c2) pair multiset (for tests/metrics). */
    const alg::ClusterPairCounts &pairs() const { return pairs_; }

    /** Materializes the cached K projection of level @p level. */
    core::Matrix kBar(int level) const;

    /** Materializes the cached V projection of level @p level. */
    core::Matrix vBar(int level) const;

    /** The page arena this session allocates from. */
    const std::shared_ptr<core::PageArena> &arena() const
    {
        return arena_;
    }

    /** The shared prefix this session was forked from (or null). */
    const std::shared_ptr<const SharedPrefix> &prefix() const
    {
        return prefix_;
    }

    /** The donor sharedPrefix() froze and still caches: null once the
     *  session has mutated since its last fork. */
    const SharedPrefix *cachedPrefix() const { return frozen_.get(); }

    /** Operation counts of the most recent step() call. */
    const core::OpCounts &lastStepOps() const { return lastStepOps_; }

    /** Cumulative operation counts over prefill + all steps (a
     *  prefill charges one projection per touched centroid). */
    const core::OpCounts &totalOps() const { return totalOps_; }

    /**
     * Estimated heap bytes this session *privately* owns: solely-
     * owned arena pages of the incremental KV state (sums, member
     * counts, cluster assignments and codes; no centroids, which are
     * formed on demand) and of the cached K/V centroid projections,
     * the row overlays at their capacity, page indexes, the private
     * code indexes, the pair multiset, and (for fallback sessions)
     * the exact K/V caches; scratch buffers are not state and are not
     * priced. So a fork's private bytes grow with the cluster rows it
     * writes (about three 4·d-byte rows a touched cluster), not with
     * the pages they sit on. Pages shared with other sessions are
     * priced once by the arena (PageArena::sharedBytes), shared base
     * code indexes once per prefix (sharedTreeBytes), and the model
     * weights once per server
     * (modelBytes) — every resident byte is counted exactly once
     * across SessionManager::walkedResidentBytes(). O(pages): it asks
     * every page whether it is shared.
     */
    std::size_t stateBytes() const;

    /**
     * stateBytes() without the arena pages, in O(1): what the session
     * holds on the heap beside them. The session posts it to its
     * arena (core::PageArena::postHeapBytes) at the end of every
     * mutation — construction, fork, prefill(), step(), restore() —
     * and withdraws it on destruction; a fork donor posts its shared
     * code indexes too (sharedTreeBytes()). The arena's liveBytes() +
     * heapBytes() is then the running resident total a SessionManager
     * budgets.
     */
    std::size_t heapBytes() const;

    /** Bytes of the shared model state this session references: head
     *  projection weights and the three LSH parameter matrices. */
    std::size_t modelBytes() const;

    /** Footprint of the frozen shared code indexes, if any. */
    std::size_t sharedTreeBytes() const
    {
        return kv_.sharedTreeBytes();
    }

    /** Rows held in the row overlays of the session's paged row
     *  stores (sums and cached projections): zero for a session that
     *  has never shared a page. */
    std::size_t overlayRowCount() const;

    /**
     * True once the quality guard demoted this session to exact
     * attention. Fallback is sticky for the session's lifetime; the
     * exact K/V caches it builds are not part of snapshot(), so the
     * owner must keep a fallback session resident (SessionManager
     * pins it against eviction).
     */
    bool fallbackActive() const { return fallback_; }

    /** Why the guard fired ("" while fallbackActive() is false). */
    const char *fallbackReason() const { return fallbackReason_; }

    /** True when a fault-injection site fired inside this session's
     *  prefill()/step() calls (always false without CTA_FAULT). */
    bool faultTainted() const { return faultTainted_; }

    /** Compact serializable state (see SessionSnapshot). */
    SessionSnapshot snapshot() const;

    /**
     * Replaces this session's decode state with @p snap, recomputing
     * the pair multiset and cached projections from it. Fatal when
     * canRestore() refuses the snapshot.
     *
     * Bit-identity contract (tests/serve_test.cc): for a session
     * restored into the same (params, config, tokenDim), every
     * subsequent step() output is bit-identical to a session that was
     * never snapshotted. Op counters restart from zero — they are
     * bookkeeping, not decode state.
     */
    void restore(const SessionSnapshot &snap);

    /**
     * Non-fatal check of @p snap against the state restore() would
     * apply it to: the token dimension, the shared-prefix reference
     * and fork point (a forked snapshot needs this session to be a
     * fork of that prefix; a standalone one rebuilds from empty), and
     * every delta check of IncrementalTwoLevelCompression::canRestore
     * against the donor's (or an empty) state. Reads only; on false
     * @p error (when non-null) says why.
     */
    bool canRestore(const SessionSnapshot &snap,
                    std::string *error) const;

    /**
     * restore() that refuses instead of aborting: false — with the
     * reason in @p error when non-null and the session untouched —
     * when canRestore() fails. How a SessionManager restores a blob
     * that passed its CRC but may still be forged.
     */
    bool tryRestore(const SessionSnapshot &snap, std::string *error);

  private:
    /** CoW copy: shares every arena page with @p other. Used by
     *  sharedPrefix() (donor) and forkFrom() (children) only, which
     *  post the copy's heap bytes. */
    DecodeSession(const DecodeSession &other) = default;

    /** Posts heapBytes() + @p extra to the arena in place of what
     *  this session posted before. */
    void postHeapBytes(std::size_t extra = 0);

    /** The one ingest path of prefill() and step(): appends the
     *  (sanitized) @p rows to the KV state and the pair multiset,
     *  re-projects each touched centroid once, and extends the exact
     *  K/V caches of a fallback session. */
    void ingest(const core::Matrix &rows, core::OpCounts *counts);

    /** Adds the (c1, c2) pair of every token from @p from on, in
     *  token order, to the pair multiset (restore's replay). */
    void replayPairs(core::Index from);

    /** Re-projects centroids @p rows (ascending) of @p level through
     *  W^K into @p k_rows and W^V into @p v_rows. */
    void reproject(const alg::IncrementalCompression &level,
                   std::span<const core::Index> rows,
                   core::PagedRows &k_rows, core::PagedRows &v_rows,
                   core::OpCounts *counts);

    /** Demotes the session to exact attention: seeds the exact K/V
     *  caches from the reconstructed compression (the in-hand token
     *  replaces its approximate last row) and bumps serve.fallback. */
    void activateFallback(const char *reason,
                          std::span<const core::Real> token,
                          core::OpCounts *counts);

    /** Exact attention of @p token (already cached as the last K/V
     *  row) over the whole cached context; output is always finite. */
    core::Matrix exactStep(std::span<const core::Real> token,
                           core::OpCounts *counts);

    std::shared_ptr<const nn::AttentionHeadParams> params_;
    ServeConfig config_;
    std::shared_ptr<const alg::LshParamSet> lsh_;
    std::shared_ptr<core::PageArena> arena_;
    alg::IncrementalTwoLevelCompression kv_;
    core::PagedRows kBar1_; ///< k1 x d cached W^K projection of C1
    core::PagedRows kBar2_; ///< k2 x d cached W^K projection of C2
    core::PagedRows vBar1_; ///< k1 x d cached W^V projection of C1
    core::PagedRows vBar2_; ///< k2 x d cached W^V projection of C2
    alg::ClusterPairCounts pairs_;
    /** Reused fused-kernel buffers (alloc-free steady-state steps). */
    alg::FusedDecodeScratch fusedScratch_;
    /** The frozen prefix this session was forked from, if any. */
    std::shared_ptr<const SharedPrefix> prefix_;
    /** Cached sharedPrefix() donor; reset on every mutation. */
    std::shared_ptr<const SharedPrefix> frozen_;
    core::Index tokenDim_ = 0;
    core::OpCounts lastStepOps_;
    core::OpCounts totalOps_;
    core::Matrix kCache_; ///< n x d exact K cache (fallback only)
    core::Matrix vCache_; ///< n x d exact V cache (fallback only)
    bool fallback_ = false;
    bool faultTainted_ = false;
    const char *fallbackReason_ = "";
    /** What this session last posted to arena_->heapBytes(). A copy
     *  starts at zero, having posted nothing yet, and cannot be
     *  assigned over (two sessions would then withdraw one post). */
    struct PostedHeapBytes
    {
        std::size_t bytes = 0;
        PostedHeapBytes() = default;
        PostedHeapBytes(const PostedHeapBytes &) {}
        PostedHeapBytes &operator=(const PostedHeapBytes &) = delete;
    } postedHeap_;
};

/**
 * An immutable fork donor: a CoW-frozen copy of a DecodeSession at
 * the moment sharedPrefix() was called, identified by a manager-
 * scoped id. Children forked from it share all its arena pages and
 * its frozen cluster code indexes; their snapshots serialize only the
 * delta past this state plus the id.
 */
class SharedPrefix
{
  public:
    SharedPrefix(std::int64_t id,
                 std::unique_ptr<const DecodeSession> donor)
        : id_(id), donor_(std::move(donor))
    {
    }

    std::int64_t id() const { return id_; }

    const DecodeSession &donor() const { return *donor_; }

    /** Context length of the donor (the fork point). */
    core::Index tokens() const { return donor_->contextLength(); }

    /** True when the donor is itself a fork of another prefix. */
    bool donorIsFork() const { return donor_->prefix() != nullptr; }

  private:
    std::int64_t id_;
    std::unique_ptr<const DecodeSession> donor_;
};

} // namespace cta::serve
