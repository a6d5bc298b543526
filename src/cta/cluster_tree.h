/**
 * @file
 * Cluster tree: maps each l-dimensional hash code to a dense cluster
 * index (paper SIII-A, Fig. 4a). A trie with l layers below the root;
 * each root-to-leaf path is one distinct hash code, each leaf holds
 * the cluster index assigned when that code was first seen.
 *
 * Software needs no trie for that mapping: one flat
 * ClusterCodeIndex, keyed on full codes, serves both the batch
 * buildClusterTable() and the serving layer's streaming
 * IncrementalClusterTable, and both assign the same dense first-seen
 * indices. The trie itself is modelled by LinearClusterTree:
 * linearly-allocated per-layer node arrays with associative (hash
 * value, child address) pairs — the structure the paper's Cluster
 * Index Module stores in its layer memories (SIV-B(2): "pointers ...
 * are allocated and managed linearly"). It counts memory probes so
 * the CIM timing/energy model can consume them, and it is the
 * independent oracle tests/cluster_tree_test.cc checks both software
 * tables against.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/page_arena.h"
#include "core/types.h"
#include "cta/lsh.h"

namespace cta::alg {

/** Result of clustering a token sequence. */
struct ClusterTable
{
    /** table[i] = cluster index of token i, in [0, numClusters). */
    std::vector<core::Index> table;
    /** Number of distinct clusters (== number of distinct codes). */
    core::Index numClusters = 0;
};

/**
 * Hardware-faithful cluster tree with linear node allocation.
 *
 * Layer i (0-based, i < l-1) stores internal nodes as growing arrays
 * of (hash value, child address) entries; the leaf layer stores
 * cluster indices. assign() walks one layer per step exactly like a
 * CIM thread and tallies the memory reads/writes and comparisons the
 * walk performs.
 */
class LinearClusterTree
{
  public:
    explicit LinearClusterTree(core::Index hash_len);

    /**
     * Looks up (inserting if absent) the cluster for @p code; returns
     * its dense index. Indices are assigned in first-seen order
     * starting at 0.
     */
    core::Index assign(std::span<const std::int32_t> code);

    core::Index numClusters() const { return clusterCount_; }

    /** Memory words read during assigns (CIM layer-memory reads). */
    std::uint64_t memReads() const { return memReads_; }

    /** Memory words written during assigns (node allocations). */
    std::uint64_t memWrites() const { return memWrites_; }

    /** (value == stored-value) comparisons performed. */
    std::uint64_t probes() const { return probes_; }

    /** Total nodes allocated across all layers (area proxy). */
    core::Index nodesAllocated() const { return nodesAllocated_; }

  private:
    struct Entry
    {
        std::int32_t hashVal;
        core::Index childAddr;
    };

    struct Node
    {
        std::vector<Entry> entries;
        core::Index clusterIdx = -1; ///< valid for leaves only
    };

    /** Finds or creates the child of @p node for @p hash_val in the
     *  given layer; returns the child address. */
    core::Index findOrCreateChild(core::Index layer, core::Index node,
                                  std::int32_t hash_val, bool is_leaf);

    core::Index hashLen_;
    std::vector<std::vector<Node>> layers_; ///< layers_[i] = nodes at depth i+1
    Node root_;
    core::Index clusterCount_ = 0;
    core::Index nodesAllocated_ = 0;
    std::uint64_t memReads_ = 0;
    std::uint64_t memWrites_ = 0;
    std::uint64_t probes_ = 0;
};

/**
 * Clusters all rows of @p codes with a ClusterCodeIndex over their
 * first-seen codes, returning the cluster table CT (paper notation:
 * CT[i] = cluster index of token i; indices dense in first-seen
 * order).
 */
ClusterTable buildClusterTable(const HashMatrix &codes);

/**
 * Flat index from a full hash code to its cluster: one slot per
 * cluster in an open-addressed table (linear probing, at most half
 * full). A slot holds the code's hash and the cluster id, not the
 * code: lookups compare against the first-seen codes the caller
 * stores (cluster c's code at [c*l, (c+1)*l) of @p codes, any
 * store with operator[]: a paged vector or a plain one), so a code
 * is kept once. An empty index allocates nothing.
 */
class ClusterCodeIndex
{
  public:
    /** Hash of one code, the key every find() and insert() takes. */
    static std::uint32_t hash(std::span<const std::int32_t> code);

    /** The cluster whose stored code equals @p code, or -1. */
    template <class Codes>
    core::Index find(std::span<const std::int32_t> code,
                     std::uint32_t code_hash, const Codes &codes) const
    {
        if (slots_.empty())
            return -1;
        const std::size_t mask = slots_.size() - 1;
        const std::size_t l = code.size();
        for (std::size_t i = code_hash & mask;; i = (i + 1) & mask) {
            const Slot slot = slots_[i];
            if (slot.cluster < 0)
                return -1;
            if (slot.hash != code_hash)
                continue;
            const std::size_t at =
                static_cast<std::size_t>(slot.cluster) * l;
            std::size_t j = 0;
            while (j < l && codes[at + j] == code[j])
                ++j;
            if (j == l)
                return slot.cluster;
        }
    }

    /** Adds @p cluster under @p code_hash; the caller guarantees its
     *  code is not indexed yet. */
    void insert(core::Index cluster, std::uint32_t code_hash);

    /** Clusters indexed. */
    core::Index size() const { return count_; }

    /** Heap bytes of the slot table. */
    std::size_t stateBytes() const
    {
        return slots_.capacity() * sizeof(Slot);
    }

  private:
    struct Slot
    {
        std::uint32_t hash = 0;
        std::int32_t cluster = -1; ///< -1: empty
    };

    static constexpr std::size_t kMinSlots = 16;

    void place(Slot slot);

    std::vector<Slot> slots_;
    core::Index count_ = 0;
};

/**
 * Streaming cluster table for the serving layer: appendBatch() inserts
 * a batch of codes (a whole prompt, or a decode step's one code) into
 * a live index instead of rebuilding the table from scratch per step.
 *
 * Equivalence contract: assignment is order-streaming (a token's
 * cluster index depends only on the codes before it, and a new code
 * takes the next dense index), so after any sequence of batches
 * table() is bit-identical to buildClusterTable() over the same code
 * prefix — enforced by tests/serve_test.cc.
 *
 * State leaves and comes back only as a delta: tableSuffix() and
 * codeSuffix() past a base, applied by restoreSuffix(). The
 * first-seen codes, replayed in index order, reassign the same dense
 * indices, so the index itself is never persisted.
 *
 * Storage is paged (core::PageArena): the per-token assignments and
 * the first-seen cluster codes live in arena pages, so copying a
 * table (session fork) shares every page CoW. The code index splits
 * into a frozen shared base (built by shareTree() at fork time,
 * lookup-only) plus a private index of the clusters first seen since
 * (all of them, for a table never frozen). Both are one
 * ClusterCodeIndex type keyed on the stored codes, so a standalone
 * and a forked table run one path. A post-fork cluster gets dense
 * index baseClusters + c, exactly the index a single index would
 * have assigned, because every base cluster was first seen before
 * every post-fork cluster.
 */
class IncrementalClusterTable
{
  public:
    /** Standalone table with its own private arena. */
    explicit IncrementalClusterTable(core::Index hash_len);

    IncrementalClusterTable(core::Index hash_len,
                            std::shared_ptr<core::PageArena> arena);

    /** Appends the codes of @p codes (clusters.size() codes of hash
     *  length each, row-major) in order, under one trace span,
     *  writing the cluster each joined into @p clusters. */
    void appendBatch(std::span<const std::int32_t> codes,
                     std::span<core::Index> clusters);

    /** Materializes the table over every code appended so far. */
    ClusterTable table() const;

    /** Per-token assignments, paged (no materialization). */
    const core::PagedVector<core::Index> &assignments() const
    {
        return assignments_;
    }

    /** Number of codes appended so far. */
    core::Index size() const
    {
        return static_cast<core::Index>(assignments_.size());
    }

    core::Index numClusters() const
    {
        return baseClusters_ + fresh_.size();
    }

    core::Index hashLen() const { return hashLen_; }

    /**
     * Delta restore on top of the current (prefix) state: each code
     * in @p code_suffix must found a fresh cluster with the next
     * sequential index, then @p table_suffix extends the per-token
     * assignments. Fatal when the suffix is inconsistent with the
     * present state — corrupt deltas never restore silently.
     */
    void restoreSuffix(std::span<const core::Index> table_suffix,
                       std::span<const std::int32_t> code_suffix);

    /** The cluster of @p code (hashLen values), or -1 when no token
     *  has produced it yet. Lookup only. */
    core::Index find(std::span<const std::int32_t> code) const;

    /** table()[from..): the assignments a delta snapshot carries. */
    std::vector<core::Index> tableSuffix(core::Index from) const;

    /** Flattened codes of clusters [from_cluster, numClusters()). */
    std::vector<std::int32_t>
    codeSuffix(core::Index from_cluster) const;

    /**
     * Freezes every cluster into a shared immutable base index (built
     * from the stored first-seen codes) and empties the private one.
     * Called on a fork donor so children share one index instead of
     * copying it.
     */
    void shareTree();

    /** Privately-owned bytes: solely-owned pages, the page index, and
     *  the private code index. Shared pages and the shared base index
     *  are priced elsewhere (arena / sharedTreeBytes). */
    std::size_t stateBytes() const;

    /** stateBytes() without the pages: the page indexes and the
     *  private code index. */
    std::size_t heapBytes() const;

    /** Footprint of the frozen shared base index, if any. */
    std::size_t sharedTreeBytes() const;

  private:
    /** find() for a code whose hash is already known. */
    core::Index find(std::span<const std::int32_t> code,
                     std::uint32_t code_hash) const;
    core::Index assignCode(std::span<const std::int32_t> code);

    core::Index hashLen_;
    std::shared_ptr<const ClusterCodeIndex> base_; ///< frozen, lookup-only
    core::Index baseClusters_ = 0;
    ClusterCodeIndex fresh_; ///< clusters first seen since the freeze
    core::PagedVector<core::Index> assignments_;
    /** First-seen code of every cluster (numClusters x hashLen). */
    core::PagedVector<std::int32_t> clusterCodes_;
};

} // namespace cta::alg
