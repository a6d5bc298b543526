#include "cta/cluster_tree.h"

#include <algorithm>
#include <cstdint>

#include "core/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cta::alg {

using core::Index;

LinearClusterTree::LinearClusterTree(Index hash_len)
    : hashLen_(hash_len),
      layers_(static_cast<std::size_t>(hash_len))
{
    CTA_REQUIRE(hash_len > 0, "hash length must be positive");
}

Index
LinearClusterTree::findOrCreateChild(Index layer, Index node_addr,
                                     std::int32_t hash_val, bool is_leaf)
{
    Node &node = layer == 0
        ? root_
        : layers_[static_cast<std::size_t>(layer - 1)]
                 [static_cast<std::size_t>(node_addr)];
    // Associative scan over the node's (value, address) entries, like
    // the CIM reading one node record from layer memory.
    for (const Entry &entry : node.entries) {
        ++memReads_;
        ++probes_;
        if (entry.hashVal == hash_val)
            return entry.childAddr;
    }
    // Miss: allocate the next free node in the child layer.
    auto &child_layer = layers_[static_cast<std::size_t>(layer)];
    const Index fresh = static_cast<Index>(child_layer.size());
    child_layer.emplace_back();
    ++nodesAllocated_;
    if (is_leaf)
        child_layer.back().clusterIdx = clusterCount_++;
    node.entries.push_back(Entry{hash_val, fresh});
    ++memWrites_;
    return fresh;
}

Index
LinearClusterTree::assign(std::span<const std::int32_t> code)
{
    CTA_REQUIRE(static_cast<Index>(code.size()) == hashLen_,
                "code length ", code.size(), " != ", hashLen_);
    Index addr = 0;
    for (Index depth = 0; depth < hashLen_; ++depth) {
        const bool is_leaf = depth == hashLen_ - 1;
        addr = findOrCreateChild(depth, addr,
                                 code[static_cast<std::size_t>(depth)],
                                 is_leaf);
    }
    ++memReads_; // read the leaf's cluster index
    return layers_[static_cast<std::size_t>(hashLen_ - 1)]
                  [static_cast<std::size_t>(addr)].clusterIdx;
}

std::uint32_t
ClusterCodeIndex::hash(std::span<const std::int32_t> code)
{
    // Multiply-xorshift over the values, then the 64-bit finalizer of
    // MurmurHash3: deterministic, and cheap for l of a few values.
    std::uint64_t h = 0x9E3779B97F4A7C15ull ^ code.size();
    for (const std::int32_t v : code)
        h = (h ^ static_cast<std::uint32_t>(v)) * 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ull;
    h ^= h >> 33;
    return static_cast<std::uint32_t>(h);
}

void
ClusterCodeIndex::place(Slot slot)
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot.hash & mask;
    while (slots_[i].cluster >= 0)
        i = (i + 1) & mask;
    slots_[i] = slot;
}

void
ClusterCodeIndex::insert(Index cluster, std::uint32_t code_hash)
{
    CTA_REQUIRE(cluster >= 0 && cluster <= INT32_MAX, "cluster id ",
                cluster, " outside the code index's range");
    if (2 * static_cast<std::size_t>(count_ + 1) > slots_.size()) {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(std::max(kMinSlots, 2 * old.size()), Slot{});
        for (const Slot &slot : old)
            if (slot.cluster >= 0)
                place(slot);
    }
    place(Slot{code_hash, static_cast<std::int32_t>(cluster)});
    ++count_;
}

IncrementalClusterTable::IncrementalClusterTable(Index hash_len)
    : IncrementalClusterTable(hash_len,
                              std::make_shared<core::PageArena>(
                                  core::PageArena::pageBytesFromEnv()))
{
}

IncrementalClusterTable::IncrementalClusterTable(
    Index hash_len, std::shared_ptr<core::PageArena> arena)
    : hashLen_(hash_len),
      assignments_(arena),
      clusterCodes_(std::move(arena))
{
    CTA_REQUIRE(hash_len > 0, "hash length must be positive");
}

Index
IncrementalClusterTable::find(std::span<const std::int32_t> code,
                              std::uint32_t code_hash) const
{
    if (base_) {
        const Index hit = base_->find(code, code_hash, clusterCodes_);
        if (hit >= 0)
            return hit;
    }
    return fresh_.find(code, code_hash, clusterCodes_);
}

Index
IncrementalClusterTable::find(std::span<const std::int32_t> code) const
{
    CTA_REQUIRE(static_cast<Index>(code.size()) == hashLen_,
                "code length ", code.size(), " != ", hashLen_);
    return find(code, ClusterCodeIndex::hash(code));
}

Index
IncrementalClusterTable::assignCode(
    std::span<const std::int32_t> code)
{
    const std::uint32_t code_hash = ClusterCodeIndex::hash(code);
    const Index hit = find(code, code_hash);
    if (hit >= 0)
        return hit;
    const Index cluster = numClusters();
    for (const std::int32_t v : code)
        clusterCodes_.push_back(v);
    fresh_.insert(cluster, code_hash);
    return cluster;
}

void
IncrementalClusterTable::appendBatch(std::span<const std::int32_t> codes,
                                     std::span<Index> clusters)
{
    CTA_TRACE_SCOPE("cluster.append");
    CTA_OBS_COUNT("cluster.appends", clusters.size());
    const auto l = static_cast<std::size_t>(hashLen_);
    CTA_REQUIRE(codes.size() == clusters.size() * l, "batch of ",
                clusters.size(), " codes needs ", clusters.size() * l,
                " buckets, got ", codes.size());
    for (std::size_t i = 0; i < clusters.size(); ++i) {
        clusters[i] = assignCode(codes.subspan(i * l, l));
        assignments_.push_back(clusters[i]);
    }
}

ClusterTable
IncrementalClusterTable::table() const
{
    ClusterTable ct;
    ct.table.reserve(static_cast<std::size_t>(assignments_.size()));
    for (std::size_t i = 0; i < assignments_.size(); ++i)
        ct.table.push_back(assignments_[i]);
    ct.numClusters = numClusters();
    return ct;
}

std::vector<Index>
IncrementalClusterTable::tableSuffix(Index from) const
{
    CTA_REQUIRE(from >= 0 && from <= size(), "table suffix start ",
                from, " out of range [0, ", size(), "]");
    std::vector<Index> suffix;
    suffix.reserve(static_cast<std::size_t>(size() - from));
    for (Index i = from; i < size(); ++i)
        suffix.push_back(assignments_[static_cast<std::size_t>(i)]);
    return suffix;
}

std::vector<std::int32_t>
IncrementalClusterTable::codeSuffix(Index from_cluster) const
{
    CTA_REQUIRE(from_cluster >= 0 && from_cluster <= numClusters(),
                "code suffix start ", from_cluster,
                " out of range [0, ", numClusters(), "]");
    std::vector<std::int32_t> codes;
    codes.reserve(static_cast<std::size_t>(
        (numClusters() - from_cluster) * hashLen_));
    for (Index i = from_cluster * hashLen_;
         i < numClusters() * hashLen_; ++i)
        codes.push_back(clusterCodes_[static_cast<std::size_t>(i)]);
    return codes;
}

void
IncrementalClusterTable::restoreSuffix(
    std::span<const Index> table_suffix,
    std::span<const std::int32_t> code_suffix)
{
    CTA_REQUIRE(static_cast<Index>(code_suffix.size()) % hashLen_ ==
                    0,
                "delta cluster codes not a multiple of hash length");
    const Index fresh =
        static_cast<Index>(code_suffix.size()) / hashLen_;
    for (Index c = 0; c < fresh; ++c) {
        const std::span<const std::int32_t> code(
            code_suffix.data() +
                static_cast<std::size_t>(c * hashLen_),
            static_cast<std::size_t>(hashLen_));
        const Index expect = numClusters();
        const Index got = assignCode(code);
        CTA_REQUIRE(got == expect, "delta cluster code ", c,
                    " resolves to existing cluster ", got,
                    ", expected fresh cluster ", expect);
    }
    const Index k = numClusters();
    for (const Index c : table_suffix) {
        CTA_REQUIRE(c >= 0 && c < k, "delta table entry ", c,
                    " outside [0, ", k, ")");
        assignments_.push_back(c);
    }
}

void
IncrementalClusterTable::shareTree()
{
    auto index = std::make_shared<ClusterCodeIndex>();
    const Index k = numClusters();
    std::vector<std::int32_t> code(static_cast<std::size_t>(hashLen_));
    for (Index c = 0; c < k; ++c) {
        for (Index j = 0; j < hashLen_; ++j)
            code[static_cast<std::size_t>(j)] =
                clusterCodes_[static_cast<std::size_t>(
                    c * hashLen_ + j)];
        const std::uint32_t code_hash = ClusterCodeIndex::hash(code);
        const Index seen = index->find(code, code_hash, clusterCodes_);
        CTA_REQUIRE(seen < 0, "stored cluster codes are not distinct "
                    "first-seen codes: code ", c, " repeats code ",
                    seen);
        index->insert(c, code_hash);
    }
    base_ = std::move(index);
    baseClusters_ = k;
    fresh_ = ClusterCodeIndex();
}

std::size_t
IncrementalClusterTable::stateBytes() const
{
    return fresh_.stateBytes() + assignments_.privateBytes() +
           clusterCodes_.privateBytes();
}

std::size_t
IncrementalClusterTable::heapBytes() const
{
    return fresh_.stateBytes() + assignments_.heapBytes() +
           clusterCodes_.heapBytes();
}

std::size_t
IncrementalClusterTable::sharedTreeBytes() const
{
    return base_ ? base_->stateBytes() : 0;
}

ClusterTable
buildClusterTable(const HashMatrix &codes)
{
    CTA_TRACE_SCOPE("cluster.build");
    CTA_OBS_COUNT("cluster.builds", 1);
    CTA_REQUIRE(codes.cols() > 0, "hash length must be positive");
    ClusterCodeIndex index;
    std::vector<std::int32_t> first_seen; ///< cluster c's code at c*l
    ClusterTable ct;
    ct.table.reserve(static_cast<std::size_t>(codes.rows()));
    for (Index i = 0; i < codes.rows(); ++i) {
        const std::span<const std::int32_t> code = codes.code(i);
        const std::uint32_t code_hash = ClusterCodeIndex::hash(code);
        Index cluster = index.find(code, code_hash, first_seen);
        if (cluster < 0) {
            cluster = index.size();
            first_seen.insert(first_seen.end(), code.begin(), code.end());
            index.insert(cluster, code_hash);
        }
        ct.table.push_back(cluster);
    }
    ct.numClusters = index.size();
    return ct;
}

} // namespace cta::alg
