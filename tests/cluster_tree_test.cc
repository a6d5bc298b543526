/**
 * @file
 * Unit tests for cluster assignment: the one software index
 * (buildClusterTable, and the streaming IncrementalClusterTable over
 * the same ClusterCodeIndex) and the hardware-faithful
 * LinearClusterTree, which is the independent oracle both software
 * tables are cross-checked against.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <vector>

#include "core/rng.h"
#include "cta/cluster_tree.h"
#include "cta/lsh.h"

namespace {

using cta::alg::ClusterTable;
using cta::alg::HashMatrix;
using cta::alg::IncrementalClusterTable;
using cta::alg::LinearClusterTree;
using cta::core::Index;
using cta::core::Matrix;
using cta::core::Rng;

/** buildClusterTable() over @p codes, one token per code. */
ClusterTable
tableOf(const std::vector<std::vector<std::int32_t>> &codes)
{
    const auto l = static_cast<Index>(codes.front().size());
    HashMatrix m(static_cast<Index>(codes.size()), l);
    for (std::size_t r = 0; r < codes.size(); ++r)
        for (Index c = 0; c < l; ++c)
            m(static_cast<Index>(r), c) =
                codes[r][static_cast<std::size_t>(c)];
    return buildClusterTable(m);
}

TEST(BuildClusterTableTest, FirstCodeGetsClusterZero)
{
    const ClusterTable ct = tableOf({{1, 2, 3}});
    EXPECT_EQ(ct.table[0], 0);
    EXPECT_EQ(ct.numClusters, 1);
}

TEST(BuildClusterTableTest, SameCodeSameCluster)
{
    const ClusterTable ct = tableOf({{5, -2, 7}, {5, -2, 7}});
    EXPECT_EQ(ct.table[1], ct.table[0]);
    EXPECT_EQ(ct.numClusters, 1);
}

TEST(BuildClusterTableTest, DifferentCodesDifferentClusters)
{
    const ClusterTable ct = tableOf({{0, 0}, {0, 1}, {1, 0}});
    EXPECT_EQ(ct.table[0], 0);
    EXPECT_EQ(ct.table[1], 1);
    EXPECT_EQ(ct.table[2], 2);
    EXPECT_EQ(ct.numClusters, 3);
}

TEST(BuildClusterTableTest, PrefixSharingDoesNotCollide)
{
    // Codes sharing all but the last value are distinct clusters.
    const ClusterTable ct = tableOf({{9, 9, 9, 1}, {9, 9, 9, 2}});
    EXPECT_NE(ct.table[0], ct.table[1]);
}

TEST(BuildClusterTableTest, NegativeHashValuesSupported)
{
    const ClusterTable ct = tableOf({{-5, -7}, {-5, 7}, {-5, -7}});
    EXPECT_NE(ct.table[0], ct.table[1]);
    EXPECT_EQ(ct.table[2], ct.table[0]);
}

TEST(BuildClusterTableTest, IndicesAreDenseFirstSeenOrder)
{
    std::vector<std::vector<std::int32_t>> codes;
    for (std::int32_t v = 0; v < 10; ++v)
        codes.push_back({100 - v});
    const ClusterTable ct = tableOf(codes);
    for (std::int32_t v = 0; v < 10; ++v)
        EXPECT_EQ(ct.table[static_cast<std::size_t>(v)], v);
}

TEST(LinearClusterTreeTest, MatchesSoftwareTablesOnRandomCodes)
{
    // The trie model, the batch table and the streaming table fed in
    // random batch splits assign every code the same cluster. Enough
    // distinct codes that the open-addressed index regrows many
    // times (16 slots at first, doubling past half full).
    struct Case
    {
        Index l;
        std::uint64_t alphabet;
    };
    constexpr Index kCodes = 20000;
    for (const Case cs : {Case{1, 4096}, Case{2, 64}, Case{6, 4},
                          Case{8, 4}}) {
        SCOPED_TRACE("l = " + std::to_string(cs.l));
        Rng rng(static_cast<std::uint64_t>(cs.l));
        HashMatrix codes(kCodes, cs.l);
        const auto half = static_cast<std::int32_t>(cs.alphabet / 2);
        for (std::int32_t &v : codes.data())
            v = static_cast<std::int32_t>(rng.uniformInt(cs.alphabet)) -
                half;
        const ClusterTable batch = buildClusterTable(codes);

        IncrementalClusterTable streamed(cs.l);
        std::vector<Index> clusters(static_cast<std::size_t>(kCodes));
        for (Index at = 0; at < kCodes;) {
            const Index len = std::min<Index>(
                kCodes - at,
                1 + static_cast<Index>(rng.uniformInt(64)));
            streamed.appendBatch(
                std::span<const std::int32_t>(codes.data()).subspan(
                    static_cast<std::size_t>(at * cs.l),
                    static_cast<std::size_t>(len * cs.l)),
                std::span<Index>(clusters).subspan(
                    static_cast<std::size_t>(at),
                    static_cast<std::size_t>(len)));
            at += len;
        }

        LinearClusterTree lin_tree(cs.l);
        Index mismatches = 0;
        for (Index i = 0; i < kCodes; ++i)
            mismatches += lin_tree.assign(codes.code(i)) !=
                          batch.table[static_cast<std::size_t>(i)];
        EXPECT_EQ(mismatches, 0);
        EXPECT_EQ(clusters, batch.table);
        EXPECT_EQ(streamed.table().table, batch.table);
        EXPECT_EQ(lin_tree.numClusters(), batch.numClusters);
        EXPECT_EQ(streamed.numClusters(), batch.numClusters);
        EXPECT_GT(batch.numClusters, 1000);
    }
}

TEST(LinearClusterTreeTest, CountsMemoryTraffic)
{
    LinearClusterTree tree(3);
    const std::array<std::int32_t, 3> code{1, 2, 3};
    tree.assign(code);
    // A fresh path allocates 3 nodes (one per layer).
    EXPECT_EQ(tree.nodesAllocated(), 3);
    EXPECT_GT(tree.memWrites(), 0u);
    const auto writes_after_first = tree.memWrites();
    tree.assign(code); // replay: pure reads, no allocation
    EXPECT_EQ(tree.memWrites(), writes_after_first);
    EXPECT_GT(tree.memReads(), 0u);
}

TEST(LinearClusterTreeTest, ProbesGrowWithNodeFanout)
{
    LinearClusterTree tree(1);
    for (std::int32_t v = 0; v < 8; ++v)
        tree.assign(std::array<std::int32_t, 1>{v});
    const auto probes_before = tree.probes();
    // Assigning the last-inserted value scans all 8 entries.
    tree.assign(std::array<std::int32_t, 1>{7});
    EXPECT_EQ(tree.probes() - probes_before, 8u);
}

TEST(BuildClusterTableTest, TableCoversAllTokens)
{
    Rng rng(2);
    const Matrix x = Matrix::randomNormal(50, 8, rng);
    const auto params = cta::alg::LshParams::sample(4, 8, 2.0f, rng);
    const HashMatrix codes = hashTokens(x, params);
    const auto ct = buildClusterTable(codes);
    EXPECT_EQ(ct.table.size(), 50u);
    for (Index c : ct.table) {
        EXPECT_GE(c, 0);
        EXPECT_LT(c, ct.numClusters);
    }
    // Every cluster index must be used at least once (density).
    std::vector<int> used(static_cast<std::size_t>(ct.numClusters), 0);
    for (Index c : ct.table)
        used[static_cast<std::size_t>(c)] = 1;
    for (int flag : used)
        EXPECT_EQ(flag, 1);
}

TEST(BuildClusterTableTest, TokensWithEqualCodesShareCluster)
{
    HashMatrix codes(3, 2);
    codes(0, 0) = 1; codes(0, 1) = 2;
    codes(1, 0) = 3; codes(1, 1) = 4;
    codes(2, 0) = 1; codes(2, 1) = 2; // same as token 0
    const auto ct = buildClusterTable(codes);
    EXPECT_EQ(ct.numClusters, 2);
    EXPECT_EQ(ct.table[0], ct.table[2]);
    EXPECT_NE(ct.table[0], ct.table[1]);
}

} // namespace
