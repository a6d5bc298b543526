/**
 * @file
 * Tests for the design-space exploration API: grid shape, knee
 * detection (paper Fig. 13: PAG = 2 x SA width), monotonicity and
 * input validation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "cta_accel/dse.h"

namespace {

using cta::accel::DsePoint;
using cta::accel::HwConfig;
using cta::alg::CompressionStats;
using cta::core::Index;

std::vector<CompressionStats>
shapes()
{
    CompressionStats s;
    s.m = s.n = 512;
    s.dw = s.d = 64;
    s.k0 = 200;
    s.k1 = 130;
    s.k2 = 120;
    CompressionStats t = s;
    t.k0 = 280;
    t.k1 = 150;
    t.k2 = 130;
    return {s, t};
}

TEST(DseTest, GridShape)
{
    const auto points = exploreDesignSpace(
        HwConfig::paperDefault(), shapes(), {8, 16}, {8, 16, 32});
    EXPECT_EQ(points.size(), 6u);
    for (const auto &p : points) {
        EXPECT_GT(p.throughput, 0.0);
        EXPECT_GT(p.meanCycles, 0.0);
    }
}

TEST(DseTest, KneeAtTwiceWidth)
{
    const auto points = exploreDesignSpace(
        HwConfig::paperDefault(), shapes(), {8, 16, 32},
        {4, 8, 16, 32, 64, 128});
    EXPECT_EQ(cta::accel::saturationKnee(points, 8), 16);
    EXPECT_EQ(cta::accel::saturationKnee(points, 16), 32);
    EXPECT_EQ(cta::accel::saturationKnee(points, 32), 64);
}

TEST(DseTest, ThroughputMonotoneInParallelismPerWidth)
{
    const auto points = exploreDesignSpace(
        HwConfig::paperDefault(), shapes(), {8},
        {4, 8, 16, 32, 64});
    double prev = 0;
    for (const auto &p : points) {
        EXPECT_GE(p.throughput, prev - 1e-9);
        prev = p.throughput;
    }
}

TEST(DseTest, StallsVanishPastKnee)
{
    const auto points = exploreDesignSpace(
        HwConfig::paperDefault(), shapes(), {8}, {4, 16});
    ASSERT_EQ(points.size(), 2u);
    EXPECT_GT(points[0].meanPagStalls, 0.0)
        << "PAG=4 must be the bottleneck";
    EXPECT_DOUBLE_EQ(points[1].meanPagStalls, 0.0)
        << "PAG=16 = 2b must hide entirely";
}

TEST(DseTest, SublinearWidthScaling)
{
    const auto points = exploreDesignSpace(
        HwConfig::paperDefault(), shapes(), {8, 64}, {128});
    ASSERT_EQ(points.size(), 2u);
    const double speedup =
        points[1].throughput / points[0].throughput;
    EXPECT_GT(speedup, 1.5);
    EXPECT_LT(speedup, 8.0) << "8x width must give < 8x throughput";
}

// Regression for the throughput definition: total evaluations over
// total time, not an arithmetic mean of per-shape rates. With one
// long and one short shape the two disagree badly (the mean
// overweights the short shape).
TEST(DseTest, ThroughputIsTotalEvalsOverTotalTime)
{
    CompressionStats longer;
    longer.m = longer.n = 512;
    longer.dw = longer.d = 64;
    longer.k0 = 200;
    longer.k1 = 130;
    longer.k2 = 120;
    CompressionStats shorter = longer;
    shorter.m = shorter.n = 128;
    shorter.k0 = 60;
    shorter.k1 = 40;
    shorter.k2 = 30;

    // Width 8 x PAG 16 resolves to exactly the paper default, so the
    // expected cycle counts come straight from the mapper.
    const HwConfig config = HwConfig::paperDefault();
    const auto points = exploreDesignSpace(config, {longer, shorter},
                                           {8}, {16});
    ASSERT_EQ(points.size(), 1u);
    const cta::accel::TableIMapper mapper(config);
    const double c_long =
        static_cast<double>(mapper.schedule(longer).latency.total());
    const double c_short =
        static_cast<double>(mapper.schedule(shorter).latency.total());
    const double hz = static_cast<double>(config.freqGhz) * 1e9;
    EXPECT_DOUBLE_EQ(points[0].throughput,
                     2.0 * hz / (c_long + c_short));
    const double rate_mean = (hz / c_long + hz / c_short) / 2.0;
    EXPECT_GT(std::abs(points[0].throughput - rate_mean),
              0.05 * rate_mean)
        << "total-time throughput must not degenerate to the "
           "per-shape rate mean on unequal shapes";
}

// Regression for the former dead clamp: a PAG parallelism below the
// base pagPerTile must run as a single down-rated tile instead of
// dying in the tiling arithmetic.
TEST(DseTest, SubPerTileParallelismRunsAsDownRatedTile)
{
    HwConfig base = HwConfig::paperDefault();
    ASSERT_GT(base.pagPerTile, 1);
    const auto points =
        exploreDesignSpace(base, shapes(), {8}, {1, 16});
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].pagParallelism, 1);
    EXPECT_GT(points[0].throughput, 0.0);
    EXPECT_LT(points[0].throughput, points[1].throughput);
}

TEST(DseTest, BottleneckAttributionFollowsStarvation)
{
    const auto points =
        exploreDesignSpace(HwConfig::paperDefault(), shapes(), {8},
                           {1, 16});
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].bottleneckModule, "PAG")
        << "one down-rated PAG lane must bind the schedule";
    EXPECT_EQ(points[1].bottleneckModule, "SA")
        << "the paper default is SA-bound";
    for (const auto &p : points) {
        EXPECT_GE(p.pagBindingShare, 0.0);
        EXPECT_LE(p.pagBindingShare, 1.0);
    }
    EXPECT_GT(points[0].pagBindingShare, points[1].pagBindingShare);
}

TEST(DseTest, HeightSweepSelectsMatchingShapes)
{
    auto all = shapes();
    auto half = all[0];
    half.d = 32;
    all.push_back(half);
    cta::accel::DseGrid grid;
    grid.saWidths = {8};
    grid.saHeights = {32, 64};
    grid.pagParallelisms = {16};
    const auto points = exploreDesignSpace(HwConfig::paperDefault(),
                                           all, grid);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].saHeight, 32);
    EXPECT_EQ(points[1].saHeight, 64);
    for (const auto &p : points)
        EXPECT_GT(p.throughput, 0.0);
    // The half-height point averages one shape, the base-height
    // point two — the heights really partition the shape set.
    EXPECT_NE(points[0].meanCycles, points[1].meanCycles);
}

TEST(DseTest, RepeatRunsAreBitIdentical)
{
    const auto a = exploreDesignSpace(HwConfig::paperDefault(),
                                      shapes(), {8, 16}, {4, 16});
    const auto b = exploreDesignSpace(HwConfig::paperDefault(),
                                      shapes(), {8, 16}, {4, 16});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].saWidth, b[i].saWidth);
        EXPECT_EQ(a[i].saHeight, b[i].saHeight);
        EXPECT_EQ(a[i].pagParallelism, b[i].pagParallelism);
        EXPECT_EQ(a[i].throughput, b[i].throughput);
        EXPECT_EQ(a[i].meanCycles, b[i].meanCycles);
        EXPECT_EQ(a[i].meanPagStalls, b[i].meanPagStalls);
        EXPECT_EQ(a[i].bottleneckModule, b[i].bottleneckModule);
        EXPECT_EQ(a[i].pagBindingShare, b[i].pagBindingShare);
    }
}

TEST(DseTest, RejectsBadInputs)
{
    // Earlier cases left the DSE's pool workers running; a forked
    // child of a threaded process can hang (seen under TSan), so the
    // death tests re-execute the binary instead.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(exploreDesignSpace(HwConfig::paperDefault(), {},
                                    {8}, {16}),
                 "at least one shape");
    EXPECT_DEATH(exploreDesignSpace(HwConfig::paperDefault(),
                                    shapes(), {4}, {16}),
                 "below hash length");
    EXPECT_DEATH(exploreDesignSpace(HwConfig::paperDefault(),
                                    shapes(), {8}, {7}),
                 "not divisible");
    cta::accel::DseGrid grid;
    grid.saWidths = {8};
    grid.saHeights = {48}; // no shape has d = 48
    grid.pagParallelisms = {16};
    EXPECT_DEATH(exploreDesignSpace(HwConfig::paperDefault(),
                                    shapes(), grid),
                 "no shape has head dimension");
}

} // namespace
