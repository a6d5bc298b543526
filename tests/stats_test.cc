/**
 * @file
 * Unit tests for core statistics helpers.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/stats.h"

namespace {

using cta::core::Real;
using cta::core::RunningStat;
using cta::core::Wide;

TEST(StatsTest, MeanOfKnownValues)
{
    const std::vector<Wide> v{1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(cta::core::mean(v), 2.5);
}

TEST(StatsTest, MeanOfEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(cta::core::mean({}), 0.0);
}

TEST(StatsTest, StddevOfConstantIsZero)
{
    const std::vector<Wide> v{5, 5, 5, 5};
    EXPECT_DOUBLE_EQ(cta::core::stddev(v), 0.0);
}

TEST(StatsTest, StddevKnown)
{
    const std::vector<Wide> v{2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_NEAR(cta::core::stddev(v), 2.138, 0.001);
}

TEST(StatsTest, GeomeanOfPowers)
{
    const std::vector<Wide> v{1, 4, 16};
    EXPECT_NEAR(cta::core::geomean(v), 4.0, 1e-9);
}

TEST(StatsTest, GeomeanSingleton)
{
    const std::vector<Wide> v{7.5};
    EXPECT_NEAR(cta::core::geomean(v), 7.5, 1e-12);
}

TEST(StatsTest, GeomeanPositiveMatchesGeomeanOnCleanInput)
{
    const std::vector<Wide> v{1, 4, 16};
    EXPECT_NEAR(cta::core::geomeanPositive(v),
                cta::core::geomean(v), 1e-12);
}

TEST(StatsTest, GeomeanPositiveDropsNonPositiveValues)
{
    // Zeros, negatives, NaN and inf are all skipped; only {1, 4, 16}
    // contribute.
    const std::vector<Wide> v{
        1, 0, 4, -2, 16, std::numeric_limits<Wide>::quiet_NaN(),
        std::numeric_limits<Wide>::infinity()};
    EXPECT_NEAR(cta::core::geomeanPositive(v), 4.0, 1e-9);
}

TEST(StatsTest, GeomeanPositiveAllDroppedReturnsZero)
{
    const std::vector<Wide> v{0, -1,
                              std::numeric_limits<Wide>::quiet_NaN()};
    EXPECT_DOUBLE_EQ(cta::core::geomeanPositive(v), 0.0);
    EXPECT_DOUBLE_EQ(cta::core::geomeanPositive({}), 0.0);
}

TEST(StatsTest, MinMax)
{
    const std::vector<Wide> v{3, -1, 7, 2};
    EXPECT_DOUBLE_EQ(cta::core::minOf(v), -1);
    EXPECT_DOUBLE_EQ(cta::core::maxOf(v), 7);
}

TEST(StatsTest, PercentileOfOneSampleIsThatSample)
{
    const std::vector<Wide> v{4.5};
    EXPECT_DOUBLE_EQ(cta::core::percentile(v, 0.5), 4.5);
    EXPECT_DOUBLE_EQ(cta::core::percentile(v, 0.99), 4.5);
}

TEST(StatsTest, PercentileIsNearestRankNotTheMaximum)
{
    // 100 samples, shuffled: p99 is the 99th smallest, not the max.
    std::vector<Wide> v;
    for (int i = 0; i < 100; ++i)
        v.push_back((i * 37) % 100 + 1);
    EXPECT_DOUBLE_EQ(cta::core::percentile(v, 0.99), 99);
    EXPECT_DOUBLE_EQ(cta::core::percentile(v, 1.0), 100);
    EXPECT_DOUBLE_EQ(cta::core::percentile(v, 0.0), 1);
}

TEST(StatsTest, PercentileMedianOfEvenCountIsLowerMedian)
{
    const std::vector<Wide> v{40, 10, 30, 20};
    EXPECT_DOUBLE_EQ(cta::core::percentile(v, 0.5), 20);
    const std::vector<Wide> two{2, 1};
    EXPECT_DOUBLE_EQ(cta::core::percentile(two, 0.5), 1);
}

TEST(StatsTest, PercentileOfEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(cta::core::percentile({}, 0.5), 0.0);
}

TEST(StatsTest, CosineOfParallelVectors)
{
    const std::vector<Real> a{1, 2, 3};
    const std::vector<Real> b{2, 4, 6};
    EXPECT_NEAR(cta::core::cosineSimilarity(a, b), 1.0f, 1e-6f);
}

TEST(StatsTest, CosineOfOrthogonalVectors)
{
    const std::vector<Real> a{1, 0};
    const std::vector<Real> b{0, 1};
    EXPECT_NEAR(cta::core::cosineSimilarity(a, b), 0.0f, 1e-6f);
}

TEST(StatsTest, CosineOfZeroVectorIsZero)
{
    const std::vector<Real> a{0, 0};
    const std::vector<Real> b{1, 1};
    EXPECT_FLOAT_EQ(cta::core::cosineSimilarity(a, b), 0.0f);
}

TEST(StatsTest, L2DistanceKnown)
{
    const std::vector<Real> a{0, 0};
    const std::vector<Real> b{3, 4};
    EXPECT_FLOAT_EQ(cta::core::l2Distance(a, b), 5.0f);
}

TEST(StatsTest, SquaredNorm)
{
    const std::vector<Real> a{1, 2, 2};
    EXPECT_FLOAT_EQ(cta::core::squaredNorm(a), 9.0f);
}

TEST(RunningStatTest, TracksAllSummaries)
{
    RunningStat rs;
    EXPECT_EQ(rs.count(), 0u);
    EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
    rs.add(2);
    rs.add(8);
    rs.add(-1);
    EXPECT_EQ(rs.count(), 3u);
    EXPECT_DOUBLE_EQ(rs.sum(), 9.0);
    EXPECT_DOUBLE_EQ(rs.mean(), 3.0);
    EXPECT_DOUBLE_EQ(rs.min(), -1.0);
    EXPECT_DOUBLE_EQ(rs.max(), 8.0);
}

} // namespace
