/**
 * @file
 * Statistical property tests for p-stable LSH: the single-dimension
 * collision probability of two vectors at distance c under bucket
 * width w follows the closed form (Datar et al., SoCG 2004):
 *
 *   p(c) = integral_0^w (1/c) * phi(t/c) * (1 - t/w) * 2 dt
 *        = 2*Phi(w/c) - 1 - (2c / (sqrt(2 pi) w)) * (1 - e^{-w^2/(2c^2)})
 *
 * where phi/Phi are the standard normal pdf/cdf. The implementation
 * must match this law empirically — the quantitative basis for why
 * bucket-width calibration controls the compression ratio.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "core/rng.h"
#include "core/simd.h"
#include "cta/lsh.h"

namespace {

using cta::alg::LshParams;
using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;
using cta::core::Rng;

/** Standard normal CDF. */
double
phiCdf(double x)
{
    return 0.5 * std::erfc(-x / std::numbers::sqrt2);
}

/** Closed-form single-hash collision probability at distance c. */
double
collisionProbability(double c, double w)
{
    const double r = w / c;
    return 2.0 * phiCdf(r) - 1.0 -
           (2.0 / (std::sqrt(2.0 * std::numbers::pi) * r)) *
               (1.0 - std::exp(-r * r / 2.0));
}

/** Empirical single-dimension collision rate at distance c. */
double
empiricalCollisionRate(double c, double w, Index dim, int trials,
                       std::uint64_t seed)
{
    Rng rng(seed);
    int collisions = 0;
    for (int t = 0; t < trials; ++t) {
        // Two points at exact distance c along a random direction.
        Matrix x(2, dim);
        Real norm_sq = 0;
        std::vector<Real> dir(static_cast<std::size_t>(dim));
        for (Index j = 0; j < dim; ++j) {
            dir[static_cast<std::size_t>(j)] = rng.normal();
            norm_sq += dir[static_cast<std::size_t>(j)] *
                       dir[static_cast<std::size_t>(j)];
        }
        const Real inv_norm = 1.0f / std::sqrt(norm_sq);
        for (Index j = 0; j < dim; ++j) {
            const Real base = rng.normal();
            x(0, j) = base;
            x(1, j) = base + static_cast<Real>(c) *
                dir[static_cast<std::size_t>(j)] * inv_norm;
        }
        const LshParams params = LshParams::sample(
            1, dim, static_cast<Real>(w), rng);
        const auto codes = hashTokens(x, params);
        collisions += codes(0, 0) == codes(1, 0) ? 1 : 0;
    }
    return static_cast<double>(collisions) / trials;
}

/** Sweep (distance, width) pairs against the closed form. */
class CollisionLawTest
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(CollisionLawTest, EmpiricalMatchesClosedForm)
{
    const auto [c, w] = GetParam();
    const double predicted = collisionProbability(c, w);
    const double measured =
        empiricalCollisionRate(c, w, 16, 4000,
                               static_cast<std::uint64_t>(c * 100 +
                                                          w * 10));
    EXPECT_NEAR(measured, predicted, 0.03)
        << "c=" << c << " w=" << w;
}

INSTANTIATE_TEST_SUITE_P(
    DistanceWidthGrid, CollisionLawTest,
    ::testing::Values(std::make_pair(0.5, 1.0),
                      std::make_pair(1.0, 1.0),
                      std::make_pair(2.0, 1.0),
                      std::make_pair(1.0, 4.0),
                      std::make_pair(1.0, 0.5),
                      std::make_pair(4.0, 4.0)));

TEST(CollisionLawTest, MonotoneInDistance)
{
    // Farther points collide less (the locality property).
    const double w = 2.0;
    double prev = 1.0;
    for (const double c : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        const double p = collisionProbability(c, w);
        EXPECT_LT(p, prev);
        prev = p;
    }
}

TEST(CollisionLawTest, MonotoneInWidth)
{
    // Wider buckets collide more.
    const double c = 1.0;
    double prev = 0.0;
    for (const double w : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        const double p = collisionProbability(c, w);
        EXPECT_GT(p, prev);
        prev = p;
    }
}

TEST(BucketSaturationTest, ExtremeProjectionsClampToInt32Range)
{
    // Regression: the bucket index used to be formed with a plain
    // static_cast<int32_t>(floor(shifted)), UB for extreme dot
    // products — on x86 a huge *positive* projection came back as
    // INT32_MIN. Buckets must saturate instead.
    Rng rng(123);
    const Index dim = 8;
    const LshParams params =
        LshParams::sample(3, dim, /*w=*/0.001f, rng);
    Matrix x(3, dim);
    for (Index j = 0; j < dim; ++j) {
        x(0, j) = 1e30f;   // overflow positive
        x(1, j) = -1e30f;  // overflow negative
        x(2, j) = 0.5f;    // in range
    }
    const auto codes = hashTokens(x, params);
    for (Index j = 0; j < 3; ++j) {
        const std::int32_t hi = codes(0, j);
        const std::int32_t lo = codes(1, j);
        EXPECT_TRUE(hi == std::numeric_limits<std::int32_t>::max() ||
                    hi == std::numeric_limits<std::int32_t>::min());
        EXPECT_TRUE(lo == std::numeric_limits<std::int32_t>::max() ||
                    lo == std::numeric_limits<std::int32_t>::min());
        // Opposite-sign projections saturate at opposite ends.
        EXPECT_NE(hi, lo);
    }
}

TEST(BucketSaturationTest, NanProjectionsHashToZeroBucket)
{
    Rng rng(321);
    const Index dim = 4;
    const LshParams params = LshParams::sample(2, dim, 1.0f, rng);
    Matrix x(1, dim);
    for (Index j = 0; j < dim; ++j)
        x(0, j) = std::numeric_limits<Real>::quiet_NaN();
    const auto codes = hashTokens(x, params);
    for (Index j = 0; j < 2; ++j)
        EXPECT_EQ(codes(0, j), 0);
}

TEST(BucketSaturationTest, OneRowHashRowsMatchesHashTokens)
{
    // A one-row batch (a decode step, hashed one direction per lane)
    // must agree bit-for-bit with the same row of a whole batch.
    Rng rng(77);
    const Index dim = 16, l = 6;
    const LshParams params = LshParams::sample(l, dim, 1.0f, rng);
    const Matrix x = Matrix::randomNormal(10, dim, rng);
    const auto batch = hashTokens(x, params);
    std::vector<std::int32_t> code(static_cast<std::size_t>(l));
    for (Index i = 0; i < x.rows(); ++i) {
        cta::alg::hashRows(x.rowSlice(i, i + 1), params, code);
        for (Index j = 0; j < l; ++j)
            EXPECT_EQ(code[static_cast<std::size_t>(j)], batch(i, j));
    }
}

/** The scalar reference bucket: one k-ascending FP32 fmaf chain from
 *  +0, widened, shifted by b, scaled by 1/w, floored and saturated
 *  (NaN -> 0). */
std::int32_t
scalarBucket(const LshParams &params, Index j, const Real *token)
{
    using cta::core::Wide;
    Real dot = 0;
    for (Index k = 0; k < params.dim(); ++k)
        dot = std::fmaf(params.a(j, k), token[k], dot);
    const Real inv_w = 1.0f / params.w;
    const Wide floored =
        std::floor((static_cast<Wide>(dot) + params.b(j, 0)) * inv_w);
    constexpr auto lo = std::numeric_limits<std::int32_t>::min();
    constexpr auto hi = std::numeric_limits<std::int32_t>::max();
    if (std::isnan(floored))
        return 0;
    if (floored <= static_cast<Wide>(lo))
        return lo;
    if (floored >= static_cast<Wide>(hi))
        return hi;
    return static_cast<std::int32_t>(floored);
}

TEST(HashOrientationTest, BothOrientationsMatchScalarChainAtEveryLevel)
{
    // hashRows runs the lane-per-row kernel one direction per lane
    // below l rows (a one-row slice here, and every batch of fewer
    // than l tokens), one token per lane otherwise; both must
    // reproduce the scalar chain bit for bit at every ISA level — for
    // ragged token counts and directions, a depth off the 8-row
    // block, tokens large enough to saturate the bucket cast, and NaN
    // tokens.
    using cta::core::SimdLevel;
    std::vector<Index> counts;
    for (Index n = 1; n <= 17; ++n)
        counts.push_back(n);
    counts.push_back(512);
    const Index dim = 61;
    Rng rng(78);
    Index saturated = 0;
    for (const Index l : {1, 6, 17}) {
        for (const Real w : {1.0f, 1e-3f}) {
            const LshParams params = LshParams::sample(l, dim, w, rng);
            for (const Index n : counts) {
                Matrix x = Matrix::randomNormal(n, dim, rng);
                for (Index i = 0; i < n; i += 3)
                    for (Index k = 0; k < dim; ++k)
                        x(i, k) *= 1e30f; // saturates at either sign
                for (Index i = 1; i < n; i += 5)
                    x(i, i % dim) = std::numeric_limits<Real>::quiet_NaN();
                for (const SimdLevel level :
                     {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512,
                      SimdLevel::Neon}) {
                    if (!cta::core::simdLevelSupported(level))
                        continue;
                    const SimdLevel saved = cta::core::setSimdLevel(level);
                    const auto batch = hashTokens(x, params);
                    std::vector<std::int32_t> code(
                        static_cast<std::size_t>(l));
                    for (Index i = 0; i < n; ++i) {
                        cta::alg::hashRows(x.rowSlice(i, i + 1), params,
                                           code);
                        for (Index j = 0; j < l; ++j) {
                            const std::int32_t want =
                                scalarBucket(params, j, x.row(i).data());
                            saturated +=
                                want == std::numeric_limits<
                                            std::int32_t>::min() ||
                                want == std::numeric_limits<
                                            std::int32_t>::max();
                            ASSERT_EQ(batch(i, j), want)
                                << "batch l=" << l << " w=" << w
                                << " n=" << n << " i=" << i << " j=" << j
                                << " level="
                                << cta::core::simdLevelName(level);
                            ASSERT_EQ(code[static_cast<std::size_t>(j)],
                                      want)
                                << "token l=" << l << " w=" << w
                                << " n=" << n << " i=" << i << " j=" << j
                                << " level="
                                << cta::core::simdLevelName(level);
                        }
                    }
                    cta::core::setSimdLevel(saved);
                }
            }
        }
    }
    EXPECT_GT(saturated, 0) << "no bucket reached the int32 bounds";
}

TEST(CollisionLawTest, FullCodeCollisionIsPowerOfSingle)
{
    // With l independent hashes, P[full-code collision] = p^l; check
    // empirically for l = 4.
    const double c = 1.0, w = 2.0;
    const double p1 = collisionProbability(c, w);
    Rng rng(99);
    const Index dim = 16, l = 4;
    int collisions = 0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
        Matrix x(2, dim);
        Real norm_sq = 0;
        std::vector<Real> dir(static_cast<std::size_t>(dim));
        for (Index j = 0; j < dim; ++j) {
            dir[static_cast<std::size_t>(j)] = rng.normal();
            norm_sq += dir[static_cast<std::size_t>(j)] *
                       dir[static_cast<std::size_t>(j)];
        }
        const Real inv_norm = 1.0f / std::sqrt(norm_sq);
        for (Index j = 0; j < dim; ++j) {
            const Real base = rng.normal();
            x(0, j) = base;
            x(1, j) = base + static_cast<Real>(c) *
                dir[static_cast<std::size_t>(j)] * inv_norm;
        }
        const LshParams params =
            LshParams::sample(l, dim, static_cast<Real>(w), rng);
        const auto codes = hashTokens(x, params);
        bool same = true;
        for (Index j = 0; j < l; ++j)
            same &= codes(0, j) == codes(1, j);
        collisions += same ? 1 : 0;
    }
    const double measured = static_cast<double>(collisions) / trials;
    EXPECT_NEAR(measured, std::pow(p1, l), 0.04);
}

} // namespace
