/**
 * @file
 * Unit tests for the transformer substrate (layer norm, GELU, FFN)
 * and the exact forward of the encoder layer built on it
 * (alg::CtaEncoderLayer::forwardExact). Layer norm must equal a
 * per-element reference bit for bit, and gelu() the
 * core::simdGeluRow kernel, at any thread count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "core/backend.h"
#include "core/matrix.h"
#include "core/rng.h"
#include "core/simd.h"
#include "cta/multihead.h"
#include "nn/transformer.h"

namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::Real;
using cta::core::Rng;
using cta::core::SimdBackend;
using cta::core::Wide;

/** Makes @p backend the active one for a scope. */
class ScopedBackend
{
  public:
    explicit ScopedBackend(cta::core::Backend *backend)
        : previous_(cta::core::setActiveBackend(backend))
    {
    }
    ~ScopedBackend() { cta::core::setActiveBackend(previous_); }

  private:
    cta::core::Backend *previous_;
};

TEST(LayerNormTest, RowsHaveZeroMeanUnitVar)
{
    Rng rng(1);
    const cta::nn::LayerNorm norm(16);
    const Matrix x = Matrix::randomNormal(8, 16, rng, 3.0f, 2.0f);
    const Matrix y = norm.forward(x);
    for (Index i = 0; i < y.rows(); ++i) {
        double mean = 0, var = 0;
        for (Index j = 0; j < 16; ++j)
            mean += y(i, j);
        mean /= 16;
        for (Index j = 0; j < 16; ++j)
            var += (y(i, j) - mean) * (y(i, j) - mean);
        var /= 16;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(LayerNormTest, ConstantRowMapsToZero)
{
    const cta::nn::LayerNorm norm(8);
    const Matrix x(2, 8, 5.0f);
    const Matrix y = norm.forward(x);
    for (Index j = 0; j < 8; ++j)
        EXPECT_NEAR(y(0, j), 0.0f, 1e-2f);
}

/** LayerNorm with gamma = 1, beta = 0, one element at a time through
 *  the checked accessors: the per-element sequence forward() must
 *  keep. */
Matrix
layerNormReference(const Matrix &x, Real epsilon)
{
    Matrix out(x.rows(), x.cols());
    for (Index i = 0; i < x.rows(); ++i) {
        Wide sum = 0;
        for (Index j = 0; j < x.cols(); ++j)
            sum += x(i, j);
        const Wide mu = sum / x.cols();
        Wide var = 0;
        for (Index j = 0; j < x.cols(); ++j) {
            const Wide diff = x(i, j) - mu;
            var += diff * diff;
        }
        var /= x.cols();
        const Real inv_std =
            1.0f / std::sqrt(static_cast<Real>(var) + epsilon);
        for (Index j = 0; j < x.cols(); ++j) {
            const Real norm = (x(i, j) - static_cast<Real>(mu)) * inv_std;
            out(i, j) = norm * 1.0f + 0.0f;
        }
    }
    return out;
}

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) *
                           sizeof(Real)) == 0;
}

TEST(LayerNormTest, MatchesPerElementReferenceBitForBit)
{
    Rng rng(7);
    for (const auto &[rows, cols] :
         {std::pair<Index, Index>{37, 1024}, {5, 33}, {1, 1}}) {
        const cta::nn::LayerNorm norm(cols);
        const Matrix x = Matrix::randomNormal(rows, cols, rng, 0.5f, 3.0f);
        const Matrix want = layerNormReference(x, 1e-5f);
        for (const int threads : {1, 3}) {
            SimdBackend backend(threads);
            ScopedBackend guard(&backend);
            EXPECT_TRUE(bitIdentical(norm.forward(x), want))
                << rows << "x" << cols << " threads=" << threads;
        }
    }
}

TEST(GeluTest, MatrixIsTheRowKernelAtEveryThreadCount)
{
    Rng rng(8);
    const Matrix x = Matrix::randomNormal(37, 100, rng, 0.0f, 4.0f);
    Matrix want(x.rows(), x.cols());
    cta::core::simdGeluRow(x.data(), x.size(), want.data());
    for (const int threads : {1, 3}) {
        SimdBackend backend(threads);
        ScopedBackend guard(&backend);
        EXPECT_TRUE(bitIdentical(cta::nn::gelu(x), want))
            << "threads=" << threads;
    }
}

TEST(GeluTest, KnownValues)
{
    Matrix x(1, 3);
    x(0, 0) = 0.0f;
    x(0, 1) = 10.0f;
    x(0, 2) = -10.0f;
    const Matrix y = cta::nn::gelu(x);
    EXPECT_NEAR(y(0, 0), 0.0f, 1e-6f);
    EXPECT_NEAR(y(0, 1), 10.0f, 1e-3f);
    EXPECT_NEAR(y(0, 2), 0.0f, 1e-3f);
}

TEST(GeluTest, MonotoneOnPositiveAxis)
{
    Matrix x(1, 4);
    x(0, 0) = 0.5f;
    x(0, 1) = 1.0f;
    x(0, 2) = 2.0f;
    x(0, 3) = 4.0f;
    const Matrix y = cta::nn::gelu(x);
    EXPECT_LT(y(0, 0), y(0, 1));
    EXPECT_LT(y(0, 1), y(0, 2));
    EXPECT_LT(y(0, 2), y(0, 3));
}

TEST(FeedForwardTest, ShapePreserved)
{
    Rng rng(2);
    const cta::nn::FeedForward ffn(16, 64, rng);
    const Matrix x = Matrix::randomNormal(5, 16, rng);
    const Matrix y = ffn.forward(x);
    EXPECT_EQ(y.rows(), 5);
    EXPECT_EQ(y.cols(), 16);
}

TEST(EncoderLayerTest, ShapeAndFiniteness)
{
    Rng rng(3);
    const cta::alg::CtaEncoderLayer layer(32, 4, 64, rng);
    const Matrix x = Matrix::randomNormal(10, 32, rng);
    const Matrix y = layer.forwardExact(x);
    EXPECT_EQ(y.rows(), 10);
    EXPECT_EQ(y.cols(), 32);
    for (Index i = 0; i < y.size(); ++i)
        EXPECT_TRUE(std::isfinite(y.data()[i]));
}

TEST(EncoderLayerTest, Deterministic)
{
    Rng rng(4);
    const cta::alg::CtaEncoderLayer layer(16, 2, 32, rng);
    Rng data_rng(5);
    const Matrix x = Matrix::randomNormal(6, 16, data_rng);
    EXPECT_TRUE(
        bitIdentical(layer.forwardExact(x), layer.forwardExact(x)));
}

TEST(EncoderLayerTest, ResidualPathDominatesForSmallBlocks)
{
    // The residual structure means output correlates with input.
    Rng rng(6);
    const cta::alg::CtaEncoderLayer layer(16, 2, 32, rng);
    const Matrix x = Matrix::randomNormal(6, 16, rng, 0, 10.0f);
    const Matrix y = layer.forwardExact(x);
    // With large-scale inputs the residual term dominates the
    // unit-scale block outputs, so relative error to x is < 1.
    EXPECT_LT(relativeError(y, x), 1.0f);
}

} // namespace
