/**
 * @file
 * Unit tests for core::Matrix and its kernels, including op-count
 * accounting and a property sweep over GEMM shapes.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/matrix.h"
#include "core/op_counter.h"
#include "core/rng.h"

namespace {

using cta::core::Index;
using cta::core::Matrix;
using cta::core::OpCounts;
using cta::core::Real;
using cta::core::Rng;

TEST(MatrixTest, ConstructionAndFill)
{
    Matrix m(3, 4, 2.5f);
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 4);
    EXPECT_EQ(m.size(), 12);
    for (Index i = 0; i < 3; ++i)
        for (Index j = 0; j < 4; ++j)
            EXPECT_FLOAT_EQ(m(i, j), 2.5f);
    m.fill(-1.0f);
    EXPECT_FLOAT_EQ(m(2, 3), -1.0f);
}

TEST(MatrixTest, DefaultIsEmpty)
{
    Matrix m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.size(), 0);
}

TEST(MatrixTest, RowSpanWritesThrough)
{
    Matrix m(2, 3);
    auto row = m.row(1);
    row[2] = 9.0f;
    EXPECT_FLOAT_EQ(m(1, 2), 9.0f);
}

TEST(MatrixTest, IdentityMatmulIsNoop)
{
    Rng rng(1);
    const Matrix a = Matrix::randomNormal(5, 5, rng);
    const Matrix prod = matmul(a, Matrix::identity(5));
    EXPECT_LT(maxAbsDiff(prod, a), 1e-6f);
}

TEST(MatrixTest, MatmulKnownValues)
{
    Matrix a(2, 2);
    a(0, 0) = 1; a(0, 1) = 2;
    a(1, 0) = 3; a(1, 1) = 4;
    Matrix b(2, 2);
    b(0, 0) = 5; b(0, 1) = 6;
    b(1, 0) = 7; b(1, 1) = 8;
    const Matrix c = matmul(a, b);
    EXPECT_FLOAT_EQ(c(0, 0), 19);
    EXPECT_FLOAT_EQ(c(0, 1), 22);
    EXPECT_FLOAT_EQ(c(1, 0), 43);
    EXPECT_FLOAT_EQ(c(1, 1), 50);
}

TEST(MatrixTest, MatmulTransBMatchesExplicitTranspose)
{
    // Bit for bit, on the one-row route (the lane-per-row kernel) and
    // the many-row route (the GEMM over a gathered B^T).
    Rng rng(2);
    for (const Index m : {1, 4}) {
        const Matrix a = Matrix::randomNormal(m, 6, rng);
        const Matrix b = Matrix::randomNormal(5, 6, rng);
        const Matrix direct = matmulTransB(a, b);
        const Matrix via_t = matmul(a, transpose(b));
        EXPECT_EQ(maxAbsDiff(direct, via_t), 0.0f) << "m=" << m;
    }
}

TEST(MatrixTest, MatmulChargesMacs)
{
    Rng rng(3);
    const Matrix a = Matrix::randomNormal(3, 4, rng);
    const Matrix b = Matrix::randomNormal(4, 5, rng);
    OpCounts ops;
    matmul(a, b, &ops);
    EXPECT_EQ(ops.macs, 3u * 4u * 5u);
    OpCounts ops_t;
    matmulTransB(a, transpose(b), &ops_t);
    EXPECT_EQ(ops_t.macs, 3u * 4u * 5u);
}

TEST(MatrixTest, AddSubScale)
{
    Rng rng(4);
    const Matrix a = Matrix::randomNormal(3, 3, rng);
    const Matrix b = Matrix::randomNormal(3, 3, rng);
    const Matrix sum = add(a, b);
    const Matrix back = sub(sum, b);
    EXPECT_LT(maxAbsDiff(back, a), 1e-6f);
    const Matrix doubled = scale(a, 2.0f);
    EXPECT_LT(maxAbsDiff(doubled, add(a, a)), 1e-6f);
}

TEST(MatrixTest, TransposeIsInvolution)
{
    Rng rng(5);
    const Matrix a = Matrix::randomNormal(3, 7, rng);
    const Matrix tt = transpose(transpose(a));
    EXPECT_LT(maxAbsDiff(tt, a), 0.0f + 1e-9f);
}

TEST(MatrixTest, RowSliceAndAppendRowsRoundTrip)
{
    Rng rng(6);
    const Matrix a = Matrix::randomNormal(6, 4, rng);
    Matrix top = a.rowSlice(0, 2);
    const Matrix bottom = a.rowSlice(2, 6);
    top.appendRows(bottom);
    EXPECT_LT(maxAbsDiff(top, a), 0.0f + 1e-9f);
}

TEST(MatrixTest, AppendToEmptyAdopts)
{
    Rng rng(7);
    const Matrix a = Matrix::randomNormal(3, 4, rng);
    Matrix empty;
    empty.appendRows(a);
    EXPECT_EQ(empty.rows(), 3);
    EXPECT_LT(maxAbsDiff(empty, a), 1e-9f);
}

TEST(MatrixTest, FrobeniusNormKnown)
{
    Matrix m(1, 2);
    m(0, 0) = 3;
    m(0, 1) = 4;
    EXPECT_FLOAT_EQ(frobeniusNorm(m), 5.0f);
}

TEST(MatrixTest, RelativeErrorZeroForIdentical)
{
    Rng rng(8);
    const Matrix a = Matrix::randomNormal(4, 4, rng);
    EXPECT_FLOAT_EQ(relativeError(a, a), 0.0f);
}

TEST(MatrixTest, RandomNormalMoments)
{
    Rng rng(9);
    const Matrix m = Matrix::randomNormal(200, 200, rng, 1.0f, 0.5f);
    double sum = 0;
    for (Index i = 0; i < m.size(); ++i)
        sum += m.data()[i];
    EXPECT_NEAR(sum / m.size(), 1.0, 0.01);
}

/** Property sweep: (A*B)*C == A*(B*C) across shapes. */
class MatmulAssocTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(MatmulAssocTest, Associativity)
{
    const auto [m, k, n, p] = GetParam();
    Rng rng(100 + m + k + n + p);
    const Matrix a = Matrix::randomNormal(m, k, rng);
    const Matrix b = Matrix::randomNormal(k, n, rng);
    const Matrix c = Matrix::randomNormal(n, p, rng);
    const Matrix left = matmul(matmul(a, b), c);
    const Matrix right = matmul(a, matmul(b, c));
    EXPECT_LT(relativeError(left, right), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulAssocTest,
    ::testing::Values(std::make_tuple(1, 1, 1, 1),
                      std::make_tuple(2, 3, 4, 5),
                      std::make_tuple(8, 8, 8, 8),
                      std::make_tuple(16, 1, 16, 1),
                      std::make_tuple(1, 32, 1, 32),
                      std::make_tuple(7, 13, 5, 3)));

} // namespace
