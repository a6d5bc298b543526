#include "core/matrix.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/backend.h"
#include "core/logging.h"
#include "core/op_counter.h"
#include "core/rng.h"
#include "core/simd.h"

namespace cta::core {

Matrix::Matrix(Index rows, Index cols, Real fill)
    : rows_(rows), cols_(cols)
{
    CTA_REQUIRE(rows >= 0 && cols >= 0,
                "matrix dims must be non-negative, got ", rows, "x", cols);
    // Cast the factors BEFORE multiplying: the product is formed in
    // std::size_t, so it cannot narrow through Index on the way in.
    data_.assign(static_cast<std::size_t>(rows) *
                     static_cast<std::size_t>(cols),
                 fill);
}

Real &
Matrix::operator()(Index r, Index c)
{
    CTA_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
               "index (", r, ",", c, ") out of ", rows_, "x", cols_);
    return data_[static_cast<std::size_t>(r) *
                     static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
}

Real
Matrix::operator()(Index r, Index c) const
{
    CTA_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
               "index (", r, ",", c, ") out of ", rows_, "x", cols_);
    return data_[static_cast<std::size_t>(r) *
                     static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
}

std::span<Real>
Matrix::row(Index r)
{
    CTA_ASSERT(r >= 0 && r < rows_, "row ", r, " out of ", rows_);
    return {data_.data() +
                static_cast<std::size_t>(r) *
                    static_cast<std::size_t>(cols_),
            static_cast<std::size_t>(cols_)};
}

std::span<const Real>
Matrix::row(Index r) const
{
    CTA_ASSERT(r >= 0 && r < rows_, "row ", r, " out of ", rows_);
    return {data_.data() +
                static_cast<std::size_t>(r) *
                    static_cast<std::size_t>(cols_),
            static_cast<std::size_t>(cols_)};
}

void
Matrix::fill(Real value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Matrix::resize(Index rows, Index cols)
{
    CTA_REQUIRE(rows >= 0 && cols >= 0,
                "matrix dims must be non-negative, got ", rows, "x", cols);
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<std::size_t>(rows) *
                     static_cast<std::size_t>(cols),
                 0.0f);
}

Matrix
Matrix::rowSlice(Index begin, Index end) const
{
    CTA_REQUIRE(begin >= 0 && begin <= end && end <= rows_,
                "bad row slice [", begin, ",", end, ") of ", rows_);
    Matrix out(end - begin, cols_);
    // Form byte offsets in std::size_t, not Index (narrowing audit).
    const auto first = static_cast<std::size_t>(begin) *
                       static_cast<std::size_t>(cols_);
    const auto last = static_cast<std::size_t>(end) *
                      static_cast<std::size_t>(cols_);
    std::copy(data_.begin() + static_cast<std::ptrdiff_t>(first),
              data_.begin() + static_cast<std::ptrdiff_t>(last),
              out.data_.begin());
    return out;
}

void
Matrix::appendRows(const Matrix &other)
{
    if (other.empty())
        return;
    if (empty()) {
        *this = other;
        return;
    }
    CTA_REQUIRE(other.cols_ == cols_, "appendRows column mismatch: ",
                cols_, " vs ", other.cols_);
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
    rows_ += other.rows_;
}

Matrix
Matrix::randomNormal(Index rows, Index cols, Rng &rng, Real mean,
                     Real stddev)
{
    Matrix out(rows, cols);
    for (auto &value : out.data_)
        value = rng.normal(mean, stddev);
    return out;
}

Matrix
Matrix::randomUniform(Index rows, Index cols, Rng &rng, Real lo, Real hi)
{
    Matrix out(rows, cols);
    for (auto &value : out.data_)
        value = rng.uniform(lo, hi);
    return out;
}

Matrix
Matrix::identity(Index order)
{
    Matrix out(order, order);
    for (Index i = 0; i < order; ++i)
        out(i, i) = 1;
    return out;
}

Matrix
matmul(const Matrix &a, const Matrix &b, OpCounts *counts)
{
    Matrix c;
    matmulInto(a, b, c, counts);
    return c;
}

void
matmulInto(const Matrix &a, const Matrix &b, Matrix &c, OpCounts *counts)
{
    CTA_REQUIRE(a.cols() == b.rows(), "matmul shape mismatch: ",
                a.rows(), "x", a.cols(), " * ", b.rows(), "x", b.cols());
    c.resize(a.rows(), b.cols());
    activeBackend().gemm(a, b, c);
    // Op accounting is analytic — identical for every backend and
    // thread count (the OpCounts determinism contract).
    if (counts)
        counts->macs += static_cast<std::uint64_t>(a.rows()) *
                        static_cast<std::uint64_t>(a.cols()) *
                        static_cast<std::uint64_t>(b.cols());
}

Matrix
matmulTransB(const Matrix &a, const Matrix &b, OpCounts *counts)
{
    CTA_REQUIRE(a.cols() == b.cols(), "matmulTransB shape mismatch: ",
                a.rows(), "x", a.cols(), " * (", b.rows(), "x", b.cols(),
                ")^T");
    std::vector<const Real *> rows(static_cast<std::size_t>(b.rows()));
    for (Index j = 0; j < b.rows(); ++j)
        rows[static_cast<std::size_t>(j)] = b.row(j).data();
    Matrix c;
    matmulTransBInto(a, rows, c, counts);
    return c;
}

void
matmulTransBInto(const Matrix &a, std::span<const Real *const> b_rows,
                 Matrix &c, OpCounts *counts)
{
    const auto n = static_cast<Index>(b_rows.size());
    if (a.rows() == 1) {
        c.resize(1, n);
        simdDotRows(a.data(), b_rows.data(), n, a.cols(), c.data());
    } else {
        Matrix bt(a.cols(), n);
        activeBackend().mapRows(a.cols(), [&](Index begin, Index end) {
            for (Index k = begin; k < end; ++k) {
                Real *dst = bt.row(k).data();
                for (Index j = 0; j < n; ++j)
                    dst[j] = b_rows[static_cast<std::size_t>(j)][k];
            }
        });
        matmulInto(a, bt, c);
    }
    if (counts)
        counts->macs += static_cast<std::uint64_t>(a.rows()) *
                        static_cast<std::uint64_t>(n) *
                        static_cast<std::uint64_t>(a.cols());
}

Matrix
transpose(const Matrix &a)
{
    Matrix t(a.cols(), a.rows());
    // Parallel over OUTPUT rows (columns of A): disjoint writes.
    activeBackend().mapRows(a.cols(), [&](Index begin, Index end) {
        for (Index j = begin; j < end; ++j)
            for (Index i = 0; i < a.rows(); ++i)
                t(j, i) = a(i, j);
    });
    return t;
}

Matrix
add(const Matrix &a, const Matrix &b, OpCounts *counts)
{
    CTA_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                "add shape mismatch");
    Matrix c(a.rows(), a.cols());
    activeBackend().mapRows(a.rows(), [&](Index begin, Index end) {
        const Index lo = begin * a.cols();
        const Index hi = end * a.cols();
        for (Index i = lo; i < hi; ++i)
            c.data()[i] = a.data()[i] + b.data()[i];
    });
    if (counts)
        counts->adds += static_cast<std::uint64_t>(a.size());
    return c;
}

Matrix
sub(const Matrix &a, const Matrix &b, OpCounts *counts)
{
    CTA_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                "sub shape mismatch");
    Matrix c(a.rows(), a.cols());
    activeBackend().mapRows(a.rows(), [&](Index begin, Index end) {
        const Index lo = begin * a.cols();
        const Index hi = end * a.cols();
        for (Index i = lo; i < hi; ++i)
            c.data()[i] = a.data()[i] - b.data()[i];
    });
    if (counts)
        counts->adds += static_cast<std::uint64_t>(a.size());
    return c;
}

Matrix
scale(const Matrix &a, Real s, OpCounts *counts)
{
    Matrix c(a.rows(), a.cols());
    activeBackend().mapRows(a.rows(), [&](Index begin, Index end) {
        const Index lo = begin * a.cols();
        const Index hi = end * a.cols();
        for (Index i = lo; i < hi; ++i)
            c.data()[i] = a.data()[i] * s;
    });
    if (counts)
        counts->muls += static_cast<std::uint64_t>(a.size());
    return c;
}

Real
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    CTA_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                "maxAbsDiff shape mismatch");
    Real max_diff = 0;
    for (Index i = 0; i < a.size(); ++i)
        max_diff = std::max(max_diff, std::abs(a.data()[i] - b.data()[i]));
    return max_diff;
}

Real
frobeniusNorm(const Matrix &a)
{
    const Wide acc = activeBackend().reduceRows(
        a.rows(), [&](Index begin, Index end) {
            const Index lo = begin * a.cols();
            const Index hi = end * a.cols();
            Wide partial = 0;
            for (Index i = lo; i < hi; ++i)
                partial +=
                    static_cast<Wide>(a.data()[i]) * a.data()[i];
            return partial;
        });
    return static_cast<Real>(std::sqrt(acc));
}

Real
relativeError(const Matrix &a, const Matrix &ref)
{
    const Real denom = frobeniusNorm(ref);
    if (denom == 0)
        return frobeniusNorm(a) == 0 ? 0 : 1;
    Matrix diff = sub(a, ref);
    return frobeniusNorm(diff) / denom;
}

} // namespace cta::core
