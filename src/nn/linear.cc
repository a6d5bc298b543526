#include "nn/linear.h"

#include <cmath>

#include "core/backend.h"
#include "core/logging.h"
#include "core/op_counter.h"
#include "core/rng.h"
#include "core/simd.h"

namespace cta::nn {

using core::Index;
using core::Matrix;
using core::OpCounts;
using core::Real;

Linear::Linear(Index in_dim, Index out_dim, bool with_bias)
    : weight_(in_dim, out_dim)
{
    if (with_bias)
        bias_ = Matrix(1, out_dim);
}

Linear::Linear(Matrix weight) : weight_(std::move(weight)) {}

Linear
Linear::randomInit(Index in_dim, Index out_dim, core::Rng &rng,
                   bool with_bias)
{
    Linear layer(in_dim, out_dim, with_bias);
    const Real stddev = 1.0f / std::sqrt(static_cast<Real>(in_dim));
    layer.weight_ = Matrix::randomNormal(in_dim, out_dim, rng, 0, stddev);
    if (with_bias)
        layer.bias_ = Matrix::randomNormal(1, out_dim, rng, 0, 0.01f);
    return layer;
}

Matrix
Linear::forward(const Matrix &x, OpCounts *counts) const
{
    Matrix y;
    forwardInto(x, y, counts);
    return y;
}

void
Linear::forwardInto(const Matrix &x, Matrix &y, OpCounts *counts) const
{
    CTA_REQUIRE(x.cols() == weight_.rows(),
                "linear input dim ", x.cols(), " != ", weight_.rows());
    matmulInto(x, weight_, y, counts);
    if (bias_) {
        // Vectorized per-row bias add: one add per element at every
        // vector width, so results stay bit-identical to the scalar
        // loop (and to every ISA level).
        const Real *brow = bias_->row(0).data();
        core::activeBackend().mapRows(
            y.rows(), [&](Index row_begin, Index row_end) {
                for (Index i = row_begin; i < row_end; ++i)
                    core::simdAddRow(y.row(i).data(), brow,
                                     y.cols());
            });
        if (counts)
            counts->adds += static_cast<std::uint64_t>(y.size());
    }
}

} // namespace cta::nn
