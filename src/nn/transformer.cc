#include "nn/transformer.h"

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
using core::Wide;

LayerNorm::LayerNorm(Index dim, Real epsilon)
    : gamma_(1, dim, 1.0f), beta_(1, dim, 0.0f), epsilon_(epsilon)
{
}

Matrix
LayerNorm::forward(const Matrix &x, OpCounts *counts) const
{
    CTA_REQUIRE(x.cols() == gamma_.cols(), "layernorm dim mismatch");
    Matrix out(x.rows(), x.cols());
    const Index d = x.cols();
    const Real *gamma = gamma_.data();
    const Real *beta = beta_.data();
    // Rows normalize independently: row-parallel map with per-row
    // state only (disjoint writes into out).
    core::activeBackend().mapRows(
        x.rows(), [&](Index row_begin, Index row_end) {
            for (Index i = row_begin; i < row_end; ++i) {
                const Real *xrow = x.row(i).data();
                Real *orow = out.row(i).data();
                Wide sum = 0;
                for (Index j = 0; j < d; ++j)
                    sum += xrow[j];
                const Wide mu = sum / d;
                Wide var = 0;
                for (Index j = 0; j < d; ++j) {
                    const Wide diff = xrow[j] - mu;
                    var += diff * diff;
                }
                var /= d;
                const Real inv_std =
                    1.0f /
                    std::sqrt(static_cast<Real>(var) + epsilon_);
                const Real mu_real = static_cast<Real>(mu);
                for (Index j = 0; j < d; ++j) {
                    const Real norm = (xrow[j] - mu_real) * inv_std;
                    orow[j] = norm * gamma[j] + beta[j];
                }
            }
        });
    if (counts) {
        const auto cells = static_cast<std::uint64_t>(x.size());
        counts->adds += 3 * cells; // mean sum, var sum, centering
        counts->muls += 3 * cells; // var square, inv_std, gamma
        counts->divs += 2 * static_cast<std::uint64_t>(x.rows());
    }
    return out;
}

Matrix
gelu(Matrix x, OpCounts *counts)
{
    core::activeBackend().mapRows(
        x.rows(), [&](Index row_begin, Index row_end) {
            Real *lo = x.data() + row_begin * x.cols();
            core::simdGeluRow(lo, (row_end - row_begin) * x.cols(), lo);
        });
    if (counts) {
        // Count a GELU as ~6 muls + 2 adds + 1 exp-class op per cell.
        const auto cells = static_cast<std::uint64_t>(x.size());
        counts->muls += 6 * cells;
        counts->adds += 2 * cells;
        counts->exps += cells;
    }
    return x;
}

FeedForward::FeedForward(Index d_model, Index d_hidden, core::Rng &rng)
    : up_(Linear::randomInit(d_model, d_hidden, rng, true)),
      down_(Linear::randomInit(d_hidden, d_model, rng, true))
{
}

Matrix
FeedForward::forward(const Matrix &x, OpCounts *counts) const
{
    return down_.forward(gelu(up_.forward(x, counts), counts), counts);
}

} // namespace cta::nn
