#include "nn/attention.h"

#include <cmath>
#include <limits>

#include "core/logging.h"
#include "core/op_counter.h"
#include "core/rng.h"
#include "nn/softmax.h"

namespace cta::nn {

using core::Index;
using core::Matrix;
using core::OpCounts;
using core::Real;

AttentionHeadParams
AttentionHeadParams::randomInit(Index d_w, Index d, core::Rng &rng)
{
    return AttentionHeadParams{
        Linear::randomInit(d_w, d, rng),
        Linear::randomInit(d_w, d, rng),
        Linear::randomInit(d_w, d, rng),
    };
}

AttentionTrace
exactAttentionTraced(const Matrix &xq, const Matrix &xkv,
                     const AttentionHeadParams &params,
                     OpCounts *counts, AttentionMask mask)
{
    CTA_REQUIRE(xq.cols() == xkv.cols(),
                "query/key token dims differ: ", xq.cols(), " vs ",
                xkv.cols());
    AttentionTrace trace;
    trace.q = params.wq.forward(xq, counts);
    trace.k = params.wk.forward(xkv, counts);
    trace.v = params.wv.forward(xkv, counts);

    const Real inv_sqrt_d =
        1.0f / std::sqrt(static_cast<Real>(trace.q.cols()));
    trace.scores = matmulTransB(trace.q, trace.k, counts);
    trace.scores = scale(trace.scores, inv_sqrt_d, counts);
    if (mask == AttentionMask::Causal) {
        CTA_REQUIRE(xq.rows() == xkv.rows(),
                    "causal mask requires self-attention shapes");
        // Query i must not see keys j > i: -inf scores vanish in the
        // softmax.
        for (Index i = 0; i < trace.scores.rows(); ++i)
            for (Index j = i + 1; j < trace.scores.cols(); ++j)
                trace.scores(i, j) =
                    -std::numeric_limits<Real>::infinity();
    }
    trace.probs = rowSoftmax(trace.scores, counts);
    trace.output = matmul(trace.probs, trace.v, counts);
    return trace;
}

Matrix
exactAttention(const Matrix &xq, const Matrix &xkv,
               const AttentionHeadParams &params, OpCounts *counts,
               AttentionMask mask)
{
    return exactAttentionTraced(xq, xkv, params, counts, mask).output;
}

OpCounts
exactAttentionCalcOps(Index m, Index n, Index d)
{
    OpCounts ops;
    const auto mu = static_cast<std::uint64_t>(m);
    const auto nu = static_cast<std::uint64_t>(n);
    const auto du = static_cast<std::uint64_t>(d);
    ops.macs = mu * nu * du        // S = Q K^T
             + mu * nu * du;       // O = P V
    ops.muls = mu * nu             // 1/sqrt(d) scaling
             + mu * nu;            // probability normalization
    ops.cmps = mu * (nu - 1);      // softmax row max
    ops.adds = mu * nu             // max shift
             + mu * (nu - 1);      // denominator sum
    ops.exps = mu * nu;
    ops.divs = mu;                 // reciprocal per row
    return ops;
}

OpCounts
exactLinearOps(Index m, Index n, Index d_w, Index d)
{
    OpCounts ops;
    ops.macs = static_cast<std::uint64_t>(m) * d_w * d    // Q
             + 2ull * static_cast<std::uint64_t>(n) * d_w * d; // K, V
    return ops;
}

} // namespace cta::nn
