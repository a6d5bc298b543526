#include "cta/quantization.h"

namespace cta::alg {

using core::Matrix;
using core::QuantScheme;

namespace {

/** Quantizes a Linear's weights to the range-fit 12-bit format. */
nn::Linear
quantizeLinear(const nn::Linear &layer, int total_bits)
{
    const core::FxpFormat fmt =
        core::fitWeightFormat(layer.weight(), total_bits);
    return nn::Linear(core::quantizeMatrix(layer.weight(), fmt));
}

/** A head's inputs as the hardware loads them: tokens on the token
 *  grid, weights on the range-fit weight grid. */
struct QuantizedInputs
{
    Matrix xq;
    Matrix xkv;
    nn::AttentionHeadParams params;

    QuantizedInputs(const Matrix &q, const Matrix &kv,
                    const nn::AttentionHeadParams &p,
                    const QuantScheme &scheme)
        : xq(quantizeMatrix(q, scheme.tokens)),
          xkv(&q == &kv ? xq : quantizeMatrix(kv, scheme.tokens)),
          params{quantizeLinear(p.wq, scheme.weights.totalBits),
                 quantizeLinear(p.wk, scheme.weights.totalBits),
                 quantizeLinear(p.wv, scheme.weights.totalBits)}
    {
    }
};

} // namespace

CtaResult
ctaAttentionQuantized(const Matrix &xq, const Matrix &xkv,
                      const nn::AttentionHeadParams &params,
                      const CtaConfig &config, const QuantScheme &scheme)
{
    const QuantizedInputs in(xq, xkv, params, scheme);
    // Row-max subtraction is mandatory in fixed point: it bounds the
    // exp-LUT input range (paper SIV-B score phase).
    return detail::runCta(in.xq, in.xkv, in.params, config,
                          /*subtract_row_max=*/true, &scheme);
}

Matrix
exactAttentionQuantized(const Matrix &xq, const Matrix &xkv,
                        const nn::AttentionHeadParams &params,
                        const QuantScheme &scheme)
{
    const QuantizedInputs in(xq, xkv, params, scheme);
    return nn::exactAttention(in.xq, in.xkv, in.params);
}

} // namespace cta::alg
