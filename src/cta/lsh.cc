#include "cta/lsh.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/logging.h"
#include "core/op_counter.h"
#include "core/simd.h"
#include "core/rng.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cta::alg {

using core::Index;
using core::Matrix;
using core::Real;
using core::Wide;

HashMatrix::HashMatrix(Index rows, Index cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows * cols), 0)
{
}

std::int32_t &
HashMatrix::operator()(Index r, Index c)
{
    CTA_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
               "hash index out of range");
    return data_[static_cast<std::size_t>(r * cols_ + c)];
}

std::int32_t
HashMatrix::operator()(Index r, Index c) const
{
    CTA_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
               "hash index out of range");
    return data_[static_cast<std::size_t>(r * cols_ + c)];
}

std::span<const std::int32_t>
HashMatrix::code(Index r) const
{
    CTA_ASSERT(r >= 0 && r < rows_, "hash row out of range");
    return {data_.data() + r * cols_, static_cast<std::size_t>(cols_)};
}

LshParams
LshParams::sample(Index l, Index d, Real w, core::Rng &rng)
{
    CTA_REQUIRE(l > 0 && d > 0 && w > 0,
                "LSH needs positive l, d, w; got ", l, ", ", d, ", ", w);
    LshParams params;
    params.a = Matrix::randomNormal(l, d, rng);
    params.b = Matrix(l, 1);
    for (Index i = 0; i < l; ++i)
        params.b(i, 0) = rng.uniform(0, w);
    params.w = w;
    return params;
}

LshParams
LshParams::withWidth(Real new_w) const
{
    CTA_REQUIRE(new_w > 0, "bucket width must be positive");
    LshParams params = *this;
    // Keep the bias uniform over [0, new_w) by rescaling.
    for (Index i = 0; i < params.b.rows(); ++i)
        params.b(i, 0) = params.b(i, 0) / w * new_w;
    params.w = new_w;
    return params;
}

namespace {

/**
 * Saturating bucket conversion: floor values beyond the int32 range
 * clamp to its bounds (small w plus large tokens can push dot/w far
 * past 2^31, where a raw cast is UB); NaN maps to bucket 0.
 */
std::int32_t
toBucket(Wide floored)
{
    constexpr Wide lo =
        static_cast<Wide>(std::numeric_limits<std::int32_t>::min());
    constexpr Wide hi =
        static_cast<Wide>(std::numeric_limits<std::int32_t>::max());
    if (std::isnan(floored))
        return 0;
    if (floored <= lo)
        return std::numeric_limits<std::int32_t>::min();
    if (floored >= hi)
        return std::numeric_limits<std::int32_t>::max();
    return static_cast<std::int32_t>(floored);
}

/** Bucket of one projected FP32 chain: floor((dot + b) / w) as the
 *  multiply by 1/w in double, saturated by toBucket. */
std::int32_t
bucketOf(Real dot, Real bias, Real inv_w)
{
    const Wide shifted = (static_cast<Wide>(dot) + bias) * inv_w;
    return toBucket(std::floor(shifted));
}

/** The LshBucket fault site: one draw per *token*, keyed on the
 *  produced code, so a token faults identically whether it was
 *  hashed alone or in a batch, under any thread count. */
void
maybePerturb(std::span<std::int32_t> code)
{
    if (!fault::armed(fault::Site::LshBucket))
        return;
    const std::uint64_t key = fault::hashBytes(
        code.data(), code.size() * sizeof(std::int32_t));
    const auto at = static_cast<std::size_t>(
        fault::mix(fault::Site::LshBucket, key ^ 0x17u) %
        static_cast<std::uint64_t>(code.size()));
    fault::perturbBucket(fault::Site::LshBucket, key, code[at]);
}

/** Charges hashing @p tokens tokens: l*d MACs, l adds, l muls and l
 *  floors each. */
void
chargeHash(core::OpCounts *counts, Index tokens, Index l, Index d)
{
    if (!counts)
        return;
    const auto lu = static_cast<std::uint64_t>(tokens) *
                    static_cast<std::uint64_t>(l);
    counts->macs += lu * static_cast<std::uint64_t>(d);
    counts->adds += lu;   // + b
    counts->muls += lu;   // * 1/w
    counts->floors += lu;
}

/** Rows per dot-kernel call: two kSimdDotRows blocks, so the
 *  kernel's prefetch of the next block's rows has one to fetch. */
constexpr Index kHashLanes = 2 * core::kSimdDotRows;

} // namespace

void
hashRows(const Matrix &x, const LshParams &params,
         std::span<std::int32_t> codes, core::OpCounts *counts)
{
    // Deliberately uninstrumented: a decode step hashes one row here,
    // and even disabled macros cost several percent of serve
    // throughput by inhibiting this leaf's optimization. Callers carry
    // the "lsh.hash" span and the lsh.tokens_hashed counter instead.
    const Index n = x.rows();
    const Index l = params.hashLen();
    const Index d = params.dim();
    CTA_REQUIRE(x.cols() == d, "token dim ", x.cols(), " != LSH dim ",
                d);
    CTA_REQUIRE(static_cast<Index>(codes.size()) == n * l,
                "code storage ", codes.size(), " != ", n, " x ", l);
    const Real inv_w = 1.0f / params.w;
    const Real *rows[kHashLanes];
    Real dots[kHashLanes];
    if (n < l) {
        // Fewer tokens than directions (a decode step's single row):
        // one direction per lane, so dots[j] is direction j's chain
        // acc = fma(x[i][k], a[j][k], acc), k ascending from +0.
        for (Index i = 0; i < n; ++i)
            for (Index j0 = 0; j0 < l; j0 += kHashLanes) {
                const Index m = std::min(kHashLanes, l - j0);
                for (Index j = 0; j < m; ++j)
                    rows[j] = params.a.row(j0 + j).data();
                core::simdDotRows(x.row(i).data(), rows, m, d, dots);
                for (Index j = 0; j < m; ++j)
                    codes[static_cast<std::size_t>(i * l + j0 + j)] =
                        bucketOf(dots[j], params.b(j0 + j, 0), inv_w);
            }
    } else {
        // One token per lane: for each direction j, dots[i] is token
        // i's chain — the same bits as above, since fma(a, b, c) ==
        // fma(b, a, c) exactly.
        for (Index i0 = 0; i0 < n; i0 += kHashLanes) {
            const Index m = std::min(kHashLanes, n - i0);
            for (Index i = 0; i < m; ++i)
                rows[i] = x.row(i0 + i).data();
            for (Index j = 0; j < l; ++j) {
                core::simdDotRows(params.a.row(j).data(), rows, m, d,
                                  dots);
                const Real bias = params.b(j, 0);
                for (Index i = 0; i < m; ++i)
                    codes[static_cast<std::size_t>((i0 + i) * l + j)] =
                        bucketOf(dots[i], bias, inv_w);
            }
        }
    }
    for (Index i = 0; i < n; ++i)
        maybePerturb(codes.subspan(static_cast<std::size_t>(i * l),
                                   static_cast<std::size_t>(l)));
    chargeHash(counts, n, l, d);
}

HashMatrix
hashTokens(const Matrix &x, const LshParams &params,
           core::OpCounts *counts)
{
    CTA_TRACE_SCOPE("lsh.hash_batch");
    CTA_REQUIRE(x.cols() == params.dim(), "token dim ", x.cols(),
                " != LSH dim ", params.dim());
    const Index n = x.rows();
    CTA_OBS_COUNT("lsh.tokens_hashed", static_cast<std::uint64_t>(n));
    HashMatrix h(n, params.hashLen());
    hashRows(x, params, h.data(), counts);
    return h;
}

} // namespace cta::alg
