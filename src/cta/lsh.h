/**
 * @file
 * p-stable locality sensitive hashing (paper SIII-A, eq. 1):
 *
 *   h_{a,b}(x) = floor((<x, a> + b) / w)
 *   H = floor((A . X^T + B) / w)
 *
 * with A's rows sampled from N(0,1)^d and b from U(0, w). A token's
 * hash code is the column of H belonging to it: an l-vector of bucket
 * integers. Tokens sharing a hash code land in one cluster.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "core/matrix.h"

namespace cta::core {
class Rng;
struct OpCounts;
} // namespace cta::core

namespace cta::alg {

/** Integer matrix holding one l-dimensional hash code per token row. */
class HashMatrix
{
  public:
    HashMatrix() = default;

    /** rows = number of tokens, cols = hash length l. */
    HashMatrix(core::Index rows, core::Index cols);

    core::Index rows() const { return rows_; }
    core::Index cols() const { return cols_; }

    std::int32_t &operator()(core::Index r, core::Index c);
    std::int32_t operator()(core::Index r, core::Index c) const;

    /** The hash code (length-l span) of token @p r. */
    std::span<const std::int32_t> code(core::Index r) const;

    /** All codes, row-major (token r's code at [r*l, (r+1)*l)). */
    std::span<std::int32_t> data() { return data_; }

    bool operator==(const HashMatrix &other) const = default;

  private:
    core::Index rows_ = 0;
    core::Index cols_ = 0;
    std::vector<std::int32_t> data_;
};

/** Hyperparameters of one LSH instance (A, B, w from eq. 1). */
struct LshParams
{
    core::Matrix a;   ///< l x d direction matrix, rows ~ N(0,1)^d
    core::Matrix b;   ///< l x 1 bias vector, entries ~ U(0, w)
    core::Real w = 1; ///< bucket width

    /** Hash-code length l. */
    core::Index hashLen() const { return a.rows(); }

    /** Token dimension d. */
    core::Index dim() const { return a.cols(); }

    /** Samples fresh (A, B) for the given shape and width. */
    static LshParams sample(core::Index l, core::Index d, core::Real w,
                            core::Rng &rng);

    /** Returns a copy with a different bucket width (same A; biases
     *  are rescaled to stay uniform over the new [0, w)). */
    LshParams withWidth(core::Real new_w) const;
};

/**
 * Hashes every row of @p x (n x d), producing an n x l HashMatrix
 * (hashRows under an "lsh.hash_batch" span and the lsh.tokens_hashed
 * count).
 *
 * Charges l*n*d MACs (the A.X^T product, counting the bias add into
 * the MAC chain), l*n adds and l*n floor/divide pairs — matching the
 * paper's SIII-D overhead accounting of 3*l*n*d multiplications for
 * the three LSH instances.
 *
 * Bucket integers saturate to the int32 range (extreme dot products
 * under a tiny bucket width would otherwise overflow the cast); NaN
 * inputs hash to bucket 0.
 */
HashMatrix hashTokens(const core::Matrix &x, const LshParams &params,
                      core::OpCounts *counts = nullptr);

/**
 * hashTokens() into caller-owned storage, without its trace span and
 * lsh.tokens_hashed count — for callers that carry both themselves
 * (the incremental levels' batch append). @p codes holds n x l
 * buckets row-major.
 *
 * Each bucket is floor((dot + b[j]) * (1/w)) in double, where dot is
 * the FP32 chain acc = fma(a[j][k], x[i][k], acc), k ascending from
 * +0 — the one dot-product contract of core/simd.h, run by
 * core::simdDotRows per (token, direction). The batch's shape picks
 * the lane orientation: fewer rows than directions (a decode step's
 * single row) run one direction per lane, otherwise one token per
 * lane. Both perform every chain's exact scalar sequence, so a
 * token's code depends on nothing but the token and the parameters —
 * hashing a prefix one row at a time gives the codes of hashing it
 * whole (tests/lsh_property_test). A leaf — no thread pool, no heap —
 * so a decode step or a calibration step pays for the dots alone.
 * Same fault draws (one per token) and op counts either way.
 */
void hashRows(const core::Matrix &x, const LshParams &params,
              std::span<std::int32_t> codes,
              core::OpCounts *counts = nullptr);

} // namespace cta::alg
