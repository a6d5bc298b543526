#include "serve/decode_session.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

#include "core/backend.h"
#include "core/crc32.h"
#include "core/logging.h"
#include "cta/error.h"
#include "fault/fault.h"
#include "nn/softmax.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cta::serve {

using core::Index;
using core::Matrix;
using core::OpCounts;
using core::Real;

namespace {

constexpr std::uint8_t kBlobMagic[4] = {'C', 'T', 'A', 'S'};
// v1: no checksum; v2: CRC-32 trailer, full-state levels; v3: delta
// levels + shared-prefix reference. v1/v2 are rejected with a
// distinct "legacy" diagnostic (their full-state payload cannot be
// expressed as a v3 delta without the base they were taken against).
constexpr std::uint32_t kBlobVersion = 3;

/** Appends the raw little-endian bytes of @p value. */
template <typename T>
void
putScalar(std::vector<std::uint8_t> &out, T value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const auto at = out.size();
    out.resize(at + sizeof(T));
    std::memcpy(out.data() + at, &value, sizeof(T));
}

template <typename T>
void
putArray(std::vector<std::uint8_t> &out, const T *data,
         std::size_t count)
{
    putScalar<std::uint64_t>(out, count);
    const auto at = out.size();
    out.resize(at + count * sizeof(T));
    // An empty array may come with a null data pointer, which
    // memcpy must not be handed even for a zero count.
    if (count > 0)
        std::memcpy(out.data() + at, data, count * sizeof(T));
}

void
putMatrix(std::vector<std::uint8_t> &out, const Matrix &m)
{
    putScalar<std::int64_t>(out, m.rows());
    putScalar<std::int64_t>(out, m.cols());
    putArray(out, m.data(), static_cast<std::size_t>(m.size()));
}

/**
 * Bounds-checked reader over a snapshot blob. Never fatal: the first
 * failed read latches an error and every later read returns a default,
 * so callers parse straight through and check ok() once at the end —
 * that is what lets tryDeserializeSnapshot() survive a structurally
 * damaged blob behind a forged checksum.
 */
class BlobReader
{
  public:
    explicit BlobReader(std::span<const std::uint8_t> bytes)
        : bytes_(bytes)
    {
    }

    template <typename T>
    T
    scalar()
    {
        if (!ok_ || at_ + sizeof(T) > bytes_.size()) {
            fail("truncated session snapshot blob");
            return T{};
        }
        T value;
        std::memcpy(&value, bytes_.data() + at_, sizeof(T));
        at_ += sizeof(T);
        return value;
    }

    template <typename T>
    std::vector<T>
    array()
    {
        const auto count = scalar<std::uint64_t>();
        if (!ok_ || count > (bytes_.size() - at_) / sizeof(T)) {
            fail("session snapshot blob array overruns the blob");
            return {};
        }
        std::vector<T> out(static_cast<std::size_t>(count));
        if (count > 0)
            std::memcpy(out.data(), bytes_.data() + at_,
                        out.size() * sizeof(T));
        at_ += out.size() * sizeof(T);
        return out;
    }

    void
    fail(const char *why)
    {
        if (ok_) {
            ok_ = false;
            error_ = why;
        }
    }

    bool ok() const { return ok_; }

    const char *error() const { return error_; }

    bool exhausted() const { return at_ == bytes_.size(); }

  private:
    std::span<const std::uint8_t> bytes_;
    std::size_t at_ = 0;
    bool ok_ = true;
    const char *error_ = "";
};

Matrix
readMatrix(BlobReader &reader)
{
    const Index rows = reader.scalar<std::int64_t>();
    const Index cols = reader.scalar<std::int64_t>();
    const std::vector<Real> values = reader.array<Real>();
    if (rows < 0 || cols < 0 ||
        static_cast<std::size_t>(rows) *
                static_cast<std::size_t>(cols) !=
            values.size()) {
        reader.fail("snapshot blob matrix shape does not match its "
                    "value count");
        return {};
    }
    Matrix out(rows, cols);
    std::copy(values.begin(), values.end(), out.data());
    return out;
}

void
putDelta(std::vector<std::uint8_t> &out,
         const alg::CompressionLevelDelta &delta)
{
    putScalar<std::int64_t>(out, delta.baseTokens);
    putScalar<std::int64_t>(out, delta.baseClusters);
    putArray(out, delta.tableSuffix.data(), delta.tableSuffix.size());
    putArray(out, delta.codeSuffix.data(), delta.codeSuffix.size());
    putArray(out, delta.members.data(), delta.members.size());
    putArray(out, delta.divergedRows.data(),
             delta.divergedRows.size());
    putMatrix(out, delta.divergedSums);
    putMatrix(out, delta.appendedSums);
}

alg::CompressionLevelDelta
readDelta(BlobReader &reader)
{
    alg::CompressionLevelDelta delta;
    delta.baseTokens = reader.scalar<std::int64_t>();
    delta.baseClusters = reader.scalar<std::int64_t>();
    delta.tableSuffix = reader.array<Index>();
    delta.codeSuffix = reader.array<std::int32_t>();
    delta.members = reader.array<Index>();
    delta.divergedRows = reader.array<Index>();
    delta.divergedSums = readMatrix(reader);
    delta.appendedSums = readMatrix(reader);
    if (!reader.ok())
        return delta;
    if (delta.baseTokens < 0 || delta.baseClusters < 0)
        reader.fail("snapshot blob delta has negative base counts");
    else if (delta.divergedSums.rows() !=
             static_cast<Index>(delta.divergedRows.size()))
        reader.fail("snapshot blob diverged-sums row count does not "
                    "match its diverged-row list");
    return delta;
}

} // namespace

std::vector<std::uint8_t>
serializeSnapshot(const SessionSnapshot &snap)
{
    std::vector<std::uint8_t> out;
    // Reserve past the fixed header up front (also sidesteps a GCC 12
    // -Wstringop-overflow false positive on growing a fresh vector by
    // exactly sizeof(kBlobMagic)).
    out.reserve(256);
    out.insert(out.end(), std::begin(kBlobMagic), std::end(kBlobMagic));
    putScalar<std::uint32_t>(out, kBlobVersion);
    putScalar<std::int64_t>(out, snap.tokenDim);
    putScalar<std::int64_t>(out, snap.prefixId);
    putScalar<std::int64_t>(out, snap.prefixTokens);
    putDelta(out, snap.kv.level1);
    putDelta(out, snap.kv.level2);
    // CRC-32 trailer over everything above — detects every
    // single-byte flip and every truncation at restore time.
    putScalar<std::uint32_t>(out, core::crc32(out.data(), out.size()));
    return out;
}

bool
tryDeserializeSnapshot(std::span<const std::uint8_t> bytes,
                       SessionSnapshot *snap, std::string *error)
{
    CTA_REQUIRE(snap != nullptr, "null snapshot out-parameter");
    const auto fail = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return false;
    };
    constexpr std::size_t kTrailer = sizeof(std::uint32_t);
    if (bytes.size() <
        sizeof(kBlobMagic) + sizeof(std::uint32_t) + kTrailer)
        return fail("snapshot blob shorter than its fixed header");
    if (std::memcmp(bytes.data(), kBlobMagic, sizeof(kBlobMagic)) != 0)
        return fail("not a session snapshot blob (bad magic)");
    // Verify the checksum before any structural parsing: corruption
    // anywhere in the blob (including the length fields the parser
    // would otherwise trust) is caught here.
    std::uint32_t stored;
    std::memcpy(&stored, bytes.data() + bytes.size() - kTrailer,
                kTrailer);
    if (stored != core::crc32(bytes.data(), bytes.size() - kTrailer))
        return fail("session snapshot blob failed its CRC-32 check");
    BlobReader reader(bytes.subspan(
        sizeof(kBlobMagic),
        bytes.size() - sizeof(kBlobMagic) - kTrailer));
    const auto version = reader.scalar<std::uint32_t>();
    if (reader.ok() && (version == 1 || version == 2))
        // Distinct from generic corruption: the blob is intact, it is
        // just from an older serving build whose full-state layout
        // this build no longer restores.
        return fail("legacy session snapshot version " +
                    std::to_string(version) +
                    " is no longer supported; re-snapshot with the "
                    "current serving build");
    if (reader.ok() && version != kBlobVersion)
        return fail("unsupported session snapshot version");
    SessionSnapshot out;
    out.tokenDim = reader.scalar<std::int64_t>();
    out.prefixId = reader.scalar<std::int64_t>();
    out.prefixTokens = reader.scalar<std::int64_t>();
    out.kv.level1 = readDelta(reader);
    out.kv.level2 = readDelta(reader);
    if (!reader.ok())
        return fail(reader.error());
    if (!reader.exhausted())
        return fail("trailing bytes after session snapshot blob");
    if (out.tokenDim <= 0)
        return fail("session snapshot token dimension must be "
                    "positive");
    if (out.prefixId < -1)
        return fail("session snapshot prefix id must be -1 or a "
                    "valid prefix");
    if (out.prefixTokens < 0)
        return fail("session snapshot prefix token count must be "
                    "non-negative");
    if (out.prefixId < 0 && out.prefixTokens != 0)
        return fail("standalone session snapshot carries a prefix "
                    "token count");
    *snap = std::move(out);
    return true;
}

SessionSnapshot
deserializeSnapshot(std::span<const std::uint8_t> bytes)
{
    SessionSnapshot snap;
    std::string error;
    CTA_REQUIRE(tryDeserializeSnapshot(bytes, &snap, &error),
                "malformed session snapshot blob: ", error);
    return snap;
}

DecodeSession::DecodeSession(nn::AttentionHeadParams params,
                             ServeConfig config, Index token_dim)
    : DecodeSession(
          std::make_shared<const nn::AttentionHeadParams>(
              std::move(params)),
          config, token_dim,
          std::make_shared<const alg::LshParamSet>(
              alg::sampleLshParams(config.cta, token_dim)),
          std::make_shared<core::PageArena>(
              core::PageArena::pageBytesFromEnv()))
{
}

DecodeSession::DecodeSession(
    std::shared_ptr<const nn::AttentionHeadParams> params,
    ServeConfig config, Index token_dim,
    std::shared_ptr<const alg::LshParamSet> lsh,
    std::shared_ptr<core::PageArena> arena)
    : params_(std::move(params)),
      config_(config),
      lsh_(std::move(lsh)),
      arena_(std::move(arena)),
      kv_(std::shared_ptr<const alg::LshParams>(lsh_, &lsh_->lsh1),
          std::shared_ptr<const alg::LshParams>(lsh_, &lsh_->lsh2),
          arena_),
      kBar1_(arena_, params_->wk.outDim()),
      kBar2_(arena_, params_->wk.outDim()),
      vBar1_(arena_, params_->wv.outDim()),
      vBar2_(arena_, params_->wv.outDim()),
      pairs_(arena_),
      tokenDim_(token_dim)
{
    CTA_REQUIRE(params_->wq.inDim() == token_dim &&
                params_->wk.inDim() == token_dim &&
                params_->wv.inDim() == token_dim,
                "head projections expect token dim ",
                params_->wq.inDim(), ", session serves ", token_dim);
}

std::unique_ptr<DecodeSession>
DecodeSession::forkFrom(std::shared_ptr<const SharedPrefix> prefix)
{
    CTA_REQUIRE(prefix != nullptr, "null shared prefix");
    CTA_OBS_COUNT("serve.session_forks", 1);
    // The CoW copy bumps per-page refcounts — O(pages), no state
    // copied. The donor's tries were flattened at freeze time, so the
    // child's private overlay starts empty.
    auto child = std::unique_ptr<DecodeSession>(
        new DecodeSession(prefix->donor()));
    child->prefix_ = std::move(prefix);
    child->frozen_.reset();
    child->lastStepOps_ = OpCounts{};
    child->totalOps_ = OpCounts{};
    return child;
}

std::shared_ptr<const SharedPrefix>
DecodeSession::sharedPrefix(std::int64_t id)
{
    CTA_REQUIRE(!fallback_,
                "cannot freeze a fallback session as a shared prefix "
                "(its exact K/V caches are not CoW-shareable)");
    if (frozen_)
        return frozen_;
    CTA_OBS_COUNT("serve.prefix_freezes", 1);
    // Flatten the cluster tries into lookup-only shared bases first,
    // so this session, the donor, and every child reference one tree
    // instead of deep-copying trie nodes per fork.
    kv_.shareTrees();
    auto donor =
        std::unique_ptr<const DecodeSession>(new DecodeSession(*this));
    frozen_ = std::make_shared<const SharedPrefix>(id, std::move(donor));
    return frozen_;
}

Matrix
DecodeSession::kBar(int level) const
{
    CTA_REQUIRE(level == 1 || level == 2, "level must be 1 or 2");
    return level == 1 ? kBar1_.toMatrix() : kBar2_.toMatrix();
}

Matrix
DecodeSession::vBar(int level) const
{
    CTA_REQUIRE(level == 1 || level == 2, "level must be 1 or 2");
    return level == 1 ? vBar1_.toMatrix() : vBar2_.toMatrix();
}

namespace {

bool
spanFinite(std::span<const Real> values)
{
    for (const Real v : values)
        if (!std::isfinite(v))
            return false;
    return true;
}

/** The id list re-projections gather into: thread-local and cleared,
 *  not freed, so steady-state steps and restores allocate nothing. */
std::vector<Index> &
reprojectIds()
{
    thread_local std::vector<Index> ids;
    ids.clear();
    return ids;
}

} // namespace

void
DecodeSession::reproject(const alg::IncrementalCompression &level,
                         std::span<const Index> rows,
                         core::PagedRows &k_rows, core::PagedRows &v_rows,
                         OpCounts *counts)
{
    alg::refreshProjectedRows(params_->wk, level, rows, k_rows, counts);
    alg::refreshProjectedRows(params_->wv, level, rows, v_rows, counts);
}

void
DecodeSession::replayPairs(Index from)
{
    const core::PagedVector<Index> &ct1 =
        kv_.level1().clusters().assignments();
    const core::PagedVector<Index> &ct2 =
        kv_.level2().clusters().assignments();
    thread_local std::vector<Index> c1;
    thread_local std::vector<Index> c2;
    c1.clear();
    c2.clear();
    for (Index i = from; i < kv_.size(); ++i) {
        c1.push_back(ct1[static_cast<std::size_t>(i)]);
        c2.push_back(ct2[static_cast<std::size_t>(i)]);
    }
    pairs_.addBatch(c1, c2);
}

void
DecodeSession::ingest(std::span<const Real> token, OpCounts *counts)
{
    const alg::TwoLevelAppendResult r = kv_.append(token, counts);
    // Only the two centroids this token touched changed; refresh
    // exactly those cached projection rows.
    reproject(kv_.level1(), {&r.level1, 1}, kBar1_, vBar1_, counts);
    reproject(kv_.level2(), {&r.level2, 1}, kBar2_, vBar2_, counts);
    pairs_.add(r.level1, r.level2);
}

void
DecodeSession::prefill(const Matrix &tokens)
{
    CTA_TRACE_SCOPE("decode.prefill");
    CTA_OBS_COUNT("serve.prefill_tokens",
                  static_cast<std::uint64_t>(tokens.rows()));
    CTA_REQUIRE(tokens.cols() == tokenDim_, "prefill token dim ",
                tokens.cols(), " != session dim ", tokenDim_);
    frozen_.reset(); // state mutates; any cached fork donor is stale
    const std::uint64_t faultsBefore = fault::threadInjections();
    OpCounts ops;
    // Same policy as FxpFormat::encode: a non-finite element carries
    // no usable signal, so pin it to zero rather than poisoning every
    // centroid it would ever touch. Clean prompts are not copied.
    Matrix cleaned;
    const Matrix *prompt = &tokens;
    if (config_.qualityGuard)
        for (Index i = 0; i < tokens.rows(); ++i) {
            if (spanFinite(tokens.row(i)))
                continue;
            if (prompt == &tokens) {
                cleaned = tokens;
                prompt = &cleaned;
            }
            for (Real &v : cleaned.row(i))
                if (!std::isfinite(v))
                    v = 0;
            CTA_OBS_COUNT("serve.sanitized_tokens", 1);
        }
    const auto n = static_cast<std::size_t>(tokens.rows());
    std::vector<Index> c1(n);
    std::vector<Index> c2(n);
    kv_.appendBatch(*prompt, c1, c2, &ops);
    pairs_.addBatch(c1, c2);
    // A cached row only has to hold the projection of its cluster's
    // *final* centroid — every earlier write of the token-by-token
    // path is overwritten — so each touched or new centroid is
    // re-projected once, after the whole prompt is in.
    const auto reprojectTouched =
        [&](const alg::IncrementalCompression &level,
            const std::vector<Index> &clusters, core::PagedRows &k_rows,
            core::PagedRows &v_rows) {
            std::vector<Index> &ids = reprojectIds();
            ids.assign(clusters.begin(), clusters.end());
            std::sort(ids.begin(), ids.end());
            ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
            reproject(level, ids, k_rows, v_rows, &ops);
        };
    reprojectTouched(kv_.level1(), c1, kBar1_, vBar1_);
    reprojectTouched(kv_.level2(), c2, kBar2_, vBar2_);
    if (fallback_) {
        kCache_.appendRows(params_->wk.forward(*prompt, &ops));
        vCache_.appendRows(params_->wv.forward(*prompt, &ops));
    }
    faultTainted_ =
        faultTainted_ || fault::threadInjections() != faultsBefore;
    totalOps_ += ops;
}

Matrix
DecodeSession::step(std::span<const Real> token)
{
    CTA_TRACE_SCOPE("decode.step");
    CTA_OBS_COUNT("serve.decode_steps", 1);
    CTA_REQUIRE(static_cast<Index>(token.size()) == tokenDim_,
                "step token dim ", token.size(), " != session dim ",
                tokenDim_);
    frozen_.reset(); // state mutates; any cached fork donor is stale
    std::vector<Real> cleaned;
    std::span<const Real> tok = token;
    if (config_.qualityGuard && !spanFinite(tok)) {
        cleaned.assign(token.begin(), token.end());
        for (Real &v : cleaned)
            if (!std::isfinite(v))
                v = 0;
        tok = cleaned;
        CTA_OBS_COUNT("serve.sanitized_tokens", 1);
    }
    const std::uint64_t faultsBefore = fault::threadInjections();
    OpCounts ops;
    {
        CTA_TRACE_SCOPE("decode.ingest");
        ingest(tok, &ops);
    }

    Matrix out;
    if (fallback_) {
        appendExactProjections(tok, &ops);
        out = exactStep(tok, &ops);
        faultTainted_ = faultTainted_ ||
                        fault::threadInjections() != faultsBefore;
        lastStepOps_ = ops;
        totalOps_ += ops;
        return out;
    }

    // Stage 2 for the query: the lone query is its own cluster with
    // the token as centroid, so only the projection remains.
    CTA_TRACE_SCOPE("attention.decode");
    Matrix q(1, tokenDim_);
    std::copy(tok.begin(), tok.end(), q.row(0).begin());
    const Matrix q_bar = params_->wq.forward(q, &ops);

    const Index k1 = kv_.level1().numClusters();
    const Index k2 = kv_.level2().numClusters();
    const Index d = q_bar.cols();

    // Collapsed-cluster probe: a long context compressed to one
    // cluster per level means the hash family has stopped separating
    // tokens (an LSH fault or pathological stream) and every score
    // degenerates to a single pair; exact attention is both safer
    // and, at k1 + k2 == 2, not meaningfully more expensive.
    if (config_.qualityGuard && k1 == 1 && k2 == 1 &&
        contextLength() >= config_.guardMinContext) {
        activateFallback("collapsed clusters", tok, &ops);
        out = exactStep(tok, &ops);
        faultTainted_ = faultTainted_ ||
                        fault::threadInjections() != faultsBefore;
        lastStepOps_ = ops;
        totalOps_ += ops;
        return out;
    }

    const Real inv_sqrt_d = 1.0f / std::sqrt(static_cast<Real>(d));
    // Stages 3-5. Grouped: the fused kernel, one pass over the paged
    // projection rows — no K-bar/V-bar materialization, no
    // intermediate matrices. Per-token: ctaAttentionFromCompression()
    // operation for operation (the bit-exactness contract), reading
    // the cached projections instead of reprojecting [C1; C2]. Both
    // leave the un-normalized output row in o_row and the probability
    // mass in row_sum; the normalization tail below is shared.
    const Real *o_row = nullptr;
    Real row_sum = 0;
    Matrix o_bar; // per-token path's output storage
    if (config_.groupedAggregation) {
        row_sum = alg::fusedDecodeAttend(
            q_bar, kBar1_, kBar2_, vBar1_, vBar2_, pairs_, inv_sqrt_d,
            config_.cta.subtractRowMax,
            core::activeBackend().gemmFmaChains(), fusedScratch_,
            &ops);
        o_row = fusedScratch_.out.data();
    } else {
        Matrix k_bar = kBar1_.toMatrix();
        k_bar.appendRows(kBar2_.toMatrix());
        Matrix v_bar = vBar1_.toMatrix();
        v_bar.appendRows(vBar2_.toMatrix());

        Matrix s_bar = matmulTransB(q_bar, k_bar, &ops);
        s_bar = scale(s_bar, inv_sqrt_d, &ops);

        if (config_.cta.subtractRowMax) {
            Real *row = s_bar.row(0).data();
            Real row_max = row[0];
            for (Index j = 1; j < k1; ++j)
                row_max = std::max(row_max, row[j]);
            for (Index j = k1; j < k1 + k2; ++j)
                row[j] -= row_max;
            ops.cmps += static_cast<std::uint64_t>(k1 - 1);
            ops.adds += static_cast<std::uint64_t>(k2);
        }

        Matrix ap;
        Matrix row_sums;
        alg::aggregateProbabilities(
            s_bar, kv_.level1().clusters().assignments(),
            kv_.level2().clusters().assignments(), k1, ap, row_sums,
            &ops);

        o_bar = matmul(ap, v_bar, &ops);
        o_row = o_bar.row(0).data();
        row_sum = row_sums(0, 0);
    }

    const Real denom = row_sum * 0.5f;
    if (config_.qualityGuard &&
        (!std::isfinite(denom) || denom <= 0)) {
        // The probability mass vanished or went non-finite — the
        // guarded replacement for the fatal assert below.
        activateFallback("degenerate attention denominator", tok,
                         &ops);
        out = exactStep(tok, &ops);
        faultTainted_ = faultTainted_ ||
                        fault::threadInjections() != faultsBefore;
        lastStepOps_ = ops;
        totalOps_ += ops;
        return out;
    }
    CTA_ASSERT(denom > 0, "zero attention denominator");
    const Real inv = 1.0f / denom;
    out = Matrix(1, d);
    Real *dst = out.row(0).data();
    for (Index j = 0; j < d; ++j)
        dst[j] = o_row[j] * inv;
    ops.divs += static_cast<std::uint64_t>(d);

    if (config_.qualityGuard && !alg::allFinite(out)) {
        activateFallback("non-finite attention output", tok, &ops);
        out = exactStep(tok, &ops);
    }

    faultTainted_ =
        faultTainted_ || fault::threadInjections() != faultsBefore;
    lastStepOps_ = ops;
    totalOps_ += ops;
    return out;
}

void
DecodeSession::activateFallback(const char *reason,
                                std::span<const Real> token,
                                OpCounts *counts)
{
    CTA_TRACE_SCOPE("decode.fallback_activate");
    fallback_ = true;
    fallbackReason_ = reason;
    // Direct (ungated) counter: fallback is a correctness event the
    // serving layer must observe even with tracing off.
    obs::counter("serve.fallback").add(1);
    CTA_WARN("session quality guard tripped (", reason,
             "); falling back to exact attention at context length ",
             contextLength());
    // Seed the exact K/V caches from the reconstructed compression —
    // the best approximation of the discarded context this session
    // still owns. The in-hand token replaces its own approximate
    // last row, and non-finite elements (often the very damage that
    // tripped the guard) are zeroed so every later output is finite.
    Matrix approx = alg::reconstruct(kv_.snapshot());
    Real *data = approx.data();
    for (Index i = 0; i < approx.size(); ++i)
        if (!std::isfinite(data[i]))
            data[i] = 0;
    if (approx.rows() > 0 &&
        static_cast<Index>(token.size()) == approx.cols()) {
        Real *last = approx.row(approx.rows() - 1).data();
        for (Index j = 0; j < tokenDim_; ++j)
            last[j] = token[j];
    }
    kCache_ = params_->wk.forward(approx, counts);
    vCache_ = params_->wv.forward(approx, counts);
}

void
DecodeSession::appendExactProjections(std::span<const Real> token,
                                      OpCounts *counts)
{
    Matrix t(1, tokenDim_);
    std::copy(token.begin(), token.end(), t.row(0).begin());
    kCache_.appendRows(params_->wk.forward(t, counts));
    vCache_.appendRows(params_->wv.forward(t, counts));
}

Matrix
DecodeSession::exactStep(std::span<const Real> token, OpCounts *counts)
{
    CTA_TRACE_SCOPE("attention.exact_fallback");
    CTA_ASSERT(kCache_.rows() == contextLength() &&
               vCache_.rows() == contextLength(),
               "fallback cache rows ", kCache_.rows(),
               " out of sync with context length ", contextLength());
    Matrix q(1, tokenDim_);
    std::copy(token.begin(), token.end(), q.row(0).begin());
    const Matrix q_bar = params_->wq.forward(q, counts);
    const Index d = q_bar.cols();
    const Real inv_sqrt_d = 1.0f / std::sqrt(static_cast<Real>(d));
    Matrix s = matmulTransB(q_bar, kCache_, counts);
    s = scale(s, inv_sqrt_d, counts);
    // rowSoftmax subtracts the row max, so for finite caches the
    // denominator is >= 1 and the output finite by construction.
    const Matrix p = nn::rowSoftmax(s, counts);
    return matmul(p, vCache_, counts);
}

std::size_t
DecodeSession::stateBytes() const
{
    return kv_.stateBytes() + pairs_.stateBytes() +
           kBar1_.privateBytes() + kBar2_.privateBytes() +
           vBar1_.privateBytes() + vBar2_.privateBytes() +
           kCache_.memoryBytes() + vCache_.memoryBytes();
}

std::size_t
DecodeSession::modelBytes() const
{
    std::size_t bytes = 0;
    for (const nn::Linear *linear :
         {&params_->wq, &params_->wk, &params_->wv}) {
        bytes += linear->weight().memoryBytes();
        if (linear->bias())
            bytes += linear->bias()->memoryBytes();
    }
    bytes += lsh_->lsh0.a.memoryBytes() + lsh_->lsh0.b.memoryBytes() +
             lsh_->lsh1.a.memoryBytes() + lsh_->lsh1.b.memoryBytes() +
             lsh_->lsh2.a.memoryBytes() + lsh_->lsh2.b.memoryBytes();
    return bytes;
}

SessionSnapshot
DecodeSession::snapshot() const
{
    SessionSnapshot snap;
    snap.tokenDim = tokenDim_;
    if (prefix_) {
        snap.prefixId = prefix_->id();
        snap.prefixTokens = prefix_->tokens();
        snap.kv = kv_.saveDelta(&prefix_->donor().kv());
    } else {
        snap.kv = kv_.saveDelta(nullptr);
    }
    return snap;
}

void
DecodeSession::restore(const SessionSnapshot &snap)
{
    CTA_TRACE_SCOPE("decode.restore");
    CTA_OBS_COUNT("serve.session_restores", 1);
    CTA_REQUIRE(snap.tokenDim == tokenDim_, "snapshot token dim ",
                snap.tokenDim, " != session dim ", tokenDim_);
    // A snapshot does not carry the exact-attention caches (fallback
    // sessions are pinned resident by the SessionManager precisely so
    // they never round-trip through one); restoring means adopting
    // the snapshot's compressed state wholesale.
    frozen_.reset();
    fallback_ = false;
    fallbackReason_ = "";
    kCache_ = Matrix();
    vCache_ = Matrix();

    const Index d = params_->wk.outDim();
    if (snap.prefixId >= 0) {
        CTA_REQUIRE(prefix_ != nullptr,
                    "snapshot references shared prefix ",
                    snap.prefixId, " but the session is standalone");
        CTA_REQUIRE(prefix_->id() == snap.prefixId,
                    "snapshot references shared prefix ",
                    snap.prefixId, ", session is forked from prefix ",
                    prefix_->id());
        CTA_REQUIRE(snap.prefixTokens == prefix_->tokens(),
                    "snapshot fork point ", snap.prefixTokens,
                    " does not match the prefix donor's ",
                    prefix_->tokens(), " tokens");
        // Re-adopt the donor state CoW (O(pages) refcount bumps —
        // this also rolls back any divergence this instance had),
        // then apply the private delta on top.
        const DecodeSession &donor = prefix_->donor();
        kv_ = donor.kv_;
        kBar1_ = donor.kBar1_;
        kBar2_ = donor.kBar2_;
        vBar1_ = donor.vBar1_;
        vBar2_ = donor.vBar2_;
        pairs_ = donor.pairs_;
        kv_.restoreDelta(snap.kv);

        // The donor's pair multiset already covers the prefix tokens;
        // replaying only the suffix performs the exact add() sequence
        // the live forked session performed after the fork.
        replayPairs(snap.prefixTokens);

        // Cached projections: only centroids the delta touched
        // (diverged base rows + appended clusters) changed; rows of
        // untouched clusters are bit-identical and stay in pages
        // shared with the donor.
        const auto refreshLevel =
            [this](const alg::IncrementalCompression &level,
                   const alg::CompressionLevelDelta &delta,
                   core::PagedRows &k_rows, core::PagedRows &v_rows) {
                std::vector<Index> &ids = reprojectIds();
                ids.assign(delta.divergedRows.begin(),
                           delta.divergedRows.end());
                for (Index c = delta.baseClusters;
                     c < level.numClusters(); ++c)
                    ids.push_back(c);
                reproject(level, ids, k_rows, v_rows, nullptr);
            };
        refreshLevel(kv_.level1(), snap.kv.level1, kBar1_, vBar1_);
        refreshLevel(kv_.level2(), snap.kv.level2, kBar2_, vBar2_);
    } else {
        // Standalone snapshot: rebuild everything from the full
        // (base-less) delta.
        prefix_.reset();
        kv_ = alg::IncrementalTwoLevelCompression(
            std::shared_ptr<const alg::LshParams>(lsh_, &lsh_->lsh1),
            std::shared_ptr<const alg::LshParams>(lsh_, &lsh_->lsh2),
            arena_);
        kv_.restoreDelta(snap.kv);

        // The pair multiset is fully determined by the two cluster
        // tables: replaying them in token order performs the exact
        // add() sequence the live session performed.
        pairs_ = alg::ClusterPairCounts(arena_);
        replayPairs(0);

        // Cached projections: a live session's row r holds the
        // projection of the *final* centroid r (every earlier write
        // was overwritten), so re-projecting each centroid once
        // reproduces the cache bit-for-bit.
        const auto rebuildLevel =
            [this, d](const alg::IncrementalCompression &level,
                      core::PagedRows &k_rows, core::PagedRows &v_rows) {
                k_rows = core::PagedRows(arena_, d);
                v_rows = core::PagedRows(arena_, d);
                std::vector<Index> &ids = reprojectIds();
                for (Index c = 0; c < level.numClusters(); ++c)
                    ids.push_back(c);
                reproject(level, ids, k_rows, v_rows, nullptr);
            };
        rebuildLevel(kv_.level1(), kBar1_, vBar1_);
        rebuildLevel(kv_.level2(), kBar2_, vBar2_);
    }
    lastStepOps_ = OpCounts{};
    totalOps_ = OpCounts{};
}

} // namespace cta::serve
