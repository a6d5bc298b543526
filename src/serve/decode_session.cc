#include "serve/decode_session.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

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

/**
 * Sequential writer of a snapshot blob's raw little-endian fields.
 * With no buffer it only counts, so one encoder (putSnapshot) both
 * sizes a blob and fills it.
 */
class BlobWriter
{
  public:
    explicit BlobWriter(std::uint8_t *out = nullptr) : out_(out) {}

    void
    bytes(const void *data, std::size_t size)
    {
        // An empty array may come with a null data pointer, which
        // memcpy must not be handed even for a zero count.
        if (out_ && size > 0)
            std::memcpy(out_ + size_, data, size);
        size_ += size;
    }

    template <typename T>
    void
    scalar(T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&value, sizeof(T));
    }

    template <typename T>
    void
    array(const T *data, std::size_t count)
    {
        scalar<std::uint64_t>(count);
        bytes(data, count * sizeof(T));
    }

    void
    matrix(const Matrix &m)
    {
        scalar<std::int64_t>(m.rows());
        scalar<std::int64_t>(m.cols());
        array(m.data(), static_cast<std::size_t>(m.size()));
    }

    /** Bytes written (or counted) so far. */
    std::size_t size() const { return size_; }

  private:
    std::uint8_t *out_;
    std::size_t size_ = 0;
};

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

    /** Reads an array's element count and returns its payload bytes
     *  in place (empty once the reader has failed). */
    template <typename T>
    std::span<const std::uint8_t>
    arrayBytes()
    {
        const auto count = scalar<std::uint64_t>();
        if (!ok_ || count > (bytes_.size() - at_) / sizeof(T)) {
            fail("session snapshot blob array overruns the blob");
            return {};
        }
        const auto payload = bytes_.subspan(
            at_, static_cast<std::size_t>(count) * sizeof(T));
        at_ += payload.size();
        return payload;
    }

    template <typename T>
    std::vector<T>
    array()
    {
        const std::span<const std::uint8_t> payload = arrayBytes<T>();
        std::vector<T> out(payload.size() / sizeof(T));
        if (!payload.empty())
            std::memcpy(out.data(), payload.data(), payload.size());
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
    const std::span<const std::uint8_t> payload =
        reader.arrayBytes<Real>();
    const std::size_t count = payload.size() / sizeof(Real);
    // Shape against the (blob-bounded) value count by division, so a
    // forged rows x cols cannot overflow into a match.
    const bool shaped =
        rows >= 0 && cols >= 0 &&
        (cols == 0 ? count == 0
                   : count % static_cast<std::size_t>(cols) == 0 &&
                         count / static_cast<std::size_t>(cols) ==
                             static_cast<std::size_t>(rows));
    if (!reader.ok() || !shaped) {
        reader.fail("snapshot blob matrix shape does not match its "
                    "value count");
        return {};
    }
    Matrix out(rows, cols);
    if (count > 0)
        std::memcpy(out.data(), payload.data(), payload.size());
    return out;
}

void
putDelta(BlobWriter &out, const alg::CompressionLevelDelta &delta)
{
    out.scalar<std::int64_t>(delta.baseTokens);
    out.scalar<std::int64_t>(delta.baseClusters);
    out.array(delta.tableSuffix.data(), delta.tableSuffix.size());
    out.array(delta.codeSuffix.data(), delta.codeSuffix.size());
    out.array(delta.members.data(), delta.members.size());
    out.array(delta.divergedRows.data(), delta.divergedRows.size());
    out.matrix(delta.divergedSums);
    out.matrix(delta.appendedSums);
}

/** Everything of the blob but its CRC-32 trailer. */
void
putSnapshot(BlobWriter &out, const SessionSnapshot &snap)
{
    out.bytes(kBlobMagic, sizeof(kBlobMagic));
    out.scalar<std::uint32_t>(kBlobVersion);
    out.scalar<std::int64_t>(snap.tokenDim);
    out.scalar<std::int64_t>(snap.prefixId);
    out.scalar<std::int64_t>(snap.prefixTokens);
    putDelta(out, snap.kv.level1);
    putDelta(out, snap.kv.level2);
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
    // Count first, then write into a buffer of exactly that size: one
    // allocation, and capacity() — what the manager charges an
    // evicted session — equals the encoded size.
    BlobWriter counter;
    putSnapshot(counter, snap);
    std::vector<std::uint8_t> out(counter.size() +
                                  sizeof(std::uint32_t));
    BlobWriter writer(out.data());
    putSnapshot(writer, snap);
    // CRC-32 trailer over everything above — detects every
    // single-byte flip and every truncation at restore time.
    writer.scalar<std::uint32_t>(core::crc32(out.data(), writer.size()));
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
    // Both levels hold one table entry per token, so they must start
    // and end at the same token counts.
    if (out.kv.level1.baseTokens != out.kv.level2.baseTokens ||
        out.kv.level1.tableSuffix.size() !=
            out.kv.level2.tableSuffix.size())
        return fail("session snapshot levels hold different token "
                    "counts");
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
    postHeapBytes();
}

DecodeSession::~DecodeSession()
{
    arena_->postHeapBytes(postedHeap_.bytes, 0);
}

void
DecodeSession::postHeapBytes(std::size_t extra)
{
    const std::size_t bytes = heapBytes() + extra;
    arena_->postHeapBytes(postedHeap_.bytes, bytes);
    postedHeap_.bytes = bytes;
}

std::unique_ptr<DecodeSession>
DecodeSession::forkFrom(std::shared_ptr<const SharedPrefix> prefix)
{
    CTA_REQUIRE(prefix != nullptr, "null shared prefix");
    CTA_OBS_COUNT("serve.session_forks", 1);
    // The CoW copy bumps per-page refcounts — O(pages), no state
    // copied. The donor's code indexes were shared and its row
    // overlays folded at freeze time, so the child's private index and
    // overlays start empty, and rebase() makes the donor its base.
    auto child = std::unique_ptr<DecodeSession>(
        new DecodeSession(prefix->donor()));
    child->kv_.rebase();
    child->prefix_ = std::move(prefix);
    child->frozen_.reset();
    child->lastStepOps_ = OpCounts{};
    child->totalOps_ = OpCounts{};
    child->postHeapBytes();
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
    // Freeze the cluster indexes into lookup-only shared bases first,
    // so this session, the donor, and every child reference one index
    // instead of copying it per fork.
    kv_.shareTrees();
    postHeapBytes();
    auto donor = std::unique_ptr<DecodeSession>(new DecodeSession(*this));
    // The donor writes its row overlays back into pages, so each child
    // starts with every row on a page it shares and an empty overlay.
    // Its levels keep the folded row ids, which the donor (when it is
    // a fork) still lists in a delta against its own prefix. This
    // session keeps its overlay and its pages: its base rows must stay
    // on pages shared with its own prefix for its delta to be exact.
    donor->kv_.foldOverlays();
    for (core::PagedRows *rows : {&donor->kBar1_, &donor->kBar2_,
                                  &donor->vBar1_, &donor->vBar2_})
        rows->foldOverlay();
    // The donor prices the shared code indexes, once per prefix, and
    // never mutates again, so its post stays exact.
    donor->postHeapBytes(donor->sharedTreeBytes());
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

/**
 * The rows a session ingests for @p tokens. Same policy as
 * FxpFormat::encode: a non-finite element carries no usable signal,
 * so it is pinned to zero rather than poisoning every centroid it
 * would ever touch. Clean rows are returned as they are; the first
 * dirty row copies the batch into @p cleaned.
 */
const Matrix &
sanitized(const Matrix &tokens, Matrix &cleaned)
{
    const Matrix *rows = &tokens;
    for (Index i = 0; i < tokens.rows(); ++i) {
        if (spanFinite(tokens.row(i)))
            continue;
        if (rows == &tokens) {
            cleaned = tokens;
            rows = &cleaned;
        }
        for (Real &v : cleaned.row(i))
            if (!std::isfinite(v))
                v = 0;
        CTA_OBS_COUNT("serve.sanitized_tokens", 1);
    }
    return *rows;
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
DecodeSession::ingest(const Matrix &rows, OpCounts *counts)
{
    const auto n = static_cast<std::size_t>(rows.rows());
    thread_local std::vector<Index> c1;
    thread_local std::vector<Index> c2;
    c1.resize(n);
    c2.resize(n);
    kv_.appendBatch(rows, c1, c2, counts);
    pairs_.addBatch(c1, c2);
    // A cached row only has to hold the projection of its cluster's
    // *final* centroid — a write per token would be overwritten by the
    // next — so each touched or new centroid is re-projected once,
    // after the whole batch is in.
    const auto reprojectTouched =
        [&](const alg::IncrementalCompression &level,
            const std::vector<Index> &clusters, core::PagedRows &k_rows,
            core::PagedRows &v_rows) {
            std::vector<Index> &ids = reprojectIds();
            ids.assign(clusters.begin(), clusters.end());
            std::sort(ids.begin(), ids.end());
            ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
            reproject(level, ids, k_rows, v_rows, counts);
        };
    reprojectTouched(kv_.level1(), c1, kBar1_, vBar1_);
    reprojectTouched(kv_.level2(), c2, kBar2_, vBar2_);
    if (fallback_) {
        kCache_.appendRows(params_->wk.forward(rows, counts));
        vCache_.appendRows(params_->wv.forward(rows, counts));
    }
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
    Matrix cleaned;
    ingest(sanitized(tokens, cleaned), &ops);
    faultTainted_ =
        faultTainted_ || fault::threadInjections() != faultsBefore;
    totalOps_ += ops;
    postHeapBytes();
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
    // The token as a one-row batch: ingested through prefill's path,
    // then projected as the lone query.
    Matrix row(1, tokenDim_);
    std::copy(token.begin(), token.end(), row.row(0).begin());
    Matrix cleaned;
    const Matrix &q = sanitized(row, cleaned);
    const std::span<const Real> tok = q.row(0);
    const std::uint64_t faultsBefore = fault::threadInjections();
    OpCounts ops;
    {
        CTA_TRACE_SCOPE("decode.ingest");
        ingest(q, &ops);
    }
    const auto finish = [&](Matrix out) {
        faultTainted_ =
            faultTainted_ || fault::threadInjections() != faultsBefore;
        lastStepOps_ = ops;
        totalOps_ += ops;
        postHeapBytes();
        return out;
    };
    if (fallback_)
        return finish(exactStep(tok, &ops));

    // Stage 2 for the query: the lone query is its own cluster with
    // the token as centroid, so only the projection remains.
    CTA_TRACE_SCOPE("attention.decode");
    const Matrix q_bar = params_->wq.forward(q, &ops);
    const Index d = q_bar.cols();

    // Collapsed-cluster probe: a long context compressed to one
    // cluster per level means the hash family has stopped separating
    // tokens (an LSH fault or pathological stream) and every score
    // degenerates to a single pair; exact attention is both safer
    // and, at k1 + k2 == 2, not meaningfully more expensive.
    if (kv_.level1().numClusters() == 1 &&
        kv_.level2().numClusters() == 1 &&
        contextLength() >= config_.guardMinContext) {
        activateFallback("collapsed clusters", tok, &ops);
        return finish(exactStep(tok, &ops));
    }

    // Stages 3-5: the fused kernel, one pass over the paged
    // projection rows — no K-bar/V-bar materialization, no
    // intermediate matrices. It leaves the un-normalized output row
    // in the scratch and returns the probability mass.
    const Real inv_sqrt_d = 1.0f / std::sqrt(static_cast<Real>(d));
    const Real row_sum = alg::fusedDecodeAttend(
        q_bar, kBar1_, kBar2_, vBar1_, vBar2_, pairs_, inv_sqrt_d,
        config_.cta.subtractRowMax, fusedScratch_, &ops);
    const Real denom = row_sum * 0.5f;
    if (!std::isfinite(denom) || denom <= 0) {
        // The probability mass vanished or went non-finite.
        activateFallback("degenerate attention denominator", tok, &ops);
        return finish(exactStep(tok, &ops));
    }
    const Real inv = 1.0f / denom;
    Matrix out(1, d);
    Real *dst = out.row(0).data();
    for (Index j = 0; j < d; ++j)
        dst[j] = fusedScratch_.out[static_cast<std::size_t>(j)] * inv;
    ops.divs += static_cast<std::uint64_t>(d);

    if (!alg::allFinite(out)) {
        activateFallback("non-finite attention output", tok, &ops);
        out = exactStep(tok, &ops);
    }
    return finish(std::move(out));
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
DecodeSession::heapBytes() const
{
    return kv_.heapBytes() + pairs_.heapBytes() + kBar1_.heapBytes() +
           kBar2_.heapBytes() + vBar1_.heapBytes() + vBar2_.heapBytes() +
           kCache_.memoryBytes() + vCache_.memoryBytes();
}

std::size_t
DecodeSession::overlayRowCount() const
{
    std::size_t rows = kv_.level1().sums().overlayRows().size() +
                       kv_.level2().sums().overlayRows().size();
    for (const core::PagedRows *cached : {&kBar1_, &kBar2_, &vBar1_, &vBar2_})
        rows += cached->overlayRows().size();
    return rows;
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

bool
DecodeSession::canRestore(const SessionSnapshot &snap,
                          std::string *error) const
{
    const auto fail = [error](const auto &...parts) {
        if (error)
            *error = core::detail::concat(parts...);
        return false;
    };
    if (snap.tokenDim != tokenDim_)
        return fail("snapshot token dim ", snap.tokenDim,
                    " != session dim ", tokenDim_);
    if (snap.prefixId < 0)
        return kv_.canRestore(snap.kv, /*from_empty=*/true, error);
    if (!prefix_)
        return fail("snapshot references shared prefix ", snap.prefixId,
                    " but the session is standalone");
    if (prefix_->id() != snap.prefixId)
        return fail("snapshot references shared prefix ", snap.prefixId,
                    ", session is forked from prefix ", prefix_->id());
    if (snap.prefixTokens != prefix_->tokens())
        return fail("snapshot fork point ", snap.prefixTokens,
                    " does not match the prefix donor's ",
                    prefix_->tokens(), " tokens");
    return prefix_->donor().kv_.canRestore(snap.kv, false, error);
}

void
DecodeSession::restore(const SessionSnapshot &snap)
{
    std::string why;
    CTA_REQUIRE(tryRestore(snap, &why),
                "cannot restore session snapshot: ", why);
}

bool
DecodeSession::tryRestore(const SessionSnapshot &snap,
                          std::string *error)
{
    CTA_TRACE_SCOPE("decode.restore");
    if (!canRestore(snap, error))
        return false;
    CTA_OBS_COUNT("serve.session_restores", 1);
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
        // Re-adopt the donor state CoW (O(pages) refcount bumps —
        // this also rolls back any divergence this instance had),
        // then apply the private delta on top — canRestore() above
        // checked it against this same donor state.
        const DecodeSession &donor = prefix_->donor();
        kv_ = donor.kv_;
        kBar1_ = donor.kBar1_;
        kBar2_ = donor.kBar2_;
        vBar1_ = donor.vBar1_;
        vBar2_ = donor.vBar2_;
        pairs_ = donor.pairs_;
        kv_.rebase();
        kv_.applyCheckedDelta(snap.kv);

        // The donor's pair multiset already covers the prefix tokens;
        // replaying only the suffix records the pairs, in token
        // order, the live forked session recorded after the fork.
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
        // (base-less) delta, which canRestore() checked from empty.
        prefix_.reset();
        kv_ = alg::IncrementalTwoLevelCompression(
            std::shared_ptr<const alg::LshParams>(lsh_, &lsh_->lsh1),
            std::shared_ptr<const alg::LshParams>(lsh_, &lsh_->lsh2),
            arena_);
        kv_.applyCheckedDelta(snap.kv);

        // The pair multiset is fully determined by the two cluster
        // tables: replaying them in token order records the pairs the
        // live session recorded.
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
    postHeapBytes();
    return true;
}

} // namespace cta::serve
