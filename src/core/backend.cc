#include "core/backend.h"

#include <algorithm>
#include <cstring>

#include "core/env.h"
#include "core/logging.h"
#include "core/matrix.h"
#include "core/parallel.h"
#include "core/simd.h"

namespace cta::core {

namespace {

/**
 * Shared chunk grain for the row map/reduce entry points. Both
 * backends use the same grain so their reduction chunking — and
 * therefore every floating-point reduction result — is identical.
 */
constexpr Index kRowGrain = 8;

/**
 * GEMMs below this MAC count run inline even on the pooled backend.
 * Sized from the micro-kernel sweep: at 128^3 (2.1M MACs) the serial
 * kernel beats any fan-out — dispatch overhead dominates — while
 * 256^3 (16.8M) gains from the pool. Outputs are unchanged
 * either way (the determinism contract makes the partition
 * invisible), so the cutover is purely a scheduling decision.
 */
constexpr Index kSerialGemmMacs = 4 * 1024 * 1024;

/**
 * Reference ikj GEMM over output rows [row_begin, row_end): for each
 * output element, k ascends 0..K-1 — the accumulation order every
 * backend must reproduce bit-exactly.
 */
void
gemmRowsNaive(const Matrix &a, const Matrix &b, Matrix &c,
              Index row_begin, Index row_end)
{
    for (Index i = row_begin; i < row_end; ++i) {
        Real *crow = c.row(i).data();
        for (Index k = 0; k < a.cols(); ++k) {
            const Real aik = a(i, k);
            const Real *brow = b.row(k).data();
            for (Index j = 0; j < b.cols(); ++j)
                crow[j] += aik * brow[j];
        }
    }
}

/** Reference dot-product A * B^T over output rows [row_begin, row_end). */
void
gemmTransBRowsNaive(const Matrix &a, const Matrix &b, Matrix &c,
                    Index row_begin, Index row_end)
{
    for (Index i = row_begin; i < row_end; ++i) {
        const Real *arow = a.row(i).data();
        for (Index j = 0; j < b.rows(); ++j) {
            const Real *brow = b.row(j).data();
            Wide acc = 0;
            for (Index k = 0; k < a.cols(); ++k)
                acc += static_cast<Wide>(arow[k]) * brow[k];
            c(i, j) = static_cast<Real>(acc);
        }
    }
}

/**
 * Deterministic chunked reduction shared by every backend: partials
 * over chunkSpans(0, rows, kRowGrain) summed in ascending chunk
 * order. @p partial_fn fills partials[chunk]; it may run serially or
 * on a pool — the combination order is fixed either way.
 */
Wide
combineChunks(const std::vector<Wide> &partials)
{
    Wide total = 0;
    for (const Wide partial : partials)
        total += partial;
    return total;
}

} // namespace

void
NaiveBackend::gemm(const Matrix &a, const Matrix &b, Matrix &c) const
{
    gemmRowsNaive(a, b, c, 0, a.rows());
}

void
NaiveBackend::gemmTransposedB(const Matrix &a, const Matrix &b,
                              Matrix &c) const
{
    gemmTransBRowsNaive(a, b, c, 0, a.rows());
}

void
NaiveBackend::mapRows(Index rows,
                      const std::function<void(Index, Index)> &body) const
{
    if (rows > 0)
        body(0, rows);
}

Wide
NaiveBackend::reduceRows(Index rows,
                         const std::function<Wide(Index, Index)> &body)
    const
{
    const auto spans = chunkSpans(0, rows, kRowGrain);
    std::vector<Wide> partials(spans.size());
    for (std::size_t chunk = 0; chunk < spans.size(); ++chunk)
        partials[chunk] =
            body(spans[chunk].first, spans[chunk].second);
    return combineChunks(partials);
}

SimdBackend::SimdBackend(int threads)
{
    CTA_REQUIRE(threads >= 0, "negative thread count ", threads);
    if (threads > 0)
        owned_ = std::make_unique<ThreadPool>(threads);
}

SimdBackend::~SimdBackend() = default;

ThreadPool &
SimdBackend::pool() const
{
    return owned_ ? *owned_ : ThreadPool::global();
}

std::string
SimdBackend::name() const
{
    return std::string("simd[") +
           simdLevelName(activeSimdLevel()) + "]:" +
           std::to_string(threadCount());
}

int
SimdBackend::threadCount() const
{
    return pool().threadCount();
}

void
SimdBackend::gemm(const Matrix &a, const Matrix &b, Matrix &c) const
{
    if (a.rows() * a.cols() * b.cols() <= kSerialGemmMacs) {
        simdGemmRows(a, b, c, 0, a.rows());
        return;
    }
    // Depth slices OUTSIDE the thread fan-out: each kKc-deep slice of
    // B (width x 1 KB at kKc = 256) stays L2-resident across every row
    // chunk, so B streams from memory once per GEMM instead of once
    // per chunk — past ~256^3 the working set outgrows L2 and that
    // re-streaming, not the FMA ports, is what bounds the kernel.
    // Slices continue each element's k-ascending FMA chain through an
    // exact fp32 store/load, so the slicing — like the row partition —
    // is invisible in the results.
    constexpr Index kKc = 256;
    const Index depth = a.cols();
    for (Index k0 = 0; k0 < depth; k0 += kKc) {
        const Index k1 = std::min<Index>(depth, k0 + kKc);
        // Grain 16 = 6 + 6 + 4: every full chunk decomposes into the
        // tall micro-kernels with no 1-row tail.
        parallelFor(pool(), 0, a.rows(),
                    [&](Index row_begin, Index row_end) {
                        simdGemmRows(a, b, c, row_begin, row_end, k0,
                                     k1);
                    },
                    /*grain=*/16);
    }
}

void
SimdBackend::gemmTransposedB(const Matrix &a, const Matrix &b,
                             Matrix &c) const
{
    // Every element is the reference Wide chain, run one B row per
    // SIMD lane (core/simd.h), so neither routing nor the row
    // partition can change a bit.
    const Index n = b.rows();
    std::vector<const Real *> rows(static_cast<std::size_t>(n));
    for (Index j = 0; j < n; ++j)
        rows[static_cast<std::size_t>(j)] = b.row(j).data();
    const auto dotRange = [&](Index row_begin, Index row_end) {
        for (Index i = row_begin; i < row_end; ++i)
            simdDotRows(a.row(i).data(), rows.data(), n, a.cols(),
                        c.row(i).data());
    };
    if (a.rows() * a.cols() * n <= kSerialGemmMacs) {
        dotRange(0, a.rows());
        return;
    }
    parallelFor(pool(), 0, a.rows(), dotRange, /*grain=*/4);
}

void
SimdBackend::mapRows(Index rows,
                     const std::function<void(Index, Index)> &body) const
{
    parallelFor(pool(), 0, rows, body, kRowGrain);
}

Wide
SimdBackend::reduceRows(Index rows,
                        const std::function<Wide(Index, Index)> &body)
    const
{
    const auto spans = chunkSpans(0, rows, kRowGrain);
    if (spans.size() <= 1) {
        std::vector<Wide> partials(spans.size());
        for (std::size_t chunk = 0; chunk < spans.size(); ++chunk)
            partials[chunk] =
                body(spans[chunk].first, spans[chunk].second);
        return combineChunks(partials);
    }
    std::vector<Wide> partials(spans.size());
    pool().run(static_cast<Index>(spans.size()), [&](Index chunk) {
        const auto &span = spans[static_cast<std::size_t>(chunk)];
        partials[static_cast<std::size_t>(chunk)] =
            body(span.first, span.second);
    });
    return combineChunks(partials);
}

namespace {

/** Test override slot; nullptr means "use the environment default". */
Backend *&
activeBackendSlot()
{
    static Backend *slot = nullptr;
    return slot;
}

/** The process default, resolved once from CTA_BACKEND. */
Backend &
defaultBackend()
{
    static std::unique_ptr<Backend> instance = [] {
        const char *env = envString("CTA_BACKEND");
        return makeBackend(env ? env : "simd");
    }();
    return *instance;
}

} // namespace

Backend &
activeBackend()
{
    Backend *override_backend = activeBackendSlot();
    return override_backend ? *override_backend : defaultBackend();
}

Backend *
setActiveBackend(Backend *backend)
{
    Backend *previous = activeBackendSlot();
    activeBackendSlot() = backend;
    return previous;
}

std::unique_ptr<Backend>
makeBackend(const std::string &spec)
{
    constexpr const char *kPooledPrefix = "simd:";
    if (spec == "naive")
        return std::make_unique<NaiveBackend>();
    if (spec == "simd")
        return std::make_unique<SimdBackend>();
    if (spec.rfind(kPooledPrefix, 0) == 0) {
        const long threads =
            parseEnvInt(spec.c_str() + std::strlen(kPooledPrefix),
                        "CTA_BACKEND thread count");
        CTA_REQUIRE(threads >= 1 && threads <= 64,
                    "backend thread count in '", spec,
                    "' outside [1, 64]");
        return std::make_unique<SimdBackend>(static_cast<int>(threads));
    }
    CTA_PANIC("unknown backend '", spec,
              "' (expected naive | simd[:<threads>])");
}

} // namespace cta::core
