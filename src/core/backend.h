/**
 * @file
 * Pluggable compute-backend layer behind the core::Matrix kernels.
 *
 * Every dense kernel in the library (GEMM, transposed-B GEMM, the
 * element-wise maps and row reductions) dispatches through the
 * process-active Backend, so an algorithm path never names an
 * implementation: swapping the reference loops for pooled vector
 * kernels — or, later, batched / sharded ones — is a matter of
 * installing another backend.
 *
 * Two implementations ship today:
 *  - NaiveBackend: the original single-threaded reference kernels,
 *    kept verbatim as the op-count and bit-exactness reference.
 *  - SimdBackend: the production backend — a vectorized GEMM that
 *    reads B in place, with runtime ISA dispatch (core/simd.h;
 *    CTA_SIMD knob), plus a lane-per-row transposed-B GEMM, row maps
 *    and row reductions, all fanned out over a persistent thread
 *    pool (core/parallel.h).
 *
 * Determinism contract: every backend produces results that are a
 * pure function of the inputs — independent of thread count. Work is
 * partitioned over OUTPUT rows only and each output element keeps a
 * fixed accumulation order (ascending k); reductions combine
 * per-chunk partials in ascending chunk order with
 * thread-count-independent chunking (core/parallel.h chunkSpans).
 * simd is bit-identical to naive for gemmTransposedB, mapRows and
 * reduceRows, while its gemm uses one k-ascending FMA chain per
 * output element regardless of shape — bit-identical across every
 * ISA level, thread count and internal kernel routing, differing
 * from the reference chain only by FMA's removed intermediate
 * roundings (so the incremental-equals-batch serving contracts hold
 * within each backend). OpCounts are charged analytically by the
 * calling kernel wrappers and therefore never depend on the backend
 * or thread count.
 *
 * Selection: the default backend is chosen once from the CTA_BACKEND
 * environment variable ("simd", the default, or "naive"), with the
 * thread count from CTA_THREADS; tests override it with
 * setActiveBackend().
 */

#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/types.h"

namespace cta::core {

class Matrix;
class ThreadPool;

/** Abstract compute backend the Matrix kernels dispatch through. */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** Human-readable backend name (e.g. "naive", "simd[avx2]:8"). */
    virtual std::string name() const = 0;

    /** Worker threads this backend may use (1 for serial backends). */
    virtual int threadCount() const = 0;

    /**
     * True when gemm() accumulates each output element with a fused
     * multiply-add chain (one rounding per step) instead of the
     * naive mul-then-add chain. Kernels that must replicate a gemm's
     * numerics exactly (the fused decode kernel) dispatch on this.
     */
    virtual bool gemmFmaChains() const { return false; }

    /**
     * C = A * B. @p c is pre-sized to rows(A) x cols(B) and
     * zero-filled by the caller.
     */
    virtual void gemm(const Matrix &a, const Matrix &b,
                      Matrix &c) const = 0;

    /** C = A * B^T. @p c is pre-sized to rows(A) x rows(B). */
    virtual void gemmTransposedB(const Matrix &a, const Matrix &b,
                                 Matrix &c) const = 0;

    /**
     * Row-parallel map: invokes body(row_begin, row_end) over
     * disjoint chunks covering [0, rows) exactly once. The body must
     * only write state disjoint per row range.
     */
    virtual void
    mapRows(Index rows,
            const std::function<void(Index, Index)> &body) const = 0;

    /**
     * Row-parallel deterministic reduction: sums
     * body(row_begin, row_end) over the same chunks as mapRows(), in
     * ascending chunk order regardless of thread count.
     */
    virtual Wide
    reduceRows(Index rows,
               const std::function<Wide(Index, Index)> &body) const = 0;
};

/**
 * The original single-threaded kernels, unchanged — the reference
 * every other backend is validated against (tests/backend_test.cc).
 */
class NaiveBackend final : public Backend
{
  public:
    std::string name() const override { return "naive"; }
    int threadCount() const override { return 1; }
    void gemm(const Matrix &a, const Matrix &b,
              Matrix &c) const override;
    void gemmTransposedB(const Matrix &a, const Matrix &b,
                         Matrix &c) const override;
    void mapRows(Index rows, const std::function<void(Index, Index)>
                                 &body) const override;
    Wide reduceRows(Index rows, const std::function<Wide(Index, Index)>
                                    &body) const override;
};

/**
 * The production backend: vectorized GEMM from core/simd.h
 * (AVX-512 / AVX2 / NEON with a scalar fallback, dispatched at
 * runtime and forceable via CTA_SIMD) over a persistent thread pool.
 * Every gemm output element is one k-ascending FMA chain, whatever
 * the shape, row block, ISA level or thread count (core::simdGemmRows,
 * core/simd.h).
 * gemmTransposedB (one B row per SIMD lane, core::simdDotRows),
 * mapRows and reduceRows are bit-identical to NaiveBackend at any
 * thread count and ISA level (row-range partitioning plus one
 * ascending-k accumulation per output element).
 */
class SimdBackend final : public Backend
{
  public:
    /**
     * @param threads worker count; 0 uses the process-global pool
     *        sized by CTA_THREADS / hardware concurrency.
     */
    explicit SimdBackend(int threads = 0);
    ~SimdBackend() override;

    std::string name() const override;
    int threadCount() const override;
    bool gemmFmaChains() const override { return true; }
    void gemm(const Matrix &a, const Matrix &b,
              Matrix &c) const override;
    void gemmTransposedB(const Matrix &a, const Matrix &b,
                         Matrix &c) const override;
    void mapRows(Index rows, const std::function<void(Index, Index)>
                                 &body) const override;
    Wide reduceRows(Index rows, const std::function<Wide(Index, Index)>
                                    &body) const override;

  private:
    ThreadPool &pool() const;

    std::unique_ptr<ThreadPool> owned_; ///< set when threads > 0
};

/**
 * The backend all Matrix kernels currently dispatch through. The
 * default is resolved once from CTA_BACKEND / CTA_THREADS.
 */
Backend &activeBackend();

/**
 * Installs @p backend as the process-active backend (caller keeps
 * ownership; pass nullptr to restore the environment default).
 * Returns the previously active backend. Not thread-safe against
 * concurrent kernel dispatch — switch backends only between
 * computations (tests, bench setup).
 */
Backend *setActiveBackend(Backend *backend);

/**
 * Factory: "naive" or "simd" (optionally suffixed ":<threads>").
 * Fatal on unknown names.
 */
std::unique_ptr<Backend> makeBackend(const std::string &spec);

} // namespace cta::core
