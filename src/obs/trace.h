/**
 * @file
 * Scoped phase tracing for the whole pipeline.
 *
 * CTA_TRACE_SCOPE("lsh.hash") opens an RAII span; spans land in
 * per-thread event buffers and merge on demand into a Chrome-tracing
 * JSON document ("chrome://tracing" / Perfetto), the same format
 * cta_accel/trace.h already emits for mapping schedules.
 *
 * Cost model (the overhead budget DESIGN.md §4.3 commits to):
 *
 *  - compile-time off (CTA_OBS=OFF → CTA_OBS_DISABLED): the macros
 *    expand to nothing, zero cost;
 *  - runtime off (the default — no CTA_TRACE=1 in the environment):
 *    one relaxed atomic load and a predictable branch per scope;
 *  - runtime on: one steady_clock read at scope entry and a
 *    mutex-protected push into this thread's buffer at exit
 *    (~tens of ns), bounded by kMaxEventsPerThread after which
 *    events are dropped and counted, never reallocated unbounded.
 *
 * Span names must be string literals (the buffer stores the pointer,
 * not a copy) and use dot-separated hierarchical phase names:
 * "<subsystem>.<phase>" — e.g. "lsh.hash", "cluster.append",
 * "attention.fused_decode", "attention.scores", "decode.step",
 * "serve.flush", "accel.schedule".
 *
 * Thread-safety: recording only touches the calling thread's buffer
 * under its own mutex; merging/clearing locks the registry first,
 * then each buffer, so readers can run while workers keep tracing.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace cta::obs {

/** One completed span, recorded by TraceScope's destructor. */
struct TraceEvent
{
    const char *name = nullptr; ///< static string literal
    std::uint64_t startNs = 0;  ///< since the process trace epoch
    std::uint64_t durNs = 0;
    std::int64_t id = -1;       ///< optional correlation id (< 0: none)
    int tid = 0;                ///< dense per-thread id (0, 1, ...)
};

/** Hard cap per thread buffer; further events are dropped+counted. */
inline constexpr std::size_t kMaxEventsPerThread = 1u << 20;

namespace detail {

extern std::atomic<bool> g_traceEnabled;

/** Nanoseconds since the process trace epoch (steady clock). */
std::uint64_t nowNs();

/** Appends one event to the calling thread's buffer. */
void record(const char *name, std::uint64_t start_ns,
            std::uint64_t dur_ns, std::int64_t id);

} // namespace detail

/**
 * Whether spans are being recorded. Initialized once from the
 * CTA_TRACE environment variable (strictly parsed integer; any
 * non-zero value enables) before main() runs; flip at runtime with
 * setTraceEnabled().
 */
inline bool
traceEnabled()
{
    return detail::g_traceEnabled.load(std::memory_order_relaxed);
}

/** Enables/disables recording at runtime (tests, benches). */
void setTraceEnabled(bool on);

/** Output path from CTA_TRACE_FILE, or "" when unset. */
const std::string &traceFilePath();

/** Events currently buffered across all threads. */
std::size_t traceEventCount();

/** Events dropped because a thread buffer hit kMaxEventsPerThread. */
std::uint64_t droppedTraceEvents();

/** Discards all buffered events (and the dropped counter). */
void clearTrace();

/**
 * Merges every thread's buffer — sorted by start time for stable
 * output — into a Chrome-tracing JSON document:
 * {"traceEvents": [{"name", "ph": "X", "ts", "dur", "pid", "tid",
 * "args": {"id"}}...], "displayTimeUnit": "ms"}. Timestamps are
 * microseconds since the trace epoch.
 */
void writeChromeTrace(std::ostream &os);

/** writeChromeTrace() into @p path; false if the file won't open. */
bool writeChromeTraceFile(const std::string &path);

/**
 * Convenience for bench sidecars: when tracing is enabled, writes
 * the merged trace to CTA_TRACE_FILE (if set) or
 * "<base>.trace.json", plus the flat metrics JSON to
 * "<base>.metrics.json" (see obs/metrics.h). No-op (returns false)
 * when tracing is disabled.
 */
bool writeSidecars(const std::string &base);

/** RAII span: records [construction, destruction) when enabled. */
class TraceScope
{
  public:
    explicit TraceScope(const char *name, std::int64_t id = -1)
    {
        if (traceEnabled()) {
            name_ = name;
            id_ = id;
            startNs_ = detail::nowNs();
        }
    }

    ~TraceScope()
    {
        if (name_ != nullptr)
            detail::record(name_, startNs_,
                           detail::nowNs() - startNs_, id_);
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    const char *name_ = nullptr; ///< nullptr: disabled at entry
    std::int64_t id_ = -1;
    std::uint64_t startNs_ = 0;
};

} // namespace cta::obs

#define CTA_OBS_CONCAT_(a, b) a##b
#define CTA_OBS_CONCAT(a, b) CTA_OBS_CONCAT_(a, b)

#ifndef CTA_OBS_DISABLED
/** Opens a span covering the rest of the enclosing scope. */
#define CTA_TRACE_SCOPE(name) \
    ::cta::obs::TraceScope CTA_OBS_CONCAT(cta_trace_scope_, \
                                          __LINE__)(name)
/** Same, with a correlation id rendered into the span's args. */
#define CTA_TRACE_SCOPE_ID(name, id) \
    ::cta::obs::TraceScope CTA_OBS_CONCAT(cta_trace_scope_, \
                                          __LINE__)(name, id)
#else
#define CTA_TRACE_SCOPE(name) static_cast<void>(0)
#define CTA_TRACE_SCOPE_ID(name, id) static_cast<void>(0)
#endif
