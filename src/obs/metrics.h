/**
 * @file
 * Process-wide counters and gauges keyed by hierarchical names
 * ("serve.decode_steps", "accel.sa.busy_cycles", ...), exported as a
 * flat metrics JSON.
 *
 * Determinism contract: Counter values are event counts accumulated
 * with commutative atomic adds, so for a fixed workload the totals
 * are identical under any CTA_THREADS setting (tests/obs_test.cc).
 * Gauges live in the timing domain (queue waits, rates) and are
 * exempt, exactly like span durations.
 *
 * Recording rides the same runtime flag as tracing (CTA_TRACE /
 * setTraceEnabled): with observability off — the default — every
 * CTA_OBS_* macro costs one relaxed atomic load and a predictable
 * branch, which is what lets them sit on per-token paths (the
 * incremental appends) without moving the serve bench — though not
 * on innermost hot leaves like hashRows, where even the disabled
 * branch inhibits loop optimization (see DESIGN.md §4.3). When
 * enabled, the macro caches the registry lookup in a function-local
 * static, so steady-state cost is the striped atomic add alone; with
 * CTA_OBS=OFF it compiles away entirely. The direct Counter/Gauge
 * API is never gated — tests and explicit callers always record.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h" // traceEnabled(): the shared runtime gate

namespace cta::obs {

/**
 * Monotonic event counter (deterministic under threading).
 *
 * Internally striped: adds land in one of kStripes cache-line-padded
 * slots picked per thread, so concurrent sessions bumping the same
 * counter (e.g. "lsh.tokens_hashed" from every flush worker) don't
 * ping-pong a single cache line — that contention measurably slowed
 * the serve bench with a single atomic. value() sums the stripes;
 * totals stay exact and thread-count-invariant because addition
 * commutes.
 */
class Counter
{
  public:
    void add(std::uint64_t delta = 1)
    {
        stripes_[threadStripe()].v.fetch_add(
            delta, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        std::uint64_t total = 0;
        for (const Stripe &s : stripes_)
            total += s.v.load(std::memory_order_relaxed);
        return total;
    }

    void reset()
    {
        for (Stripe &s : stripes_)
            s.v.store(0, std::memory_order_relaxed);
    }

  private:
    static constexpr std::size_t kStripes = 16;

    struct alignas(64) Stripe
    {
        std::atomic<std::uint64_t> v{0};
    };

    /** Stable per-thread stripe index from a TLS address. */
    static std::size_t threadStripe()
    {
        thread_local const char anchor = 0;
        return (reinterpret_cast<std::uintptr_t>(&anchor) >> 6) %
               kStripes;
    }

    Stripe stripes_[kStripes];
};

/** Timing-domain value: last write, running max, or running sum. */
class Gauge
{
  public:
    /** Last-writer-wins under concurrency. */
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    /** Monotonic max. */
    void max(double v);

    /** Accumulating sum. */
    void add(double v);

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0};
};

/**
 * Registered counter for @p name (created on first use; the
 * reference stays valid for the process lifetime). Takes a registry
 * lock — cache the reference on hot paths (see CTA_OBS_COUNT).
 */
Counter &counter(std::string_view name);

/** Registered gauge for @p name; same lifetime rules as counter(). */
Gauge &gauge(std::string_view name);

/**
 * Composes a labeled metric name: "base{key=value}" — e.g.
 * labeled("serve.queue_wait_max_s", "tenant", "gold") is
 * "serve.queue_wait_max_s{tenant=gold}". This is how per-tenant (or
 * any per-entity) series share one base name while staying distinct
 * registry entries; labeled names sort next to their base in the
 * metrics JSON. The braces/'='/',' are reserved delimiters: they are
 * fatal inside @p key or @p value, so a labeled name always parses
 * back unambiguously.
 */
std::string labeled(std::string_view base, std::string_view key,
                    std::string_view value);

/** (name, value) of every registered counter, sorted by name. */
std::vector<std::pair<std::string, std::uint64_t>> counterSnapshot();

/** (name, value) of every registered gauge, sorted by name. */
std::vector<std::pair<std::string, double>> gaugeSnapshot();

/** Zeroes every registered counter and gauge (tests, bench reruns). */
void resetMetrics();

/**
 * Writes {"counters": {name: value...}, "gauges": {name: value...}}
 * with keys sorted, so diffs between runs are meaningful.
 */
void writeMetricsJson(std::ostream &os);

/** writeMetricsJson() into @p path; false if the file won't open. */
bool writeMetricsJsonFile(const std::string &path);

} // namespace cta::obs

#ifndef CTA_OBS_DISABLED
/** Bumps the named counter by @p delta when observability is on
 *  (registry lookup cached; one load + branch when off). */
#define CTA_OBS_COUNT(name, delta) \
    do { \
        if (::cta::obs::traceEnabled()) { \
            static ::cta::obs::Counter &cta_obs_counter_ = \
                ::cta::obs::counter(name); \
            cta_obs_counter_.add(delta); \
        } \
    } while (false)
/** Folds @p value into the named max-gauge when observability is
 *  on. */
#define CTA_OBS_GAUGE_MAX(name, value) \
    do { \
        if (::cta::obs::traceEnabled()) { \
            static ::cta::obs::Gauge &cta_obs_gauge_ = \
                ::cta::obs::gauge(name); \
            cta_obs_gauge_.max(value); \
        } \
    } while (false)
/** Adds @p value to the named sum-gauge when observability is on. */
#define CTA_OBS_GAUGE_ADD(name, value) \
    do { \
        if (::cta::obs::traceEnabled()) { \
            static ::cta::obs::Gauge &cta_obs_gauge_ = \
                ::cta::obs::gauge(name); \
            cta_obs_gauge_.add(value); \
        } \
    } while (false)
/** Overwrites the named gauge (last-writer-wins) when observability
 *  is on. */
#define CTA_OBS_GAUGE_SET(name, value) \
    do { \
        if (::cta::obs::traceEnabled()) { \
            static ::cta::obs::Gauge &cta_obs_gauge_ = \
                ::cta::obs::gauge(name); \
            cta_obs_gauge_.set(value); \
        } \
    } while (false)
#else
#define CTA_OBS_COUNT(name, delta) static_cast<void>(0)
#define CTA_OBS_GAUGE_MAX(name, value) static_cast<void>(0)
#define CTA_OBS_GAUGE_ADD(name, value) static_cast<void>(0)
#define CTA_OBS_GAUGE_SET(name, value) static_cast<void>(0)
#endif
