/**
 * @file
 * Deterministic trace-driven open-loop load generation for the
 * serving front-end.
 *
 * An *open-loop* arrival process submits work on its own clock,
 * independent of service completions — unlike the closed-loop benches
 * (the serve_soak scenario, perfbench chat), which only ever offer
 * the next token after the previous one finished and therefore can
 * never observe queueing collapse. The trace is generated up front, as a
 * pure function of a LoadGenConfig (seed included), so a sweep point
 * is exactly reproducible and two runs can be diffed:
 *
 *  - **Arrival times** follow a non-homogeneous Poisson process with
 *    sinusoidal rate modulation (burstFactor = peak-to-mean ratio),
 *    drawn by thinning against the peak rate. burstFactor 1 is a
 *    plain Poisson process.
 *  - **Session popularity** is Zipf-distributed over the session
 *    slots (slot 0 most popular), the canonical skew of serving
 *    traffic; exponent 0 degrades to uniform.
 *  - **Request lengths** mix: each arrival asks for a uniform number
 *    of decode steps in [minSteps, maxSteps] — the prefill-length mix
 *    is the caller's business (sessions are prefilled before the
 *    trace is replayed).
 *
 * The replay discipline (the serve_slo scenario) maps trace time onto
 * a virtual clock advanced by measured flush wall time, so the bench
 * never sleeps: arrivals whose trace time has been reached are
 * submitted, a flush runs, and its wall duration advances the clock.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "core/types.h"

namespace cta::serve {

/** Parameters of one generated arrival trace. */
struct LoadGenConfig
{
    /** Session slots arrivals are drawn over (ids [0, sessions)). */
    core::Index sessions = 64;
    /** Zipf popularity exponent s: P(slot k) proportional to
     *  (k+1)^-s. 0 is uniform; ~1 is classic web-trace skew. */
    double zipfExponent = 1.0;
    /** Mean arrival rate in requests per second (> 0). */
    double ratePerSecond = 1000.0;
    /** Peak-to-mean ratio of the sinusoidally modulated rate, in
     *  [1, 2]: rate(t) = mean * (1 + (burstFactor-1) *
     *  sin(2*pi*t/burstPeriodSeconds)). 1 disables bursts. */
    double burstFactor = 1.0;
    /** Burst modulation period in seconds (> 0). */
    double burstPeriodSeconds = 0.25;
    /** Decode steps per request: uniform in [minSteps, maxSteps]. */
    core::Index minSteps = 1;
    core::Index maxSteps = 4;
    /** Trace length in seconds (> 0). */
    double durationSeconds = 1.0;
    std::uint64_t seed = 1;
};

/** One open-loop request arrival. */
struct Arrival
{
    double time = 0;         ///< seconds since trace start
    core::Index session = 0; ///< slot in [0, config.sessions)
    core::Index steps = 1;   ///< decode tokens requested
};

/**
 * Rank-based Zipf sampler: P(k) proportional to (k+1)^-s over
 * [0, n), via inverse-CDF binary search — O(log n) per draw,
 * O(n) setup.
 */
class ZipfSampler
{
  public:
    ZipfSampler(core::Index n, double exponent);

    core::Index sample(core::Rng &rng) const;

  private:
    std::vector<double> cdf_; ///< cumulative weights, cdf_.back()==1
};

/**
 * The full arrival trace of @p config, sorted by time. Pure function
 * of the config (seed included). Fatal on out-of-range parameters —
 * a load point silently clamped would corrupt a whole sweep.
 */
std::vector<Arrival> generateArrivals(const LoadGenConfig &config);

/**
 * Merges two traces (each sorted by time) into one sorted trace,
 * offsetting the second trace's session slots by @p session_offset —
 * how the SLO bench combines per-tenant traces with independent
 * rates into one open-loop schedule.
 */
std::vector<Arrival> mergeArrivals(const std::vector<Arrival> &a,
                                   const std::vector<Arrival> &b,
                                   core::Index session_offset);

} // namespace cta::serve
