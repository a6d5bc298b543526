/**
 * @file
 * Shared scaffolding of the perfbench workloads: run options, the
 * result record, samples and the window's slices whose medians are the
 * end-to-end metrics, the timed window with its untraced and traced
 * halves, and the reducer that turns the
 * program's own CTA_TRACE spans into per-name self times.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return 1e3 * secondsBetween(a, b);
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Pool size of every component, pinned before the pool starts. */
    int threads = 1;
};

/** Derives an independent sub-seed (SplitMix64 finalizer). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** The percentile every "_tail" metric reports. */
constexpr double kTailQuantile = 0.9;

/** Scalar samples with nearest-rank percentiles. */
class Samples
{
  public:
    void add(double v)
    {
        values_.push_back(v);
        sorted_ = false;
    }
    std::size_t count() const { return values_.size(); }
    double mean() const;
    /** Nearest-rank percentile, @p q in (0, 1]; 0 without samples. */
    double percentile(double q) const;
    double median() const { return percentile(0.5); }
    double tail() const { return percentile(kTailQuantile); }

  private:
    mutable std::vector<double> values_;
    mutable bool sorted_ = false;
};

/**
 * The timed window cut into consecutive slices of whole iterations,
 * each closed once it has run kSliceSeconds. Work rates and latency
 * statistics are taken per slice, and the end-to-end metrics are their
 * medians over the slices: a burst of interference from the rest of a
 * shared host moves the slices it falls in, not the reported value.
 * A trailing slice shorter than kSliceSeconds is dropped unless it is
 * the only one.
 */
class Slices
{
  public:
    static constexpr double kSliceSeconds = 2.0;
    /** Latency series kept per slice. */
    static constexpr int kSeries = 2;

    /** Adds @p work (tokens) done in the current slice. */
    void add(double work) { open_.work += work; }
    void sample(int series, double ms) { open_.samples[series].add(ms); }
    /** Between iterations, at window time @p elapsed (seconds):
     *  closes the current slice once it has run its length. */
    void between(double elapsed);
    /** At the end of the window, at window time @p elapsed. */
    void finish(double elapsed);

    std::size_t count() const { return closed_.size(); }
    std::size_t samples(int series) const;
    /** Median over slices of work per second. */
    double rate() const;
    /** Median over slices of the mean of @p series. */
    double mean(int series) const;
    /** Median over slices of the kTailQuantile of @p series. */
    double tail(int series) const;
    /** "slices rate=r1,r2,..." (work per second of each slice). */
    std::string describe() const;

  private:
    struct Slice
    {
        double work = 0;
        double seconds = 0;
        Samples samples[kSeries];
    };

    void close(double elapsed);
    template <typename Of> double medianOver(Of of) const;

    Slice open_;
    double openedAt_ = 0;
    std::vector<Slice> closed_;
};

/** Everything one workload run reports. */
struct Result
{
    /** Measured metrics by name (end-to-end or per-layer). */
    std::map<std::string, double> metrics;
    /** Counts that are a pure function of the seed. */
    std::map<std::string, double> exact;
    /** Context lines: sample counts, percentiles, self times. */
    std::vector<std::string> notes;
    /** Failed operations and output checks. */
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;

    void fail(const std::string &why) { failures.push_back(why); }
    void note(const std::string &line) { notes.push_back(line); }
};

/** Per-span-name totals reduced from the program's trace. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::uint64_t inclusiveNs = 0;
    std::uint64_t selfNs = 0;
    /** Self time of the spans recorded on the driver thread. */
    std::uint64_t driverSelfNs = 0;
    /** Inclusive durations in ms (only for names asked for). */
    Samples durationsMs;
};

/**
 * Reduces the program's CTA_TRACE spans to per-name self times.
 *
 * Tracing runs in segments. Ending one disables tracing, merges every
 * thread's buffered spans, clears the buffers and folds the batch in.
 * A segment may only end when no span is open on any thread (between
 * driver iterations, with the pool idle), so each batch holds whole
 * span trees and self time — a span's duration minus the part its
 * children on the same thread cover — is exact. The driver thread is
 * the one that records the benchmark's own "bench.*" spans.
 */
class TraceReducer
{
  public:
    /** Keeps each span's duration for @p name (for percentiles). */
    void keepDurations(const std::string &name) { keep_[name] = true; }

    void beginSegment();
    void endSegment();
    /** Seconds since the current segment began (0 outside one). */
    double segmentAge() const;

    /** Wall seconds covered by segments, an open one included. */
    double tracedSeconds() const;
    /** Driver-thread time covered by its top-level spans, ns. */
    std::uint64_t driverTopNs() const { return driverTopNs_; }
    /** Driver-thread self time summed over every span name, ns; equal
     *  to driverTopNs() when every span nests properly. */
    std::uint64_t driverSelfNs() const;
    /** Top-level driver-thread spans that are not bench.* spans. */
    std::uint64_t strayDriverSpans() const { return stray_; }
    /** Spans the program dropped at its per-thread buffer cap. */
    std::uint64_t droppedEvents() const { return dropped_; }

    /** Totals of @p name (all zero when it never appeared). */
    const SpanTotals &operator[](const std::string &name) const;
    const std::map<std::string, SpanTotals> &totals() const
    {
        return totals_;
    }

  private:
    void drain();

    std::map<std::string, SpanTotals> totals_;
    std::map<std::string, bool> keep_;
    std::uint64_t dropped_ = 0;
    std::uint64_t driverTopNs_ = 0;
    std::uint64_t stray_ = 0;
    int driverTid_ = -1;
    double closedSeconds_ = 0;
    Clock::time_point segmentStart_{};
    bool inSegment_ = false;
};

/**
 * The timed window of one run, split at its midpoint into two halves
 * (the stationarity guard compares them). In a traced run only the
 * second half is traced; its trace is drained every kDrainSeconds and
 * the drains are kept out of the window, so the untraced first half
 * against the traced second half gives the tracing overhead.
 */
class Window
{
  public:
    Window(const Options &opts, TraceReducer &tracer)
        : opts_(opts), tracer_(tracer)
    {
    }

    void start();
    bool active() const { return active_; }
    /** The half (0 or 1) the next iteration belongs to; flips at the
     *  midpoint, where a traced run starts tracing. Call it only
     *  between iterations, when no span is open. */
    int half();
    /** Window seconds so far (drains excluded). */
    double elapsed() const;
    /** True once the window has run its length and @p complete. */
    bool over(bool complete) const
    {
        return complete && elapsed() >= opts_.seconds;
    }
    /** Between iterations: drains the trace when one is due. */
    void between();
    void finish();
    double halfSeconds(int h) const;
    double seconds() const { return halfSeconds(0) + halfSeconds(1); }

  private:
    static constexpr double kDrainSeconds = 0.25;

    const Options &opts_;
    TraceReducer &tracer_;
    Clock::time_point start_{};
    Clock::time_point switch_{};
    Clock::time_point end_{};
    bool active_ = false;
    bool second_ = false;
    bool finished_ = false;
};

/** Peak resident set size of this process, MiB. */
double peakRssMib();

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupRepeats = 5;

/** Notes the spread of a run's set-up times (seconds). */
void noteSetup(Result &result, const Samples &setup);

/**
 * Stationarity guard: notes both halves' values of @p what and fails
 * the run when they differ by more than @p bound of the larger one.
 */
void checkDrift(Result &result, const std::string &what, double first,
                double second, double bound);

/**
 * Traced-run bookkeeping: the obs.* metrics and unattributed_share,
 * the driver-thread accounting checks, and a self-time table.
 * @p untraced_rate and @p traced_rate are the work rates of the two
 * window halves.
 */
void reportTrace(const TraceReducer &tracer, const Window &window,
                 double untraced_rate, double traced_rate,
                 Result &result);

/** The workloads. Each fills @p result with the metrics of its mode
 *  (see main.cc for the tables) and records failed checks there. */
void runChat(const Options &opts, Result &result);
void runForkResume(const Options &opts, Result &result);
void runEncode(const Options &opts, Result &result);

} // namespace perfbench
