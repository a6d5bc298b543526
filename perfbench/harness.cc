#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <utility>

#include <sys/resource.h>

#include "obs/trace.h"

namespace perfbench {

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
Samples::mean() const
{
    double sum = 0;
    for (const double v : values_)
        sum += v;
    return values_.empty() ? 0 : sum / static_cast<double>(values_.size());
}

double
Samples::percentile(double q) const
{
    if (values_.empty())
        return 0;
    if (!sorted_) {
        std::sort(values_.begin(), values_.end());
        sorted_ = true;
    }
    // Nearest rank; the epsilon keeps an exact q * n from rounding up.
    const double n = static_cast<double>(values_.size());
    const double rank = std::clamp(std::ceil(q * n - 1e-9), 1.0, n);
    return values_[static_cast<std::size_t>(rank) - 1];
}

void
Slices::close(double elapsed)
{
    open_.seconds = elapsed - openedAt_;
    closed_.push_back(std::move(open_));
    open_ = Slice{};
    openedAt_ = elapsed;
}

void
Slices::between(double elapsed)
{
    if (elapsed - openedAt_ >= kSliceSeconds)
        close(elapsed);
}

void
Slices::finish(double elapsed)
{
    if (closed_.empty())
        close(elapsed);
}

std::size_t
Slices::samples(int series) const
{
    std::size_t n = 0;
    for (const Slice &s : closed_)
        n += s.samples[series].count();
    return n;
}

template <typename Of>
double
Slices::medianOver(Of of) const
{
    // A slice without a value (NaN) has no say.
    Samples values;
    for (const Slice &s : closed_)
        if (const double v = of(s); !std::isnan(v))
            values.add(v);
    return values.median();
}

double
Slices::rate() const
{
    return medianOver([](const Slice &s) {
        return s.seconds > 0 ? s.work / s.seconds : std::nan("");
    });
}

double
Slices::mean(int series) const
{
    return medianOver([series](const Slice &s) {
        return s.samples[series].count() ? s.samples[series].mean()
                                         : std::nan("");
    });
}

std::string
Slices::describe() const
{
    std::string line = "slices rate=";
    char value[32];
    for (std::size_t i = 0; i < closed_.size(); ++i) {
        const Slice &s = closed_[i];
        std::snprintf(value, sizeof(value), "%s%.4g", i ? "," : "",
                      s.seconds > 0 ? s.work / s.seconds : 0.0);
        line += value;
    }
    return line;
}

double
Slices::tail(int series) const
{
    return medianOver([series](const Slice &s) {
        return s.samples[series].count() ? s.samples[series].tail()
                                         : std::nan("");
    });
}

namespace {

/** One span of a drained trace batch. */
struct Span
{
    int name = 0;
    int tid = 0;
    std::int64_t start = 0;    ///< ns since the trace epoch
    std::int64_t dur = 0;      ///< ns
    std::int64_t children = 0; ///< ns covered by direct children
};

/** Parses the number that follows @p key in @p line. */
bool
numberAfter(std::string_view line, std::string_view key, double &out)
{
    const std::size_t pos = line.find(key);
    if (pos == std::string_view::npos)
        return false;
    const std::string text(line.substr(pos + key.size(), 40));
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end != text.c_str();
}

bool
isBenchSpan(const std::string &name)
{
    return name.rfind("bench.", 0) == 0;
}

/** The trace prints microseconds with three decimals: exact ns. */
std::int64_t
toNs(double us)
{
    return std::llround(us * 1e3);
}

const SpanTotals kNoSpans{};

} // namespace

void
TraceReducer::beginSegment()
{
    cta::obs::clearTrace();
    cta::obs::setTraceEnabled(true);
    segmentStart_ = Clock::now();
    inSegment_ = true;
}

void
TraceReducer::endSegment()
{
    if (!inSegment_)
        return;
    const auto end = Clock::now();
    cta::obs::setTraceEnabled(false);
    closedSeconds_ += secondsBetween(segmentStart_, end);
    inSegment_ = false;
    drain();
}

double
TraceReducer::segmentAge() const
{
    return inSegment_ ? secondsBetween(segmentStart_, Clock::now()) : 0;
}

double
TraceReducer::tracedSeconds() const
{
    return closedSeconds_ + segmentAge();
}

std::uint64_t
TraceReducer::driverSelfNs() const
{
    std::uint64_t total = 0;
    for (const auto &entry : totals_)
        total += entry.second.driverSelfNs;
    return total;
}

const SpanTotals &
TraceReducer::operator[](const std::string &name) const
{
    const auto it = totals_.find(name);
    return it == totals_.end() ? kNoSpans : it->second;
}

void
TraceReducer::drain()
{
    std::ostringstream json;
    cta::obs::writeChromeTrace(json);
    cta::obs::clearTrace();
    const std::string text = json.str();

    // writeChromeTrace prints one span per line:
    //   {"name": "...", "ph": "X", "ts": <us>, "dur": <us>, "pid": 1,
    //    "tid": <n>[, "args": {...}]}
    std::vector<std::string> names;
    std::map<std::string, int> ids;
    std::vector<Span> spans;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string_view line(text.data() + pos, eol - pos);
        pos = eol + 1;
        double value = 0;
        if (numberAfter(line, "\"droppedEvents\": ", value)) {
            dropped_ += static_cast<std::uint64_t>(value);
            continue;
        }
        constexpr std::string_view kName = "{\"name\": \"";
        const std::size_t at = line.find(kName);
        if (at == std::string_view::npos)
            continue;
        const std::size_t begin = at + kName.size();
        const std::size_t close = line.find('"', begin);
        double ts = 0;
        double dur = 0;
        double tid = 0;
        if (close == std::string_view::npos ||
            !numberAfter(line, "\"ts\": ", ts) ||
            !numberAfter(line, "\"dur\": ", dur) ||
            !numberAfter(line, "\"tid\": ", tid))
            continue;
        const std::string name(line.substr(begin, close - begin));
        const auto [it, inserted] =
            ids.emplace(name, static_cast<int>(names.size()));
        if (inserted)
            names.push_back(name);
        Span span;
        span.name = it->second;
        span.tid = static_cast<int>(tid);
        span.start = toNs(ts);
        span.dur = toNs(dur);
        if (driverTid_ < 0 && isBenchSpan(name))
            driverTid_ = span.tid;
        spans.push_back(span);
    }

    // Per thread in start order (a parent before the children that
    // start with it), charge each span to the innermost open span
    // that still covers its start.
    std::sort(spans.begin(), spans.end(),
              [](const Span &a, const Span &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.start != b.start)
                      return a.start < b.start;
                  return a.dur > b.dur;
              });
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (i == 0 || spans[i - 1].tid != spans[i].tid)
            open.clear();
        const Span &span = spans[i];
        while (!open.empty()) {
            const Span &top = spans[open.back()];
            const std::int64_t end = top.start + top.dur;
            // A zero-length span at its parent's last instant nests.
            if (end < span.start || (end == span.start && span.dur > 0))
                open.pop_back();
            else
                break;
        }
        if (!open.empty()) {
            spans[open.back()].children += span.dur;
        } else if (span.tid == driverTid_) {
            driverTopNs_ += static_cast<std::uint64_t>(span.dur);
            if (!isBenchSpan(names[static_cast<std::size_t>(span.name)]))
                ++stray_;
        }
        open.push_back(i);
    }
    for (const Span &span : spans) {
        const std::string &name =
            names[static_cast<std::size_t>(span.name)];
        SpanTotals &t = totals_[name];
        const auto self = static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, span.dur - span.children));
        ++t.count;
        t.inclusiveNs += static_cast<std::uint64_t>(span.dur);
        t.selfNs += self;
        if (span.tid == driverTid_)
            t.driverSelfNs += self;
        if (keep_.count(name) != 0)
            t.durationsMs.add(1e-6 * static_cast<double>(span.dur));
    }
}

void
Window::start()
{
    start_ = Clock::now();
    active_ = true;
}

int
Window::half()
{
    if (!second_ && elapsed() >= opts_.seconds / 2) {
        second_ = true;
        switch_ = Clock::now();
        if (opts_.trace)
            tracer_.beginSegment();
    }
    return second_ ? 1 : 0;
}

double
Window::elapsed() const
{
    if (second_ && opts_.trace)
        return secondsBetween(start_, switch_) + tracer_.tracedSeconds();
    return secondsBetween(start_, finished_ ? end_ : Clock::now());
}

void
Window::between()
{
    if (opts_.trace && second_ && tracer_.segmentAge() >= kDrainSeconds) {
        tracer_.endSegment();
        tracer_.beginSegment();
    }
}

void
Window::finish()
{
    end_ = Clock::now();
    finished_ = true;
    active_ = false;
    if (opts_.trace && second_)
        tracer_.endSegment();
}

double
Window::halfSeconds(int h) const
{
    const auto now = finished_ ? end_ : Clock::now();
    if (h == 0)
        return secondsBetween(start_, second_ ? switch_ : now);
    if (!second_)
        return 0;
    return opts_.trace ? tracer_.tracedSeconds()
                       : secondsBetween(switch_, now);
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
noteSetup(Result &result, const Samples &setup)
{
    char line[160];
    std::snprintf(line, sizeof(line),
                  "setup repeats=%zu min_s=%.4f median_s=%.4f max_s=%.4f",
                  setup.count(), setup.percentile(0), setup.median(),
                  setup.percentile(1));
    result.note(line);
}

void
checkDrift(Result &result, const std::string &what, double first,
           double second, double bound)
{
    const double scale = std::max(std::fabs(first), std::fabs(second));
    const double drift =
        scale > 0 ? std::fabs(first - second) / scale : 0;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "stationarity %s first_half=%.6g second_half=%.6g "
                  "drift=%.4f bound=%.2f",
                  what.c_str(), first, second, drift, bound);
    result.note(line);
    if (!(drift <= bound))
        result.fail(line);
}

void
reportTrace(const TraceReducer &tracer, const Window &window,
            double untraced_rate, double traced_rate, Result &result)
{
    const double wall = window.halfSeconds(1);
    const double spans = 1e-9 * static_cast<double>(tracer.driverTopNs());
    const double unattributed = wall - spans;
    result.metrics["unattributed_share"] = wall > 0 ? unattributed / wall : 0;
    result.metrics["obs.dropped_events"] =
        static_cast<double>(tracer.droppedEvents());
    result.metrics["obs.trace_overhead"] =
        traced_rate > 0 ? untraced_rate / traced_rate - 1 : 0;

    char line[256];
    std::snprintf(line, sizeof(line),
                  "trace driver_wall_s=%.6f driver_spans_s=%.6f "
                  "driver_self_sum_s=%.6f unattributed_s=%.6f",
                  wall, spans,
                  1e-9 * static_cast<double>(tracer.driverSelfNs()),
                  unattributed);
    result.note(line);
    if (tracer.driverSelfNs() != tracer.driverTopNs())
        result.fail("trace accounting: driver-thread self times do not "
                    "sum to its span time");
    if (unattributed < -1e-6)
        result.fail("trace accounting: driver-thread spans exceed the "
                    "traced wall time");
    if (tracer.strayDriverSpans() != 0)
        result.fail("trace accounting: driver-thread spans outside the "
                    "benchmark's own spans");
    if (tracer.droppedEvents() != 0)
        result.fail("the program dropped trace events");

    std::vector<std::pair<std::uint64_t, std::string>> order;
    for (const auto &[name, totals] : tracer.totals())
        order.emplace_back(totals.selfNs, name);
    std::sort(order.rbegin(), order.rend());
    for (const auto &[self, name] : order) {
        const SpanTotals &t = tracer[name];
        std::snprintf(line, sizeof(line),
                      "self %-32s count=%llu self_ms=%.3f "
                      "driver_self_ms=%.3f inclusive_ms=%.3f",
                      name.c_str(),
                      static_cast<unsigned long long>(t.count),
                      1e-6 * static_cast<double>(self),
                      1e-6 * static_cast<double>(t.driverSelfNs),
                      1e-6 * static_cast<double>(t.inclusiveNs));
        result.note(line);
    }
}

} // namespace perfbench
