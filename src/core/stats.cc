#include "core/stats.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"

namespace cta::core {

Wide
mean(std::span<const Wide> values)
{
    if (values.empty())
        return 0;
    Wide acc = 0;
    for (Wide v : values)
        acc += v;
    return acc / static_cast<Wide>(values.size());
}

Wide
stddev(std::span<const Wide> values)
{
    if (values.size() < 2)
        return 0;
    const Wide m = mean(values);
    Wide acc = 0;
    for (Wide v : values)
        acc += (v - m) * (v - m);
    return std::sqrt(acc / static_cast<Wide>(values.size() - 1));
}

Wide
geomean(std::span<const Wide> values)
{
    CTA_REQUIRE(!values.empty(), "geomean of empty span");
    Wide log_acc = 0;
    for (Wide v : values) {
        CTA_REQUIRE(v > 0, "geomean requires positive values, got ", v);
        log_acc += std::log(v);
    }
    return std::exp(log_acc / static_cast<Wide>(values.size()));
}

Wide
geomeanPositive(std::span<const Wide> values)
{
    Wide log_acc = 0;
    std::size_t kept = 0;
    for (Wide v : values) {
        // "v > 0" is false for NaN as well, so this one branch drops
        // negatives, zeros, NaNs and -inf; +inf would poison the log
        // sum, so it is dropped too.
        if (!(v > 0) || std::isinf(v)) {
            CTA_WARN("geomeanPositive: dropping non-positive or "
                     "non-finite value ", v);
            continue;
        }
        log_acc += std::log(v);
        ++kept;
    }
    if (kept == 0) {
        CTA_WARN("geomeanPositive: no positive values, returning 0");
        return 0;
    }
    return std::exp(log_acc / static_cast<Wide>(kept));
}

Wide
minOf(std::span<const Wide> values)
{
    CTA_REQUIRE(!values.empty(), "minOf of empty span");
    return *std::min_element(values.begin(), values.end());
}

Wide
maxOf(std::span<const Wide> values)
{
    CTA_REQUIRE(!values.empty(), "maxOf of empty span");
    return *std::max_element(values.begin(), values.end());
}

Wide
percentile(std::span<const Wide> values, Wide q)
{
    if (values.empty())
        return 0;
    std::vector<Wide> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    // The epsilon keeps an exact q * n from rounding up a rank.
    const auto n = static_cast<Wide>(sorted.size());
    const Wide rank = std::clamp(std::ceil(q * n - 1e-9), Wide{1}, n);
    return sorted[static_cast<std::size_t>(rank) - 1];
}

Real
cosineSimilarity(std::span<const Real> a, std::span<const Real> b)
{
    CTA_REQUIRE(a.size() == b.size(), "cosine length mismatch");
    Wide dot = 0, na = 0, nb = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        dot += static_cast<Wide>(a[i]) * b[i];
        na += static_cast<Wide>(a[i]) * a[i];
        nb += static_cast<Wide>(b[i]) * b[i];
    }
    if (na == 0 || nb == 0)
        return 0;
    return static_cast<Real>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

Real
l2Distance(std::span<const Real> a, std::span<const Real> b)
{
    CTA_REQUIRE(a.size() == b.size(), "l2Distance length mismatch");
    Wide acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Wide diff = static_cast<Wide>(a[i]) - b[i];
        acc += diff * diff;
    }
    return static_cast<Real>(std::sqrt(acc));
}

Real
squaredNorm(std::span<const Real> a)
{
    Wide acc = 0;
    for (Real v : a)
        acc += static_cast<Wide>(v) * v;
    return static_cast<Real>(acc);
}

void
RunningStat::add(Wide value)
{
    if (count_ == 0) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    sum_ += value;
    ++count_;
}

} // namespace cta::core
