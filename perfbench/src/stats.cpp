#include "stats.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace perfbench {

double
percentileNearestRank(std::vector<double> values, double p)
{
    ST_CHECK(!values.empty(), "percentile of an empty sample");
    ST_CHECK(p >= 0.0 && p <= 100.0, "percentile outside [0, 100]");
    std::sort(values.begin(), values.end());
    auto n = static_cast<double>(values.size());
    auto rank = static_cast<int64_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<int64_t>(rank, 1,
                               static_cast<int64_t>(values.size()));
    return values[static_cast<size_t>(rank - 1)];
}

double
median(std::vector<double> values)
{
    ST_CHECK(!values.empty(), "median of an empty sample");
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    if (n % 2 == 1)
        return values[n / 2];
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
interquartileMean(std::vector<double> values)
{
    ST_CHECK(!values.empty(), "mean of an empty sample");
    std::sort(values.begin(), values.end());
    size_t cut = values.size() / 4;
    double sum = 0.0;
    for (size_t i = cut; i < values.size() - cut; ++i)
        sum += values[i];
    return sum / static_cast<double>(values.size() - 2 * cut);
}

double
geoMean(const std::vector<double> &values)
{
    ST_CHECK(!values.empty(), "geometric mean of an empty sample");
    double log_sum = 0.0;
    for (double v : values) {
        ST_CHECK(v > 0.0, "geometric mean needs positive values");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

int64_t
sloMet(const std::vector<SloSample> &samples, const SloLimits &limits)
{
    int64_t met = 0;
    for (const auto &s : samples)
        if (s.completed && s.ttft_ms <= limits.ttft_ms &&
            s.tbt_ms <= limits.tbt_ms)
            ++met;
    return met;
}

double
sloAttainment(int64_t met, int64_t attempted)
{
    ST_CHECK(attempted >= 1, "SLO attainment needs an attempt");
    ST_CHECK(met >= 0 && met <= attempted,
             "more requests met the SLO than were attempted");
    return static_cast<double>(met) / static_cast<double>(attempted);
}

} // namespace perfbench
