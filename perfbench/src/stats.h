/**
 * @file
 * The benchmark's own arithmetic: the percentile rank rule, the
 * robust summaries of repeated host timings, the geometric mean,
 * and SLO counting. Kept apart from the workloads so the self-test
 * (selftest.cpp) can pin each rule on hand-computed inputs.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstdint>
#include <vector>

namespace perfbench {

/** Nearest-rank percentile, p in [0, 100]: the value at 1-based
 *  rank ceil(p/100 * n) of the ascending sample (rank 1 for p = 0).
 *  The same rule as serving::percentile(), restated here so the
 *  benchmark does not take its arithmetic from the code it checks.
 *  Fatal on an empty sample. */
double percentileNearestRank(std::vector<double> values, double p);

/** Median as the mean of the two middle values for an even count.
 *  Fatal when empty. */
double median(std::vector<double> values);

/** Mean of the middle half of the sample: sorted, floor(n/4)
 *  values dropped from each end (none below four values). The
 *  summary of repeated host timings, which on a shared machine
 *  swing between fast and slow phases: it keeps the median's
 *  indifference to outliers but does not jump between the two
 *  modes the way a median of a bimodal sample does. Fatal when
 *  empty. */
double interquartileMean(std::vector<double> values);

/** Geometric mean of strictly positive values. Fatal when empty
 *  or when a value is not positive. */
double geoMean(const std::vector<double> &values);

/** One request's service-level outcome. A request that never
 *  completed (rejected, expired, lost) has completed = false and
 *  counts as a miss whatever its times. */
struct SloSample
{
    bool completed = false;
    double ttft_ms = 0.0;
    double tbt_ms = 0.0;
};

/** Fixed latency limits of one workload. */
struct SloLimits
{
    double ttft_ms = 0.0;
    double tbt_ms = 0.0;
};

/** Requests that completed within both limits (inclusive). */
int64_t sloMet(const std::vector<SloSample> &samples,
               const SloLimits &limits);

/** Share of @p attempted requests that met both limits: @p met
 *  over attempted, so failed requests count as misses even when
 *  they never produced a sample. Fatal when attempted < 1 or met
 *  exceeds it. */
double sloAttainment(int64_t met, int64_t attempted);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
