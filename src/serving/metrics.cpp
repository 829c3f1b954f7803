#include "serving/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "support/error.h"

namespace streamtensor {
namespace serving {

std::optional<double>
percentile(std::vector<double> values, double p)
{
    ST_CHECK(p >= 0.0 && p <= 100.0, "percentile domain");
    if (values.empty())
        return std::nullopt;
    std::sort(values.begin(), values.end());
    // Nearest rank: smallest value with at least p% of the sample
    // at or below it.
    auto n = static_cast<double>(values.size());
    auto rank = static_cast<int64_t>(std::ceil(p / 100.0 * n));
    rank = std::max<int64_t>(rank, 1);
    return values[static_cast<size_t>(rank - 1)];
}

double
recordPercentileMs(const std::vector<RequestMetrics> &records,
                   bool records_complete,
                   const QuantileSketch &sketch,
                   double (RequestMetrics::*metric)() const,
                   double p)
{
    // The documented sentinel of the percentile accessors on an
    // empty window.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    if (!records_complete)
        return sketch.quantile(p).value_or(nan);
    std::vector<double> values;
    values.reserve(records.size());
    for (const auto &r : records)
        values.push_back((r.*metric)());
    return percentile(std::move(values), p).value_or(nan);
}

void
ServingMetrics::recordCompletion(const RequestMetrics &done,
                                 const MetricsOptions &options)
{
    ++completed;
    total_output_tokens += done.output_len;
    if (done.missedDeadline())
        ++deadline_misses;

    latency_sketch.add(done.latencyMs());
    ttft_sketch.add(done.ttftMs());
    ttft_sum_ms += done.ttftMs();
    // A single-token request has zero decode gaps, so a nonzero
    // decode window would silently inflate tbtMeanMs() for every
    // other request. Such a window is impossible by construction
    // (the request finishes at its prefill step); make the
    // impossibility loud.
    ST_ASSERT(done.output_len > 1 ||
                  done.finish_ms == done.first_token_ms,
              "single-token request with a decode window");
    decode_sum_ms += done.finish_ms - done.first_token_ms;
    decode_gaps += done.output_len - 1;

    switch (options.keep_records) {
    case MetricsOptions::KeepRecords::Always:
        requests.push_back(done);
        break;
    case MetricsOptions::KeepRecords::Never:
        records_complete = false;
        break;
    case MetricsOptions::KeepRecords::Auto:
        if (completed <= options.auto_record_limit) {
            requests.push_back(done);
        } else if (records_complete) {
            // Crossing the limit: drop everything, not just the
            // overflow — a truncated vector would read as a valid
            // (but silently biased) sample.
            records_complete = false;
            requests.clear();
            requests.shrink_to_fit();
        }
        break;
    }
}

double
ServingMetrics::requestsPerSecond() const
{
    return makespan_ms > 0.0 ? completed / makespan_ms * 1e3 : 0.0;
}

double
ServingMetrics::tokensPerSecond() const
{
    return makespan_ms > 0.0
               ? total_output_tokens / makespan_ms * 1e3
               : 0.0;
}

double
ServingMetrics::utilization() const
{
    return makespan_ms > 0.0 ? busy_ms / makespan_ms : 0.0;
}

double
ServingMetrics::meanBatchSize() const
{
    return steps > 0 ? static_cast<double>(total_batched_seqs) /
                           static_cast<double>(steps)
                     : 0.0;
}

double
ServingMetrics::ttftMeanMs() const
{
    return completed > 0
               ? ttft_sum_ms / static_cast<double>(completed)
               : 0.0;
}

double
ServingMetrics::ttftP95Ms() const
{
    return recordPercentileMs(requests, records_complete,
                              ttft_sketch, &RequestMetrics::ttftMs,
                              95.0);
}

double
ServingMetrics::pageUtilization() const
{
    return steps > 0 && pool_pages > 0
               ? static_cast<double>(page_step_sum) /
                     (static_cast<double>(steps) *
                      static_cast<double>(pool_pages))
               : 0.0;
}

double
ServingMetrics::prefixHitRate() const
{
    int64_t touched = prefix_hit_pages + prefix_miss_pages;
    return touched > 0 ? static_cast<double>(prefix_hit_pages) /
                             static_cast<double>(touched)
                       : 0.0;
}

double
ServingMetrics::tbtMeanMs() const
{
    return decode_gaps > 0
               ? decode_sum_ms / static_cast<double>(decode_gaps)
               : 0.0;
}

double
ServingMetrics::latencyPercentileMs(double p) const
{
    return recordPercentileMs(requests, records_complete,
                              latency_sketch,
                              &RequestMetrics::latencyMs, p);
}

double
ServingMetrics::weightOverlapFraction() const
{
    if (weight_stream_ms <= 0.0)
        return 1.0;
    return std::clamp(1.0 - weight_stall_ms / weight_stream_ms,
                      0.0, 1.0);
}

} // namespace serving
} // namespace streamtensor
