/** @file Long-trace scale suite (ctest label: `scale`). Runs a
 *  four-replica fleet over a generator-fed Poisson trace large
 *  enough to cross the record-retention cliff and exercise the
 *  event loop's O(log n) path at depth, then checks the streaming
 *  contract: conservation of every request, O(sketch) memory
 *  (records dropped, bounded retained items), and sketch
 *  percentiles within the documented rank error of the exact
 *  record-keeping run. The fault-backlog cases (total outage, long
 *  drain, retry storm) pin that a deep retry buffer costs work in
 *  proportion to the requests parked, by counting balancer picks
 *  rather than timing. Trace length defaults to 150k requests;
 *  slow jobs (sanitizers) reduce it via ST_SCALE_REQUESTS. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/trace.h"

using namespace streamtensor;

namespace {

int64_t
scaleRequests()
{
    if (const char *env = std::getenv("ST_SCALE_REQUESTS"))
        return std::max<int64_t>(std::atoll(env), 1000);
    return 150000;
}

serving::TraceOptions
scaleTrace(int64_t n)
{
    serving::TraceOptions trace;
    trace.seed = 42;
    trace.num_requests = n;
    trace.mean_interarrival_ms = 0.5;
    trace.min_input_len = 4;
    trace.max_input_len = 64;
    trace.min_output_len = 1;
    trace.max_output_len = 16;
    return trace;
}

serving::FleetOptions
scaleFleet(serving::MetricsOptions::KeepRecords keep)
{
    serving::FleetOptions options;
    options.num_replicas = 4;
    options.replica.max_batch = 8;
    options.replica.kv_budget_tokens = 4096;
    options.replica.max_steps =
        std::numeric_limits<int64_t>::max();
    options.replica.metrics.keep_records = keep;
    return options;
}

TEST(Scale, StreamingSweepConservesAndBoundsMemory)
{
    int64_t n = scaleRequests();
    serving::TraceGenerator trace(serving::TraceShape::Poisson,
                                  scaleTrace(n));
    serving::AnalyticCostModel cost;
    serving::FleetScheduler fleet(
        scaleFleet(serving::MetricsOptions::KeepRecords::Never),
        cost);
    serving::FleetResult result = fleet.run(trace);
    const serving::FleetMetrics &m = result.metrics;

    // Conservation: every request has exactly one outcome.
    EXPECT_EQ(m.completed + m.requests_lost + m.expired_deadline +
                  m.rejected_queue_full + m.rejected_too_long +
                  m.rejected_drained,
              n);
    EXPECT_FALSE(result.hit_step_limit);
    EXPECT_EQ(m.completed, n); // calm fleet: nothing is shed

    // Streaming regime: no per-request records anywhere, and the
    // sketch retains O(k log(n/k)) items, not O(n).
    EXPECT_FALSE(m.records_complete);
    EXPECT_TRUE(m.requests.empty());
    for (const auto &replica : result.replicas)
        EXPECT_TRUE(replica.metrics.requests.empty());
    EXPECT_EQ(m.latency_sketch.count(), n);
    EXPECT_LT(m.latency_sketch.retainedItems(), 16384);

    // Percentiles answer from the sketch and are ordered.
    double p50 = m.latencyPercentileMs(50.0);
    double p99 = m.latencyPercentileMs(99.0);
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, m.latency_sketch.maxValue());
    EXPECT_GT(m.servedRequestsPerSecond(), 0.0);
}

TEST(Scale, SketchMatchesExactWithinRankError)
{
    // Cap the exact (record-keeping) reference run: its memory is
    // O(n) by design, which is the very thing the streaming path
    // exists to avoid.
    int64_t n = std::min<int64_t>(scaleRequests(), 200000);
    serving::AnalyticCostModel cost;

    serving::TraceGenerator streaming_trace(
        serving::TraceShape::Poisson, scaleTrace(n));
    serving::FleetScheduler streaming(
        scaleFleet(serving::MetricsOptions::KeepRecords::Never),
        cost);
    serving::FleetResult sketched = streaming.run(streaming_trace);

    serving::FleetScheduler exact(
        scaleFleet(serving::MetricsOptions::KeepRecords::Always),
        cost);
    serving::FleetResult kept = exact.run(
        serving::poissonTrace(scaleTrace(n)));

    // Same simulation either way — only retention differs.
    ASSERT_EQ(kept.metrics.completed, sketched.metrics.completed);
    ASSERT_TRUE(kept.metrics.records_complete);
    EXPECT_EQ(kept.metrics.makespan_ms,
              sketched.metrics.makespan_ms);

    std::vector<double> latencies;
    latencies.reserve(kept.metrics.requests.size());
    for (const auto &r : kept.metrics.requests)
        latencies.push_back(r.latencyMs());
    std::sort(latencies.begin(), latencies.end());

    auto total = static_cast<double>(latencies.size());
    for (double p : {50.0, 90.0, 99.0, 99.9}) {
        double answer = sketched.metrics.latencyPercentileMs(p);
        // Rank error of the sketch answer vs the exact sample,
        // against the documented 2% contract (quantile_sketch.h).
        double target = std::max(
            std::ceil(p / 100.0 * total), 1.0);
        auto lo = std::lower_bound(latencies.begin(),
                                   latencies.end(), answer) -
                  latencies.begin();
        auto hi = std::upper_bound(latencies.begin(),
                                   latencies.end(), answer) -
                  latencies.begin();
        double err = 0.0;
        if (target < static_cast<double>(lo) + 1.0)
            err = static_cast<double>(lo) + 1.0 - target;
        else if (target > static_cast<double>(hi))
            err = target - static_cast<double>(hi);
        EXPECT_LE(err / total, 0.02) << "p=" << p << " n=" << n;
    }
}

/** The sweep fleet at a sustainable load (Poisson every 3.3 ms,
 *  about 65% of what four replicas serve saturated) so the
 *  backlog a fault builds up drains after it. */
serving::TraceOptions
faultTrace(int64_t n)
{
    serving::TraceOptions trace = scaleTrace(n);
    trace.mean_interarrival_ms = 3.3;
    return trace;
}

double
traceSpanMs(const serving::TraceOptions &trace)
{
    return static_cast<double>(trace.num_requests) *
           trace.mean_interarrival_ms;
}

void
addOnEveryReplica(serving::FleetOptions &options, double at_ms,
                  serving::FaultKind kind)
{
    for (int r = 0; r < options.num_replicas; ++r)
        options.faults.events.push_back({at_ms, r, kind, 1.0});
}

/** Serves @p trace and checks what must hold however deep the
 *  retry buffer got: every request has exactly one outcome, and
 *  retry-buffer routing is linear — each pick routes a request,
 *  and a request is parked at most once on arrival, once per
 *  retry and once more for a drain or swap. */
void
expectLinearRedispatch(const serving::TraceOptions &trace,
                       const serving::FleetOptions &options)
{
    int64_t n = trace.num_requests;
    serving::TraceGenerator gen(serving::TraceShape::Poisson, trace);
    serving::AnalyticCostModel cost;
    serving::FleetScheduler fleet(options, cost);
    serving::FleetResult result = fleet.run(gen);
    const serving::FleetMetrics &m = result.metrics;

    EXPECT_FALSE(result.hit_step_limit);
    EXPECT_EQ(m.completed + m.rejected_queue_full +
                  m.rejected_too_long + m.rejected_drained +
                  m.expired_deadline + m.requests_lost,
              n);
    EXPECT_GT(m.redispatch_picks, 0);
    EXPECT_LE(m.redispatch_picks, (options.max_retries + 2) * n)
        << "n=" << n;
}

TEST(Scale, TotalOutageRedispatchIsLinear)
{
    serving::TraceOptions trace = faultTrace(scaleRequests());
    double span = traceSpanMs(trace);
    serving::FleetOptions options =
        scaleFleet(serving::MetricsOptions::KeepRecords::Never);
    addOnEveryReplica(options, 0.2 * span, serving::FaultKind::Crash);
    addOnEveryReplica(options, 0.5 * span,
                      serving::FaultKind::Recover);
    expectLinearRedispatch(trace, options);
}

TEST(Scale, LongDrainRedispatchIsLinear)
{
    serving::TraceOptions trace = faultTrace(scaleRequests());
    double span = traceSpanMs(trace);
    serving::FleetOptions options =
        scaleFleet(serving::MetricsOptions::KeepRecords::Never);
    addOnEveryReplica(options, 0.2 * span,
                      serving::FaultKind::DrainStart);
    addOnEveryReplica(options, 0.5 * span,
                      serving::FaultKind::DrainEnd);
    expectLinearRedispatch(trace, options);
}

TEST(Scale, RetryStormRedispatchIsLinear)
{
    // Twenty cycles over the middle of the trace: every replica
    // crashes at once, then they recover one by one, so each cycle
    // is a short total outage followed by partial capacity, and
    // the backlog each recovery routes is evacuated again by the
    // next crash. Requests burn their retry attempts
    // (max_retries = 3, exponential backoff) until they finish,
    // are lost, or pass their deadline parked or queued.
    serving::TraceOptions trace = faultTrace(scaleRequests());
    double span = traceSpanMs(trace);
    trace.deadline_slack_ms = 0.1 * span;
    serving::FleetOptions options =
        scaleFleet(serving::MetricsOptions::KeepRecords::Never);
    options.max_retries = 3;
    options.retry_backoff_ms = 5.0;
    options.retry_backoff_factor = 2.0;
    for (int cycle = 0; cycle < 20; ++cycle) {
        double start = (0.2 + 0.03 * cycle) * span;
        addOnEveryReplica(options, start, serving::FaultKind::Crash);
        for (int r = 0; r < options.num_replicas; ++r)
            options.faults.events.push_back(
                {start + (0.01 + 0.003 * r) * span, r,
                 serving::FaultKind::Recover, 1.0});
    }
    expectLinearRedispatch(trace, options);
}

} // namespace
