/**
 * @file
 * Million-request sweep micro-benchmarks (google-benchmark): the
 * scale harness this repo's serving experiments sweep with. The
 * headline benchmark serves one million Poisson requests through a
 * four-replica fleet on the analytic cost model with streaming
 * metrics (no per-request records), and reports wall-clock
 * requests/s plus the simulated quality counters (p99 from the
 * sketch) and the process peak RSS — the numbers behind the
 * "Million-request sweeps" table in the README. The smaller
 * variants time the fleet event loop on calm traffic and through
 * a total outage.
 */

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/trace.h"

using namespace streamtensor;

namespace {

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // ru_maxrss is KiB on Linux.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

serving::TraceOptions
sweepTrace(int64_t num_requests)
{
    serving::TraceOptions options;
    options.num_requests = num_requests;
    options.seed = 42;
    // ~85% of the 4-replica fleet's measured service rate: heavy
    // queueing (a real tail to estimate) without divergence.
    options.mean_interarrival_ms = 2.5;
    options.min_input_len = 4;
    options.max_input_len = 64;
    options.min_output_len = 1;
    options.max_output_len = 16;
    return options;
}

/** @p outage crashes every replica at 20% of the trace span and
 *  recovers it at 50%: a total outage that parks every arrival in
 *  between in the fleet's retry buffer. */
serving::FleetOptions
sweepFleet(const serving::TraceOptions &trace, bool outage)
{
    serving::FleetOptions options;
    options.num_replicas = 4;
    options.replica.max_batch = 8;
    options.replica.kv_budget_tokens = 4096;
    options.replica.max_steps =
        std::numeric_limits<int64_t>::max();
    // Streaming metrics: the whole point of the sweep harness is
    // O(sketch) memory at millions of requests.
    options.replica.metrics.keep_records =
        serving::MetricsOptions::KeepRecords::Never;
    if (outage) {
        double span = static_cast<double>(trace.num_requests) *
                      trace.mean_interarrival_ms;
        for (int r = 0; r < options.num_replicas; ++r) {
            options.faults.events.push_back(
                {0.2 * span, r, serving::FaultKind::Crash, 1.0});
            options.faults.events.push_back(
                {0.5 * span, r, serving::FaultKind::Recover, 1.0});
        }
    }
    return options;
}

serving::FleetResult
runSweep(int64_t num_requests, bool outage = false)
{
    serving::TraceOptions options = sweepTrace(num_requests);
    serving::TraceGenerator trace(serving::TraceShape::Poisson,
                                  options);
    serving::AnalyticCostModel cost;
    serving::FleetScheduler fleet(
        sweepFleet(options, outage), cost);
    return fleet.run(trace);
}

/** The headline: 1M requests, streaming metrics. */
void
BM_ServeMillionRequestSweep(benchmark::State &state)
{
    int64_t num_requests = state.range(0);
    serving::FleetResult result;
    for (auto _ : state)
        result = runSweep(num_requests);
    const serving::FleetMetrics &m = result.metrics;
    state.counters["wall_req_per_s"] = benchmark::Counter(
        static_cast<double>(num_requests) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["sim_req_per_s"] = m.servedRequestsPerSecond();
    state.counters["completed"] =
        static_cast<double>(m.completed);
    state.counters["p99_ms"] = m.latencyPercentileMs(99.0);
    state.counters["sketch_items"] =
        static_cast<double>(m.latency_sketch.retainedItems());
    state.counters["peak_rss_mb"] = peakRssMb();
}
BENCHMARK(BM_ServeMillionRequestSweep)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/** The fleet event loop on calm traffic and through a total
 *  outage (args: requests, outage). The outage shape is the
 *  regression guard for the retry buffer: parked requests cost
 *  nothing per round until a replica is eligible again, so it
 *  stays linear in trace length (its redispatch_picks counter is
 *  at most the number of parks). */
void
BM_SweepFleet(benchmark::State &state)
{
    int64_t num_requests = state.range(0);
    bool outage = state.range(1) != 0;
    serving::FleetResult result;
    for (auto _ : state)
        result = runSweep(num_requests, outage);
    state.counters["completed"] =
        static_cast<double>(result.metrics.completed);
    state.counters["redispatch_picks"] =
        static_cast<double>(result.metrics.redispatch_picks);
}
BENCHMARK(BM_SweepFleet)
    ->Args({20000, 0})
    ->Args({100000, 0})
    ->Args({20000, 1})
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
