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
 * paired variants measure the event cores against each other
 * (Heap vs LegacyScan), on calm traffic and through a total
 * outage, and serial vs parallel replica stepping.
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
sweepFleet(serving::FleetEventCore core, int64_t step_threads,
           const serving::TraceOptions &trace, bool outage)
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
    options.event_core = core;
    options.step_threads = step_threads;
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
runSweep(int64_t num_requests, serving::FleetEventCore core,
         int64_t step_threads, bool outage = false)
{
    serving::TraceOptions options = sweepTrace(num_requests);
    serving::TraceGenerator trace(serving::TraceShape::Poisson,
                                  options);
    serving::AnalyticCostModel cost;
    serving::FleetScheduler fleet(
        sweepFleet(core, step_threads, options, outage), cost);
    return fleet.run(trace);
}

/** The headline: 1M requests, heap core, streaming metrics. */
void
BM_ServeMillionRequestSweep(benchmark::State &state)
{
    int64_t num_requests = state.range(0);
    serving::FleetResult result;
    for (auto _ : state)
        result = runSweep(num_requests,
                          serving::FleetEventCore::Heap, 1);
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

/** Event cores head to head, on calm traffic and through a total
 *  outage (args: core, requests, outage). Both cores run the same
 *  phases and differ only in how they find the next instant, so
 *  they measure within noise of each other in both shapes. The
 *  outage shape is the regression guard for the retry buffer:
 *  parked requests cost nothing per round until a replica is
 *  eligible again, so it stays linear in trace length on either
 *  core (its redispatch_picks counter is at most the number of
 *  parks). The calm pairing keeps the default core's constant
 *  factors honest against the oracle's wall clock. */
void
BM_SweepEventCore(benchmark::State &state)
{
    auto core =
        static_cast<serving::FleetEventCore>(state.range(0));
    int64_t num_requests = state.range(1);
    bool outage = state.range(2) != 0;
    serving::FleetResult result;
    for (auto _ : state)
        result = runSweep(num_requests, core, 1, outage);
    state.counters["completed"] =
        static_cast<double>(result.metrics.completed);
    state.counters["redispatch_picks"] =
        static_cast<double>(result.metrics.redispatch_picks);
}
BENCHMARK(BM_SweepEventCore)
    ->ArgsProduct(
        {{static_cast<int64_t>(serving::FleetEventCore::Heap),
          static_cast<int64_t>(
              serving::FleetEventCore::LegacyScan)},
         {20000, 100000},
         {0}})
    ->Args({static_cast<int64_t>(serving::FleetEventCore::Heap),
            20000, 1})
    ->Args({static_cast<int64_t>(
                serving::FleetEventCore::LegacyScan),
            20000, 1})
    ->Unit(benchmark::kMillisecond);

/** Serial vs parallel replica stepping on the heap core. Results
 *  are bit-identical by contract; only the wall clock moves. On
 *  the analytic model a step costs microseconds, so this measures
 *  the pool-dispatch overhead envelope — the knob pays off only
 *  with heavyweight concurrentSafe() cost oracles. */
void
BM_SweepStepThreads(benchmark::State &state)
{
    int64_t threads = state.range(0);
    serving::FleetResult result;
    for (auto _ : state)
        result = runSweep(200000,
                          serving::FleetEventCore::Heap, threads);
    state.counters["completed"] =
        static_cast<double>(result.metrics.completed);
}
BENCHMARK(BM_SweepStepThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
