/** @file Differential suite for the fleet's event loop: over 100
 *  seeded (trace, fleet-config, fault-plan) scenarios, serving a
 *  TraceGenerator must reproduce serving the materialized vector
 *  of the same generator bit-for-bit, a scheduler serving a
 *  scenario twice, or two schedulers serving it on concurrent
 *  threads, must reproduce a single serial run bit-for-bit, and
 *  every run must reproduce the recorded golden digest of its
 *  scenario. "Bit-for-bit" is
 *  checked on every observable: merged request records,
 *  per-replica step records, rejection and loss logs, every
 *  aggregate counter, the makespan, and the streaming latency
 *  sketch's quantiles. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <ios>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/trace.h"
#include "testing/fleet_golden_digests.h"

using namespace streamtensor;
using serving::Request;

namespace {

/** Seed-derived scenario shared by every comparison: varied fleet
 *  shape, balancer, retry budget, deadlines on a fifth of the
 *  seeds, and a dense fault plan (crashes, slowdowns, drains). */
struct Scenario
{
    serving::TraceOptions trace;
    serving::TraceShape shape = serving::TraceShape::Poisson;
    serving::FleetOptions fleet;
};

Scenario
makeScenario(uint64_t seed, bool with_faults)
{
    Scenario s;
    s.shape = seed % 2 == 0 ? serving::TraceShape::Poisson
                            : serving::TraceShape::Bursty;
    s.trace.seed = seed;
    s.trace.num_requests = 32 + static_cast<int64_t>(seed % 33);
    s.trace.mean_interarrival_ms =
        1.0 + static_cast<double>(seed % 5);
    s.trace.min_input_len = 4;
    s.trace.max_input_len = 96;
    s.trace.min_output_len = 1;
    s.trace.max_output_len = 20;
    s.trace.num_priorities = 1 + static_cast<int>(seed % 2);
    if (seed % 3 == 0) {
        s.trace.num_prefix_groups = 2;
        s.trace.shared_prefix_len = 16;
    }
    if (seed % 5 == 0) {
        s.trace.deadline_slack_ms =
            150.0 + 50.0 * static_cast<double>(seed % 4);
    }

    s.fleet.num_replicas = 2 + static_cast<int>(seed % 3);
    s.fleet.replica.max_batch = 2 + static_cast<int64_t>(seed % 5);
    s.fleet.replica.kv_budget_tokens =
        192 + 64 * static_cast<int64_t>(seed % 9);
    s.fleet.replica.max_queue_depth =
        seed % 4 == 0 ? 8 + static_cast<int64_t>(seed % 9) : 0;
    s.fleet.replica.record_steps = true;
    s.fleet.balancer = static_cast<serving::LbPolicy>(seed % 3);
    s.fleet.max_retries = 1 + static_cast<int64_t>(seed % 3);
    s.fleet.retry_backoff_ms = 1.0 + static_cast<double>(seed % 4);
    // A third of the seeds drop records mid-run so the comparison
    // also covers the streaming-sketch path.
    if (seed % 3 == 1) {
        s.fleet.replica.metrics.keep_records =
            serving::MetricsOptions::KeepRecords::Auto;
        s.fleet.replica.metrics.auto_record_limit =
            static_cast<int64_t>(seed % 7);
    }

    if (with_faults) {
        serving::SeededFaultOptions fault_options;
        fault_options.seed = seed * 7 + 1;
        fault_options.num_replicas = s.fleet.num_replicas;
        fault_options.horizon_ms = 400.0;
        fault_options.crash_prob = 0.6;
        fault_options.slow_prob = 0.5;
        fault_options.drain_prob = 0.35;
        s.fleet.faults = serving::seededFaultPlan(fault_options);
        // A quarter of the seeds charge recoveries a weight
        // reload; a sixth also hot-swap a replica mid-run, so the
        // digests cover the reload event type too.
        if (seed % 4 == 1)
            s.fleet.recovery_reload_ms =
                20.0 + 10.0 * static_cast<double>(seed % 5);
        if (seed % 6 == 2)
            s.fleet.faults.events.push_back(
                {150.0, static_cast<int>(seed) %
                            s.fleet.num_replicas,
                 serving::FaultKind::Swap, 1.0});
    }
    return s;
}

std::vector<Request>
materialize(const Scenario &s)
{
    return s.shape == serving::TraceShape::Poisson
               ? serving::poissonTrace(s.trace)
               : serving::burstyTrace(s.trace);
}

serving::FleetResult
runScenario(const Scenario &s, bool via_generator)
{
    serving::AnalyticCostModel cost;
    serving::FleetScheduler fleet(s.fleet, cost);
    if (via_generator) {
        serving::TraceGenerator gen(s.shape, s.trace);
        return fleet.run(gen);
    }
    return fleet.run(materialize(s));
}

/** One observable of a fleet run, flattened to its bit pattern:
 *  @p field names it (with @p index inside a record list) so a
 *  mismatch reports where the runs diverged. */
struct Observable
{
    const char *field;
    size_t index;
    uint64_t bits;

    bool operator==(const Observable &o) const
    {
        return std::string_view(field) == o.field &&
               index == o.index && bits == o.bits;
    }
};

uint64_t
bitsOf(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

void
addRequests(std::vector<Observable> &out, const char *field,
            const std::vector<serving::RequestMetrics> &records)
{
    out.push_back({field, 0, records.size()});
    for (size_t i = 0; i < records.size(); ++i) {
        const serving::RequestMetrics &r = records[i];
        for (int64_t v : {r.id, r.output_len, r.preemptions,
                          r.failovers,
                          static_cast<int64_t>(r.replica)})
            out.push_back({field, i, static_cast<uint64_t>(v)});
        for (double v : {r.arrival_ms, r.first_token_ms,
                         r.finish_ms})
            out.push_back({field, i, bitsOf(v)});
    }
}

void
addIds(std::vector<Observable> &out, const char *field, size_t index,
       const std::vector<int64_t> &ids)
{
    out.push_back({field, index, ids.size()});
    for (int64_t id : ids)
        out.push_back({field, index, static_cast<uint64_t>(id)});
}

/** Every observable of a run, in a fixed order: the aggregate
 *  counters, makespan and per-replica up-time, the latency
 *  sketch's count and quantiles, the merged request records, the
 *  rejection and loss logs, the step-limit flag, and each
 *  replica's step records and request records. Complexity
 *  counters (redispatch_picks) are deliberately absent: they
 *  measure how much work a run did, not what it served, and are
 *  compared separately. */
std::vector<Observable>
observables(const serving::FleetResult &res)
{
    const serving::FleetMetrics &m = res.metrics;
    std::vector<Observable> out;
    auto count = [&](const char *field, int64_t v) {
        out.push_back({field, 0, static_cast<uint64_t>(v)});
    };
    auto real = [&](const char *field, size_t index, double v) {
        out.push_back({field, index, bitsOf(v)});
    };
    count("completed", m.completed);
    count("rejected_queue_full", m.rejected_queue_full);
    count("rejected_too_long", m.rejected_too_long);
    count("expired_deadline", m.expired_deadline);
    count("rejected_drained", m.rejected_drained);
    count("deadline_misses", m.deadline_misses);
    count("requests_lost", m.requests_lost);
    count("failovers", m.failovers);
    count("crashes", m.crashes);
    count("recoveries", m.recoveries);
    count("drains", m.drains);
    count("degrades", m.degrades);
    count("swaps", m.swaps);
    count("reloads", m.reloads);
    real("reload_ms_total", 0, m.reload_ms_total);
    real("weight_stall_ms", 0, m.weight_stall_ms);
    count("slowdowns", m.slowdowns);
    count("aborted_steps", m.aborted_steps);
    count("preemptions", m.preemptions);
    count("total_output_tokens", m.total_output_tokens);
    count("steps", m.steps);
    real("makespan_ms", 0, m.makespan_ms);
    count("replica_up_ms.size", static_cast<int64_t>(
                                    m.replica_up_ms.size()));
    for (size_t i = 0; i < m.replica_up_ms.size(); ++i)
        real("replica_up_ms", i, m.replica_up_ms[i]);
    count("records_complete", m.records_complete);
    count("latency_sketch.count", m.latency_sketch.count());
    for (double p : {50.0, 90.0, 99.0, 100.0}) {
        std::optional<double> q = m.latency_sketch.quantile(p);
        count("latency_sketch.has_quantile", q.has_value());
        real("latency_sketch.quantile", 0, q.value_or(0.0));
    }

    addRequests(out, "requests", m.requests);

    count("rejected.size", static_cast<int64_t>(res.rejected.size()));
    for (size_t i = 0; i < res.rejected.size(); ++i) {
        const serving::RejectedRequest &r = res.rejected[i];
        out.push_back({"rejected.id", i, static_cast<uint64_t>(r.id)});
        out.push_back({"rejected.reason", i,
                       static_cast<uint64_t>(r.reason)});
        real("rejected.at_ms", i, r.at_ms);
    }
    count("lost.size", static_cast<int64_t>(res.lost.size()));
    for (size_t i = 0; i < res.lost.size(); ++i) {
        const serving::LostRequest &l = res.lost[i];
        out.push_back({"lost.id", i, static_cast<uint64_t>(l.id)});
        real("lost.at_ms", i, l.at_ms);
        out.push_back({"lost.attempts", i,
                       static_cast<uint64_t>(l.attempts)});
    }

    count("hit_step_limit", res.hit_step_limit);
    count("replicas.size", static_cast<int64_t>(res.replicas.size()));
    for (const serving::ServingResult &replica : res.replicas) {
        count("steps.size",
              static_cast<int64_t>(replica.steps.size()));
        for (size_t i = 0; i < replica.steps.size(); ++i) {
            const serving::StepRecord &st = replica.steps[i];
            addIds(out, "steps.prefill_ids", i, st.prefill_ids);
            addIds(out, "steps.decode_ids", i, st.decode_ids);
            real("steps.start_ms", i, st.start_ms);
            real("steps.step_ms", i, st.step_ms);
        }
        addRequests(out, "replica.requests",
                    replica.metrics.requests);
    }
    return out;
}

/** FNV-1a over the observables' bit patterns: one 64-bit value
 *  that pins a whole run. */
uint64_t
digest(const serving::FleetResult &res)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const Observable &o : observables(res))
        for (int shift = 0; shift < 64; shift += 8) {
            h ^= (o.bits >> shift) & 0xffu;
            h *= 0x100000001b3ull;
        }
    return h;
}

/** Every observable of the two results must match exactly —
 *  bit patterns deliberately: the contract is bit-identical, not
 *  approximately equal. */
void
expectSameResult(const serving::FleetResult &a,
                 const serving::FleetResult &b)
{
    std::vector<Observable> oa = observables(a);
    std::vector<Observable> ob = observables(b);
    auto [ia, ib] = std::mismatch(oa.begin(), oa.end(), ob.begin(),
                                  ob.end());
    if (ia != oa.end() || ib != ob.end()) {
        const Observable &o = ia != oa.end() ? *ia : *ib;
        ADD_FAILURE() << "runs diverge at " << o.field << "["
                      << o.index << "]";
    }
    EXPECT_EQ(a.metrics.redispatch_picks, b.metrics.redispatch_picks);
}

class FleetDifferential : public ::testing::TestWithParam<uint64_t>
{};

/* The Heap/Legacy/ParallelStepping test names date from when the
 * fleet had two event cores (a heap core and the per-round scan)
 * and a replica-stepping thread pool. The names are kept so the
 * case IDs stay stable; each test now checks the property of the
 * single core documented on it. */

/** One scheduler serving the same faulted scenario twice gives
 *  bit-identical runs: a run leaves no state behind in the
 *  scheduler or in the cost model it shares with the next run. */
TEST_P(FleetDifferential, HeapMatchesLegacyUnderFaults)
{
    Scenario s = makeScenario(GetParam(), true);
    serving::AnalyticCostModel cost;
    serving::FleetScheduler fleet(s.fleet, cost);
    serving::FleetResult first = fleet.run(materialize(s));
    expectSameResult(first, fleet.run(materialize(s)));
}

/** Serving the lazy generator matches serving its materialized
 *  vector on calm traffic too (GeneratorMatchesVector covers the
 *  faulted scenarios). */
TEST_P(FleetDifferential, HeapMatchesLegacyCalm)
{
    Scenario s = makeScenario(GetParam(), false);
    expectSameResult(runScenario(s, false), runScenario(s, true));
}

/** Fleet runs share no mutable state across schedulers: two
 *  schedulers serving the faulted scenario on concurrent threads,
 *  each with its own cost model, both reproduce the serial run. */
TEST_P(FleetDifferential, ParallelSteppingMatchesSerial)
{
    Scenario s = makeScenario(GetParam(), true);
    serving::FleetResult serial = runScenario(s, false);
    std::optional<serving::FleetResult> parallel[2];
    {
        std::thread a([&] { parallel[0] = runScenario(s, false); });
        std::thread b([&] { parallel[1] = runScenario(s, true); });
        a.join();
        b.join();
    }
    expectSameResult(serial, *parallel[0]);
    expectSameResult(serial, *parallel[1]);
}

TEST_P(FleetDifferential, GeneratorMatchesVector)
{
    Scenario s = makeScenario(GetParam(), true);
    expectSameResult(runScenario(s, false), runScenario(s, true));
}

/** The fleet still serves exactly what it served before the
 *  retry-buffer redispatch was made linear: the per-seed digests
 *  in testing/fleet_golden_digests.h were recorded from that
 *  code. */
void
expectGoldenDigests(uint64_t seed, bool via_generator)
{
    for (bool with_faults : {true, false}) {
        uint64_t observed = digest(runScenario(
            makeScenario(seed, with_faults), via_generator));
        EXPECT_EQ(observed,
                  kFleetGoldenDigests[seed][with_faults ? 0 : 1])
            << "seed " << seed << " faults=" << with_faults
            << " observed 0x" << std::hex << observed;
    }
}

/** Serving through the TraceGenerator (the million-request sweep
 *  entry point) reproduces every recorded digest. */
TEST_P(FleetDifferential, HeapReproducesGoldenDigests)
{
    expectGoldenDigests(GetParam(), true);
}

/** Serving the materialized trace vector reproduces every
 *  recorded digest. */
TEST_P(FleetDifferential, LegacyReproducesGoldenDigests)
{
    expectGoldenDigests(GetParam(), false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetDifferential,
                         ::testing::Range<uint64_t>(0, 100));

} // namespace
