/**
 * @file
 * Self-test of the benchmark's own arithmetic on hand-computed
 * inputs: the nearest-rank percentile rule, the median,
 * interquartile and geometric means, SLO counting (failed requests
 * are misses), span self time, and scaling host times to the
 * reference speed. Exits non-zero on the first wrong answer.
 *
 *   python3 perfbench/run.py --selftest
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "calibrate.h"
#include "stats.h"
#include "support/error.h"
#include "trace.h"

using namespace perfbench;

namespace {

int failures = 0;

void
expectNear(double got, double want, const std::string &what)
{
    if (std::abs(got - want) <= 1e-12 * std::max(1.0, std::abs(want)))
        return;
    std::printf("FAIL %s: got %.17g, want %.17g\n", what.c_str(), got,
                want);
    ++failures;
}

template <typename F>
void
expectThrows(F f, const std::string &what)
{
    try {
        f();
    } catch (const streamtensor::FatalError &) {
        return;
    }
    std::printf("FAIL %s: no error raised\n", what.c_str());
    ++failures;
}

void
testPercentile()
{
    // Ranks: ceil(p/100 * n), clamped to [1, n].
    std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    expectNear(percentileNearestRank(ten, 0.0), 1, "p0 is the minimum");
    expectNear(percentileNearestRank(ten, 10.0), 1, "p10 of 10: rank 1");
    expectNear(percentileNearestRank(ten, 11.0), 2, "p11 of 10: rank 2");
    expectNear(percentileNearestRank(ten, 50.0), 5, "p50 of 10: rank 5");
    expectNear(percentileNearestRank(ten, 99.0), 10,
               "p99 of 10: rank 10");
    expectNear(percentileNearestRank(ten, 100.0), 10,
               "p100 is the maximum");
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    expectNear(percentileNearestRank(hundred, 99.0), 99,
               "p99 of 1..100: rank 99");
    expectNear(percentileNearestRank(hundred, 99.5), 100,
               "p99.5 of 1..100: rank 100");
    expectNear(percentileNearestRank({7.5}, 50.0), 7.5,
               "one sample is every percentile");
    expectThrows([] { percentileNearestRank({}, 50.0); },
                 "empty percentile");
    expectThrows([] { percentileNearestRank({1.0}, 101.0); },
                 "percentile above 100");
}

void
testSummaries()
{
    expectNear(median({3, 1, 2}), 2, "odd median");
    expectNear(median({4, 1, 3, 2}), 2.5, "even median");
    expectNear(interquartileMean({5, 1, 3}), 3, "IQM keeps three values");
    // 8 values: drop 2 from each end, mean of {3, 4, 5, 6}.
    expectNear(interquartileMean({8, 1, 7, 2, 6, 3, 5, 4}), 4.5,
               "IQM of eight values");
    expectNear(interquartileMean({1, 1, 1, 100}), 1,
               "IQM drops the outlier");
    expectNear(geoMean({1, 4, 16}), 4, "geometric mean");
    expectThrows([] { geoMean({1.0, 0.0}); }, "geomean of zero");
}

void
testSlo()
{
    SloLimits limits{100.0, 10.0};
    std::vector<SloSample> samples = {
        {true, 100.0, 10.0}, // on both limits: met
        {true, 100.5, 1.0},  // TTFT over
        {true, 1.0, 10.5},   // TBT over
        {false, 1.0, 1.0},   // never completed: a miss
        {true, 0.0, 0.0},    // met
    };
    expectNear(static_cast<double>(sloMet(samples, limits)), 2,
               "requests within both limits");
    // Two more were attempted and refused without a sample.
    expectNear(sloAttainment(sloMet(samples, limits), 7), 2.0 / 7.0,
               "refused requests count as misses");
    expectThrows([] { sloAttainment(3, 2); }, "met above attempted");
    expectThrows([] { sloAttainment(0, 0); }, "no attempts");
}

void
testSelfTime()
{
    // root [0, 10] with children a [1, 4] and b [5, 9]; a has a
    // child c [2, 3]. Self: root 10-3-4 = 3, a 3-1 = 2, b 4, c 1.
    SpanRecorder rec("sim");
    int32_t n = rec.intern("x");
    int64_t root = rec.add(n, 0, 10, -1);
    int64_t a = rec.add(n, 1, 4, root);
    int64_t b = rec.add(n, 5, 9, root);
    int64_t c = rec.add(n, 2, 3, a);
    std::vector<double> self = rec.selfTimes();
    expectNear(self[static_cast<size_t>(root)], 3, "root self time");
    expectNear(self[static_cast<size_t>(a)], 2, "inner self time");
    expectNear(self[static_cast<size_t>(b)], 4, "leaf self time");
    expectNear(self[static_cast<size_t>(c)], 1, "nested leaf self time");
    double sum = 0.0;
    for (double s : self)
        sum += s;
    expectNear(sum, 10, "self times tile the root");
    expectNear(rec.selfByName().at("x"), 10, "self time by name");
    expectThrows([&] { rec.add(n, 2, 1, root); },
                 "span ending before it starts");

    // Host spans nest through open/close.
    SpanRecorder host("host");
    int64_t outer = host.open("outer");
    int64_t inner = host.open("inner");
    expectNear(static_cast<double>(host.current()),
               static_cast<double>(inner), "innermost open span");
    expectThrows([&] { host.close(outer); }, "closing out of order");
    host.close(inner);
    host.close(outer);
    expectNear(static_cast<double>(host.spans()[static_cast<size_t>(inner)]
                                       .parent),
               static_cast<double>(outer), "open() parents to the "
                                           "innermost span");
}

void
testReferenceSpeed()
{
    // Divided by the geometric mean of the two probes' slowdowns.
    expectNear(atReferenceSpeed(3.0, 1.0, 2.25), 2.0,
               "3 s between slowdowns 1 and 2.25");
    expectNear(atReferenceSpeed(0.5, 1.0, 1.0), 0.5,
               "an unslowed machine reads as measured");
    expectNear(static_cast<double>(referenceWork()),
               static_cast<double>(referenceWork()),
               "the reference workload is deterministic");
    if (!(referenceSlowdown(3) > 0.0)) {
        std::printf("FAIL a probe read no time\n");
        ++failures;
    }
}

} // namespace

int
main()
{
    testPercentile();
    testSummaries();
    testSlo();
    testSelfTime();
    testReferenceSpeed();
    if (failures == 0)
        std::printf("perfbench self-test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
