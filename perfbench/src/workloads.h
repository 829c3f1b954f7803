/**
 * @file
 * The benchmark's workloads and metric catalogue. Each workload
 * alternates a set-up sample with an untraced repetition of its
 * timed phase until the run's time is spent (setup_s is the median
 * per-set-up time, build_s the interquartile mean repetition, both
 * divided by the machine's slowdown probed around each sample, see
 * calibrate.h; simulated metrics are checked bit-identical across
 * repetitions), and — for a traced run — sets
 * up and runs once more with spans recorded and the program's own
 * recording surfaces switched on, from which the per-layer metrics
 * come. NOTES.md explains why each workload exists and which layers
 * it bypasses.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "context.h"

namespace perfbench {

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** A metric the benchmark declares: name and unit. */
struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** End-to-end metrics, printed by untraced runs. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Per-layer metrics, printed by traced runs. */
const std::vector<MetricSpec> &perLayerMetrics();

/** Workload names, in declaration order. */
std::vector<std::string> workloadNames();

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Where a traced run writes its spans (empty: nowhere). */
    std::string spans_path;

    MachineContext context;
};

struct Outcome
{
    /** Every output check passed. */
    bool correct = true;

    /** Failed checks, one line each. */
    std::vector<std::string> failures;

    /** Operations attempted and failed across the whole run:
     *  requests for the serving workloads, blocks built plus
     *  requests run for the model-zoo build. */
    int64_t attempted = 0;
    int64_t failed = 0;

    /** End-to-end metrics (untraced) or per-layer metrics
     *  (traced), in catalogue order. */
    std::vector<Metric> metrics;

    /** The machine context, with whether this run was pinned. */
    MachineContext context;

    /** Human-readable lines printed before the result. */
    std::vector<std::string> notes;
};

/** Run @p options.workload. Fatal on an unknown workload. */
Outcome runWorkload(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
