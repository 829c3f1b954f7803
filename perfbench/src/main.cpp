/**
 * @file
 * The benchmark binary:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s>
 *             --trace <0|1> [--spans <path>]
 *
 * Prints human-readable detail, a machine-context line, and as its
 * last line one JSON object {"correct", "attempted", "failed",
 * "metrics"}: the end-to-end metrics untraced, the per-layer
 * metrics traced. Usually run through run.py, which builds it.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "context.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <path>]\nworkloads:",
                 why);
    for (const auto &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

/** Shortest text that reads back as exactly @p v. */
std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    bool have_workload = false, have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end && *end == '\0' && !value.empty();
        } else if (key == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (!end || *end != '\0' || !(options.seconds > 0.0))
                return usage("--seconds must be a positive number");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            options.trace = value == "1";
        } else if (key == "--spans") {
            options.spans_path = value;
        } else {
            return usage(("unknown argument " + key).c_str());
        }
    }
    if (argc % 2 != 1)
        return usage("arguments come in --key value pairs");
    if (!have_workload || !have_seed)
        return usage("--workload and --seed are required");
    bool known = false;
    for (const auto &w : workloadNames())
        known = known || w == options.workload;
    if (!known)
        return usage(("unknown workload " + options.workload).c_str());

    options.context = describeMachine();

    Outcome out;
    try {
        out = runWorkload(options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    for (const auto &line : out.notes)
        std::printf("%s\n", line.c_str());
    for (const auto &line : out.failures)
        std::printf("CHECK FAILED: %s\n", line.c_str());
    std::printf("{\"context\": %s}\n",
                contextJson(out.context).c_str());

    std::string json = "{\"correct\": ";
    json += out.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: %s is not finite\n",
                         m.name.c_str());
            return 1;
        }
        json += i ? ", " : "";
        json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
