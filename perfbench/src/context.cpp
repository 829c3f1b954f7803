#include "context.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    const std::string key = "model name";
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) != 0)
            continue;
        auto colon = line.find(':');
        if (colon == std::string::npos)
            break;
        auto begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
    }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

} // namespace

MachineContext
describeMachine()
{
    MachineContext ctx;
    ctx.online_cpus = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    ctx.cpu_model = cpuModel();
    ctx.build_type = PERFBENCH_BUILD_TYPE;
    ctx.compiler = PERFBENCH_COMPILER;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &mask))
                ctx.allowed_cpus.push_back(cpu);
    ctx.nproc = static_cast<int>(ctx.allowed_cpus.size());
    return ctx;
}

bool
pinAllThreads(const std::vector<int> &cpus)
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (int cpu : cpus)
        CPU_SET(cpu, &mask);
    DIR *dir = opendir("/proc/self/task");
    if (!dir)
        return false;
    bool ok = true;
    while (struct dirent *entry = readdir(dir)) {
        char *end = nullptr;
        long tid = std::strtol(entry->d_name, &end, 10);
        if (end == entry->d_name || *end != '\0')
            continue; // "." and ".."
        ok = sched_setaffinity(static_cast<pid_t>(tid), sizeof(mask),
                               &mask) == 0 &&
             ok;
    }
    closedir(dir);
    return ok;
}

std::string
contextJson(const MachineContext &ctx)
{
    std::string cpus;
    for (int cpu : ctx.allowed_cpus)
        cpus += (cpus.empty() ? "" : ", ") + std::to_string(cpu);
    char buf[768];
    std::snprintf(buf, sizeof(buf),
                  "{\"nproc\": %d, \"online_cpus\": %d, "
                  "\"cpu_model\": \"%s\", \"build_type\": \"%s\", "
                  "\"compiler\": \"%s\", \"pinned_setup\": %s, "
                  "\"pinned_timed\": %s, "
                  "\"cpus\": [%s]}",
                  ctx.nproc, ctx.online_cpus,
                  jsonEscape(ctx.cpu_model).c_str(),
                  jsonEscape(ctx.build_type).c_str(),
                  jsonEscape(ctx.compiler).c_str(),
                  ctx.pinned_setup ? "true" : "false",
                  ctx.pinned_timed ? "true" : "false", cpus.c_str());
    return buf;
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // ru_maxrss is KiB on Linux.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
