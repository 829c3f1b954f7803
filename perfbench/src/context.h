/**
 * @file
 * Machine context recorded next to every result — processor count,
 * build type, compiler, CPU model, the CPUs the run may use and
 * whether each phase was pinned to them one at a time — so host timings
 * from different machines or builds are never compared silently.
 * Also CPU pinning and the process's peak resident set.
 */

#ifndef PERFBENCH_CONTEXT_H
#define PERFBENCH_CONTEXT_H

#include <string>
#include <vector>

namespace perfbench {

struct MachineContext
{
    int nproc = 0;       ///< CPUs this process may run on
    int online_cpus = 0; ///< CPUs online in the machine
    std::string cpu_model;
    std::string build_type;
    std::string compiler;

    /** CPUs this process may run on. */
    std::vector<int> allowed_cpus;

    /** Set-up, and the timed phase, ran with all threads on one
     *  of allowed_cpus at a time (see pinAllThreads); otherwise on
     *  all of them. */
    bool pinned_setup = false;
    bool pinned_timed = false;
};

/** Describe the machine and the CPUs this process may run on. */
MachineContext describeMachine();

/** Restrict every thread of this process to @p cpus. Threads
 *  created later inherit the creating thread's mask. Returns false
 *  when a thread could not be moved. */
bool pinAllThreads(const std::vector<int> &cpus);

/** One-line JSON object of @p context. */
std::string contextJson(const MachineContext &context);

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_CONTEXT_H
