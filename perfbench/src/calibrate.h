/**
 * @file
 * How fast the machine runs right now. On a shared host, other
 * tenants contend for each core's caches, and the program's host
 * times swing by a quarter within seconds and between runs. A fixed
 * reference workload, which uses none of the repository's code and
 * touches memory the way the program does (a binary heap of events,
 * a hash table, a sort), slows down with it. The benchmark times the
 * reference on the same CPUs right before and after each timed
 * sample and divides the sample by the slowdown it measured.
 */

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

#include <cstdint>

namespace perfbench {

/** Seconds one referenceWork() call takes at the reference speed:
 *  its fast, uncontended time on a 4-vCPU Intel Xeon VM at 2.1 GHz.
 *  Host times divided by the slowdown read as seconds on that
 *  machine when nothing else contends for it. */
constexpr double kReferenceSeconds = 0.8e-3;

/** The reference workload, once. Deterministic; returns a checksum
 *  that depends on all of its work. */
uint64_t referenceWork();

/** The median time of @p calls referenceWork() calls on the calling
 *  thread, over kReferenceSeconds. */
double referenceSlowdown(int calls);

/** @p seconds, timed between two probes that read @p before and
 *  @p after, at the reference speed: divided by the geometric mean
 *  of the two slowdowns. */
double atReferenceSpeed(double seconds, double before, double after);

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H
