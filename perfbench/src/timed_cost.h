/**
 * @file
 * Timing decorator for serving::StepCostModel: wraps the cost
 * oracle a fleet is built with, forwards every call (and
 * concurrentSafe(), so the fleet takes the same paths with and
 * without it), and records one host span per call as a child of
 * the innermost open span, plus the simulated cost each call
 * returned. When the wrapped oracle is an ExecutorCostModel, each
 * call's crossing-attributed stall is recorded too.
 *
 * The recorder is single-threaded, so the decorator checks that
 * every call arrives on the thread that built it; the benchmark
 * runs its fleets with step_threads = 1.
 */

#ifndef PERFBENCH_TIMED_COST_H
#define PERFBENCH_TIMED_COST_H

#include <thread>
#include <vector>

#include "serving/cost_model.h"
#include "trace.h"

namespace perfbench {

class TimedCostModel : public streamtensor::serving::StepCostModel
{
  public:
    /** One stepMs() call. */
    struct Call
    {
        double step_ms = 0.0;     ///< cost the wrapped oracle returned
        double crossing_ms = 0.0; ///< its crossing-attributed stall
        double host_s = 0.0;      ///< host time inside the oracle
    };

    /** @p inner and @p recorder must outlive the decorator. */
    TimedCostModel(streamtensor::serving::StepCostModel &inner,
                   SpanRecorder &recorder);

    double stepMs(const std::vector<streamtensor::runtime::StepGroup>
                      &groups) override;

    bool concurrentSafe() const override
    {
        return inner_.concurrentSafe();
    }

    const std::vector<Call> &calls() const { return calls_; }

  private:
    streamtensor::serving::StepCostModel &inner_;
    SpanRecorder &recorder_;
    /** @p inner as an ExecutorCostModel, or null. */
    const streamtensor::serving::ExecutorCostModel *crossing_;
    int32_t span_name_;
    std::thread::id owner_;
    std::vector<Call> calls_;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_COST_H
