#include "timed_cost.h"

#include "support/error.h"

namespace perfbench {

TimedCostModel::TimedCostModel(
    streamtensor::serving::StepCostModel &inner, SpanRecorder &recorder)
    : inner_(inner), recorder_(recorder),
      crossing_(dynamic_cast<const streamtensor::serving::
                                 ExecutorCostModel *>(&inner)),
      span_name_(recorder.intern("cost.stepMs")),
      owner_(std::this_thread::get_id())
{}

double
TimedCostModel::stepMs(
    const std::vector<streamtensor::runtime::StepGroup> &groups)
{
    ST_CHECK(std::this_thread::get_id() == owner_,
             "the timing decorator records on one thread only");
    double crossing_before = crossing_ ? crossing_->crossingStallMs()
                                       : 0.0;
    double start = recorder_.now();
    double ms = inner_.stepMs(groups);
    double end = recorder_.now();
    recorder_.add(span_name_, start, end, recorder_.current());
    double crossing_ms =
        crossing_ ? crossing_->crossingStallMs() - crossing_before
                  : 0.0;
    calls_.push_back({ms, crossing_ms, end - start});
    return ms;
}

} // namespace perfbench
