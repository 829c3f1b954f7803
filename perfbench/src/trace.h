/**
 * @file
 * In-memory span recorder for the benchmark's traced runs. A span
 * has a name, a start, an end, the span that caused it (its
 * parent) and, where one applies, a request id. Spans are recorded
 * from the benchmark's own code around calls into the program's
 * public entry points, kept in memory, and written out once the
 * run ends.
 *
 * One recorder holds one clock: host spans are seconds on
 * std::chrono::steady_clock since the recorder was made; simulated
 * spans are milliseconds of the program's simulated clock and are
 * added complete, with explicit bounds.
 *
 * A span's self time is its duration minus the durations of its
 * children. Children are recorded on one thread, nested inside
 * their parent and never overlapping one another, so self times
 * are non-negative up to clock granularity and the self times of a
 * tree sum to the duration of its root.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    int32_t name = 0;     ///< index into SpanRecorder::names()
    int64_t parent = -1;  ///< span index, -1 for a root
    int64_t request = -1; ///< request id, -1 when none applies
    double start = 0.0;
    double end = 0.0;

    double duration() const { return end - start; }
};

class SpanRecorder
{
  public:
    /** @p clock labels the spans in the output ("host" or
     *  "sim"). Host spans are measured relative to construction. */
    explicit SpanRecorder(std::string clock);

    const std::string &clock() const { return clock_; }

    /** Seconds since construction on the steady clock. */
    double now() const;

    /** Stable id of @p name (interned). */
    int32_t intern(const std::string &name);

    /** Open a host span as a child of the innermost open span. */
    int64_t open(int32_t name, int64_t request = -1);
    int64_t open(const std::string &name, int64_t request = -1)
    {
        return open(intern(name), request);
    }

    /** Close the innermost open span, which must be @p id. */
    void close(int64_t id);

    /** Innermost open span, -1 when none is open. */
    int64_t current() const
    {
        return stack_.empty() ? -1 : stack_.back();
    }

    /** Record a complete span with explicit bounds. */
    int64_t add(int32_t name, double start, double end,
                int64_t parent, int64_t request = -1);

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<std::string> &names() const { return names_; }

    /** Per-span self time, index-aligned with spans(). */
    std::vector<double> selfTimes() const;

    /** Σ self time by span name. */
    std::map<std::string, double> selfByName() const;

    /** RAII host span. */
    class Scope
    {
      public:
        Scope(SpanRecorder *recorder, const std::string &name,
              int64_t request = -1)
            : recorder_(recorder),
              id_(recorder ? recorder->open(name, request) : -1)
        {}
        ~Scope()
        {
            if (recorder_)
                recorder_->close(id_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int64_t id() const { return id_; }

      private:
        SpanRecorder *recorder_;
        int64_t id_;
    };

  private:
    std::string clock_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<std::string> names_;
    std::map<std::string, int32_t> name_ids_;
    std::vector<Span> spans_;
    std::vector<int64_t> stack_;
};

/** Write every span of @p recorders as tab-separated lines under a
 *  header holding @p context_json. Columns: clock, id, parent,
 *  request, name, start, end. Returns false when the file cannot be
 *  written. */
bool writeSpans(const std::string &path,
                const std::string &context_json,
                const std::vector<const SpanRecorder *> &recorders);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
