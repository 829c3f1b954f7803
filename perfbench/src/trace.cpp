#include "trace.h"

#include <cstdio>

#include "support/error.h"

namespace perfbench {

SpanRecorder::SpanRecorder(std::string clock)
    : clock_(std::move(clock)),
      origin_(std::chrono::steady_clock::now())
{}

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int32_t
SpanRecorder::intern(const std::string &name)
{
    auto [it, inserted] = name_ids_.emplace(
        name, static_cast<int32_t>(names_.size()));
    if (inserted)
        names_.push_back(name);
    return it->second;
}

int64_t
SpanRecorder::open(int32_t name, int64_t request)
{
    double t = now();
    int64_t id = add(name, t, t, current(), request);
    stack_.push_back(id);
    return id;
}

void
SpanRecorder::close(int64_t id)
{
    ST_CHECK(!stack_.empty() && stack_.back() == id,
             "spans must close innermost first");
    stack_.pop_back();
    spans_[static_cast<size_t>(id)].end = now();
}

int64_t
SpanRecorder::add(int32_t name, double start, double end,
                  int64_t parent, int64_t request)
{
    ST_CHECK(end >= start, "span ends before it starts");
    ST_CHECK(parent < static_cast<int64_t>(spans_.size()),
             "span parent must already exist");
    spans_.push_back({name, parent, request, start, end});
    return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double>
SpanRecorder::selfTimes() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].duration();
    for (const auto &s : spans_)
        if (s.parent >= 0)
            self[static_cast<size_t>(s.parent)] -= s.duration();
    return self;
}

std::map<std::string, double>
SpanRecorder::selfByName() const
{
    std::map<std::string, double> out;
    std::vector<double> self = selfTimes();
    for (size_t i = 0; i < spans_.size(); ++i)
        out[names_[static_cast<size_t>(spans_[i].name)]] += self[i];
    return out;
}

bool
writeSpans(const std::string &path, const std::string &context_json,
           const std::vector<const SpanRecorder *> &recorders)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "# context %s\n", context_json.c_str());
    std::fprintf(f, "# host spans: seconds since the traced phase "
                    "began; sim spans: simulated milliseconds\n");
    std::fprintf(f, "clock\tid\tparent\trequest\tname\tstart\tend\n");
    for (const SpanRecorder *r : recorders) {
        const auto &spans = r->spans();
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::fprintf(f, "%s\t%zu\t%lld\t%lld\t%s\t%.9g\t%.9g\n",
                         r->clock().c_str(), i,
                         static_cast<long long>(s.parent),
                         static_cast<long long>(s.request),
                         r->names()[static_cast<size_t>(s.name)]
                             .c_str(),
                         s.start, s.end);
        }
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
