#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
SpanRecorder::open(const char *name, uint64_t session)
{
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? kNoParent : stack_.back();
    span.session = session;
    span.startNs = nowNs();
    spans_.push_back(span);
    const int id = static_cast<int>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    // ScopedSpan closes in LIFO order; anything else is a bug here, and
    // this runs from a destructor, so stop rather than throw.
    if (stack_.empty() || stack_.back() != id) {
        std::fprintf(stderr, "perfbench: span closed out of order\n");
        std::abort();
    }
    spans_[static_cast<size_t>(id)].endNs = nowNs();
    stack_.pop_back();
}

void
SpanRecorder::writeChromeTrace(std::ostream &os) const
{
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << static_cast<double>(s.startNs) / 1000.0 << ",\"dur\":"
           << static_cast<double>(s.endNs - s.startNs) / 1000.0
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"session\":" << s.session << "}}";
    }
    os << "\n]}\n";
}

std::vector<int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent != kNoParent)
            children[static_cast<size_t>(s.parent)].emplace_back(s.startNs,
                                                                 s.endNs);
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent.
        int64_t covered = 0;
        int64_t cursor = s.startNs;
        for (const auto &[start, end] : kids) {
            const int64_t from = std::max(start, cursor);
            const int64_t to = std::min(end, s.endNs);
            if (to > from) {
                covered += to - from;
                cursor = to;
            }
        }
        self[i] = (s.endNs - s.startNs) - covered;
    }
    return self;
}

std::map<std::string, LayerTime>
layerTimes(const std::vector<Span> &spans)
{
    const std::vector<int64_t> self = selfTimesNs(spans);
    std::map<std::string, LayerTime> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        LayerTime &t = out[spans[i].name];
        t.totalMs += static_cast<double>(spans[i].endNs - spans[i].startNs) /
            1e6;
        t.selfMs += static_cast<double>(self[i]) / 1e6;
        ++t.spans;
    }
    return out;
}

} // namespace perfbench
