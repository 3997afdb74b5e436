/**
 * @file
 * In-memory span recording for the traced benchmark run.
 *
 * A span is one crossing of a layer boundary: its name (the layer and
 * the call, e.g. "trace.generate"), start and end, the span that caused
 * it, and the id of the simulated session it served, shared by every
 * span of that session. Spans are appended to a vector while the run
 * proceeds and written out once, as a Chrome trace-event file, when the
 * benchmark ends. A layer's self time is the time its spans cover minus
 * the part covered by their child spans.
 *
 * The recorder is single-threaded: the traced run replays sessions on
 * the calling thread, so the open-span stack is the parent chain.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Parent index of a root span. */
constexpr int kNoParent = -1;

/** One recorded layer crossing (times in ns from the recorder origin). */
struct Span
{
    /** Static string: "<layer>.<call>". */
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    /** Index of the causing span in the same vector, or kNoParent. */
    int parent = kNoParent;
    /** Session id shared by all spans of one simulated session. */
    uint64_t session = 0;
};

/** Appends spans; open() nests under the innermost open span. */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span named @p name (a string literal) for @p session. */
    int open(const char *name, uint64_t session);
    /** Close span @p id, which must be the innermost open span. */
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as a Chrome trace-event JSON document. */
    void writeChromeTrace(std::ostream &os) const;

  private:
    int64_t nowNs() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Opens a span on construction and closes it on destruction; a null
 *  recorder makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const char *name, uint64_t session)
        : recorder_(recorder),
          id_(recorder ? recorder->open(name, session) : kNoParent)
    {
    }
    ~ScopedSpan()
    {
        if (recorder_)
            recorder_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *recorder_;
    int id_;
};

/**
 * Self time per span: its duration minus the union of its children's
 * intervals (clipped to the span), in ns. Indexed like @p spans.
 */
std::vector<int64_t> selfTimesNs(const std::vector<Span> &spans);

/** Total and self time (ms) and span count of one span name. */
struct LayerTime
{
    double totalMs = 0.0;
    double selfMs = 0.0;
    uint64_t spans = 0;
};

/** selfTimesNs() summed per span name. */
std::map<std::string, LayerTime> layerTimes(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
