/**
 * @file
 * Interaction traces: the record/replay format.
 *
 * Mirrors the paper's methodology (user interactions recorded with
 * timing — including think time — and replayed under each scheduler,
 * Sec. 5.5/6.1). A trace is a time-ordered list of input events; each
 * event carries its true per-instance workload (callback + per-stage
 * render work), which the simulator uses as ground truth. Schedulers never
 * read these workloads directly — they estimate them online (EBS/PES) or
 * are the oracle.
 */

#ifndef PES_TRACE_TRACE_HH
#define PES_TRACE_TRACE_HH

#include <optional>
#include <string>
#include <vector>

#include "web/dom.hh"
#include "web/event_types.hh"
#include "web/render_pipeline.hh"

namespace pes {

/**
 * One recorded input event.
 */
struct TraceEvent
{
    /** Arrival (trigger) time from session start (ms). */
    TimeMs arrival = 0.0;
    /** DOM event type. */
    DomEventType type = DomEventType::Load;
    /** Target node (root for document-level events). */
    NodeId node = 0;
    /** Page the session was on when the event triggered. */
    int pageId = 0;
    /** Interaction position in page coordinates. */
    double x = 0.0;
    double y = 0.0;
    /** True per-instance callback workload. */
    Workload callbackWork;
    /** True per-instance rendering workload (per stage). */
    RenderWork renderWork;
    /** Whether the handler issues a network request (commit-gated). */
    bool issuesNetwork = false;
    /** Estimator key: stable id of this event's (page, node, type) class. */
    uint64_t classKey = 0;

    /** QoS target from the event type (3 s / 300 ms / 33 ms). */
    TimeMs qosTarget() const { return qosTargetMs(type); }

    /** Total work: callback plus all render stages. */
    Workload totalWork() const
    {
        return callbackWork + renderWork.total();
    }
};

/**
 * One recorded user session over one application.
 */
struct InteractionTrace
{
    std::string appName;
    uint64_t userSeed = 0;
    std::vector<TraceEvent> events;

    /** Arrival of the last event (ms); 0 when empty. */
    TimeMs duration() const
    {
        return events.empty() ? 0.0 : events.back().arrival;
    }

    /** Number of events. */
    size_t size() const { return events.size(); }

    /** Serialize to the text trace format. */
    std::string serialize() const;

    /** Parse a serialized trace; nullopt on malformed input or on a
     *  trace that fails replayableTrace(). */
    static std::optional<InteractionTrace>
    deserialize(const std::string &blob);

    /** Write to a file; false on I/O error. */
    bool saveToFile(const std::string &path) const;

    /** Read from a file; nullopt on error. */
    static std::optional<InteractionTrace>
    loadFromFile(const std::string &path);
};

/**
 * Whether the simulator can replay @p trace: at least one event;
 * finite, non-negative, non-decreasing arrivals; finite, non-negative
 * tmemMs and ndep for the callback and every render stage. On false,
 * @p why (nullable) names the first offending event. Every trace read
 * from outside the program passes through this check.
 */
bool replayableTrace(const InteractionTrace &trace, std::string *why);

/** Exact field-wise equality (corpus round-trip checks). */
bool operator==(const TraceEvent &a, const TraceEvent &b);
inline bool operator!=(const TraceEvent &a, const TraceEvent &b)
{
    return !(a == b);
}

/** Exact equality: app, user seed, and every event field. */
bool operator==(const InteractionTrace &a, const InteractionTrace &b);
inline bool operator!=(const InteractionTrace &a, const InteractionTrace &b)
{
    return !(a == b);
}

/** Compute the estimator class key for (app, page, node, type). */
uint64_t eventClassKey(const std::string &app_name, int page_id,
                       NodeId node, DomEventType type);

/**
 * Estimator class key of a concrete (node, handler) pair:
 *  - navigations key on the destination page (per-URL load estimation);
 *  - handlers with a handlerClassId key on the shared callback;
 *  - otherwise the node itself is the class.
 */
uint64_t eventClassKeyFor(const std::string &app_name, int page_id,
                          NodeId node, const HandlerSpec &handler);

} // namespace pes

#endif // PES_TRACE_TRACE_HH
