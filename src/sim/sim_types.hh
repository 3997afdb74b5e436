/**
 * @file
 * Shared types of the runtime simulation: work items, per-event records,
 * and whole-run results.
 */

#ifndef PES_SIM_SIM_TYPES_HH
#define PES_SIM_SIM_TYPES_HH

#include <string>
#include <vector>

#include "hw/acmp.hh"
#include "trace/trace.hh"
#include "web/dom.hh"
#include "web/event_types.hh"

namespace pes {

/**
 * A predicted future event: what the predictor believes the user will
 * trigger next (type + target in the hypothetical DOM state).
 */
struct PredictedEvent
{
    DomEventType type = DomEventType::Click;
    NodeId node = kInvalidNode;
    int pageId = 0;
    /** Predictor confidence of this single step (sigmoid output). */
    double confidence = 1.0;
};

/** How speculative frames are matched against actual events. */
enum class MatchPolicy
{
    /**
     * Commit when the DOM event type matches (the paper's accuracy metric
     * granularity); the committed frame adopts the actual event's content.
     */
    TypeLevel = 0,
    /** Commit only when both type and target node match. */
    Strict,
};

/**
 * Does @p predicted match @p actual under @p policy? The one rule both
 * sides apply: PES commits a speculative frame on a match, and the
 * simulator treats a matching frame as having computed the actual
 * event's workload.
 */
inline bool
matchesUnder(MatchPolicy policy, const PredictedEvent &predicted,
             const TraceEvent &actual)
{
    if (predicted.type != actual.type)
        return false;
    return policy == MatchPolicy::TypeLevel ||
        (predicted.node == actual.node && predicted.pageId == actual.pageId);
}

/**
 * One unit of main-thread work handed to the simulator by a scheduler.
 */
struct WorkItem
{
    enum class Kind { Real = 0, Speculative };

    Kind kind = Kind::Real;
    /** Real work: index of the arrived trace event. */
    int traceIndex = -1;
    /** Speculative work: the arrival position this frame is meant for. */
    int targetPosition = -1;
    /** Speculative work: the predicted event. */
    PredictedEvent predicted;
    /**
     * Speculative work: the driver's commit-match rule. The frame
     * computed the actual event's workload exactly when the prediction
     * matches that event under this rule.
     */
    MatchPolicy matchPolicy = MatchPolicy::TypeLevel;
    /** Execution configuration requested by the scheduler. */
    AcmpConfig config;
};

/**
 * Completion report for a finished work item.
 */
struct CompletedWork
{
    /** Simulator-assigned id (used to discard speculative frames). */
    uint64_t workId = 0;
    WorkItem item;
    /** When execution began (after any switch cost). */
    TimeMs startTime = 0.0;
    /** When the frame was produced. */
    TimeMs finishTime = 0.0;
    /** Pure execution time at the final configuration chain. */
    TimeMs execMs = 0.0;
    /** Configuration the item finished on. */
    AcmpConfig finalConfig;
};

/** Status snapshot passed to governor sampling ticks. */
struct ExecutionStatus
{
    /** True when the main thread is executing a work item. */
    bool executing = false;
    /** Busy fraction of the last sampling window. */
    double utilization = 0.0;
    /** Current configuration. */
    AcmpConfig config;
};

/**
 * Outcome bookkeeping for one input event.
 */
struct EventRecord
{
    int traceIndex = -1;
    DomEventType type = DomEventType::Load;
    TimeMs arrival = 0.0;
    /** When its frame was produced (or the serving frame's ready time). */
    TimeMs frameReady = 0.0;
    /** When the frame became visible (VSync-aligned). */
    TimeMs displayed = 0.0;
    /** QoS target of the event. */
    TimeMs qosTarget = 0.0;
    /** Dense index of the (final) configuration that served the event. */
    int configIndex = -1;
    /** Busy energy of the serving execution (mJ). */
    EnergyMj busyEnergy = 0.0;
    /** Pure execution time of the serving work (ms). */
    TimeMs execMs = 0.0;
    /** Served by a speculative frame generated before arrival finished. */
    bool servedSpeculatively = false;
    /** This arrival squashed the speculation pipeline. */
    bool squashedSpeculation = false;

    /** User-experienced latency (Fig. 1). */
    TimeMs latency() const { return displayed - arrival; }
    /** True when the event missed its QoS target. */
    bool violated() const { return latency() > qosTarget + 1e-9; }
};

/** One sample of Pending Frame Buffer occupancy (paper Fig. 9). */
struct PfbSample
{
    TimeMs time = 0.0;
    /** Arrival position at which the sample was taken. */
    int eventIndex = 0;
    int pfbSize = 0;
    /** True when this sample follows a squash. */
    bool afterSquash = false;
};

/**
 * Result of replaying one trace under one scheduler.
 */
struct SimResult
{
    std::string schedulerName;
    std::string appName;
    std::vector<EventRecord> events;

    EnergyMj totalEnergy = 0.0;
    EnergyMj busyEnergy = 0.0;
    EnergyMj idleEnergy = 0.0;
    EnergyMj overheadEnergy = 0.0;
    /** Energy of squashed speculative work (mispredict waste). */
    EnergyMj wasteEnergy = 0.0;
    /** Wall-clock duration of the replay (ms). */
    TimeMs duration = 0.0;

    /** Predictor bookkeeping (PES only). */
    int predictionsMade = 0;
    int predictionsCorrect = 0;
    int mispredictions = 0;
    /** Execution time of squashed speculative frames (ms). */
    TimeMs mispredictWasteMs = 0.0;
    /** Speculative work left unconsumed when the session ended (ms/mJ);
     *  an artifact of the session simply stopping, kept separate from
     *  mispredict waste. Its energy is included in wasteEnergy. */
    TimeMs endOfRunWasteMs = 0.0;
    EnergyMj endOfRunWasteMj = 0.0;
    /** Prediction-round degrees (events per round). */
    std::vector<int> predictionDegrees;
    /** True when >3 consecutive mispredictions disabled prediction. */
    bool fellBackToReactive = false;
    /** Network requests suppressed while speculative (Sec. 5.3). */
    int suppressedNetworkRequests = 0;

    /** PFB occupancy trace (PES only). */
    std::vector<PfbSample> pfbTrace;

    /** Mean event-queue length sampled at arrivals. */
    double avgQueueLength = 0.0;

    /** Fraction of events that missed their QoS target. */
    double violationRate() const
    {
        if (events.empty())
            return 0.0;
        int violations = 0;
        for (const EventRecord &e : events)
            violations += e.violated() ? 1 : 0;
        return static_cast<double>(violations) /
            static_cast<double>(events.size());
    }

    /** Prediction accuracy (correct / made); 0 when no predictions. */
    double predictionAccuracy() const
    {
        return predictionsMade
            ? static_cast<double>(predictionsCorrect) /
              static_cast<double>(predictionsMade)
            : 0.0;
    }
};

} // namespace pes

#endif // PES_SIM_SIM_TYPES_HH
