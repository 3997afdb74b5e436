/**
 * @file
 * Compact per-session reduction of one simulated session.
 *
 * SessionStats is the unit of record for fleet aggregation: a few dozen
 * scalars reduced from a session, cheap enough to retain for fleets far
 * beyond what keeping raw SimResults allows. The per-event half of the
 * reduction lives in one SessionAccumulator: the simulator feeds it as
 * it serves events, and reduce(SimResult) feeds it from a finished
 * result's records, so the two entry points share one arithmetic.
 */

#ifndef PES_SIM_SESSION_STATS_HH
#define PES_SIM_SESSION_STATS_HH

#include "sim/sim_types.hh"
#include "util/psketch.hh"
#include "util/stats.hh"

namespace pes {

/** Compact per-session reduction of one simulated session. */
struct SessionStats
{
    int events = 0;
    int violations = 0;
    double totalEnergyMj = 0.0;
    double busyEnergyMj = 0.0;
    double idleEnergyMj = 0.0;
    double overheadEnergyMj = 0.0;
    double wasteEnergyMj = 0.0;
    double durationMs = 0.0;
    /** Event-weighted mean latency within the session. */
    double meanLatencyMs = 0.0;
    double p95LatencyMs = 0.0;
    double maxLatencyMs = 0.0;
    int predictionsMade = 0;
    int predictionsCorrect = 0;
    int mispredictions = 0;
    double mispredictWasteMs = 0.0;
    double avgQueueLength = 0.0;
    bool fellBackToReactive = false;
    /**
     * Per-event latency sketch of the session: merged bin-wise across
     * sessions at reduction, it yields true event-level p50/p95/p99
     * per cell from bounded memory, for fleets of any size.
     */
    PercentileSketch latencySketch;

    /** Reduce a full simulation result. */
    static SessionStats reduce(const SimResult &result);
};

/**
 * The per-event half of the session reduction: violations and the
 * latency mean, p95, max and sketch, fed one served event at a time in
 * trace order. One instance can reduce many sessions; clear() keeps the
 * latency buffer's capacity, so a warm engine stops allocating here.
 */
class SessionAccumulator
{
  public:
    /** Start a new session. */
    void clear();

    /** Fold in the next event, in trace order. */
    void add(const EventRecord &event);

    /**
     * The session's SessionStats: the events folded in so far, plus
     * the session-level scalars (energy, duration, prediction
     * bookkeeping, queue length) of @p session.
     */
    SessionStats finish(const SimResult &session);

  private:
    int violations_ = 0;
    double latencySum_ = 0.0;
    double maxLatency_ = 0.0;
    /** Per-event latencies in trace order (percentile input). */
    SampleSet latencies_;
};

} // namespace pes

#endif // PES_SIM_SESSION_STATS_HH
