/**
 * @file
 * Per-cell aggregation of fleet session results.
 *
 * Workers reduce every finished SimResult to a compact SessionStats (a
 * few dozen scalars — scales to fleets far beyond what retaining raw
 * results allows) and the runner streams the stats into a
 * MetricsAggregator in canonical job order (an ordered cursor plus a
 * bounded out-of-order window). Aggregation is therefore deterministic
 * in the face of any worker interleaving — same fleet, same summary
 * bytes, any thread count — while the resident set stays independent
 * of the user-axis size.
 *
 * Cells are (device, app, scheduler) groups. Means/extrema use
 * util/stats RunningStats; percentiles come from mergeable
 * PercentileSketches (per-session mean and p95 distributions, plus the
 * per-event latency sketch carried in each SessionStats), which keeps
 * cell memory O(1) in both sessions and events — a 10M-session cell
 * costs the same few hundred counters as a 10-session one.
 */

#ifndef PES_RUNNER_METRICS_AGGREGATOR_HH
#define PES_RUNNER_METRICS_AGGREGATOR_HH

#include <map>
#include <string>
#include <vector>

#include "sim/session_stats.hh"
#include "sim/sim_types.hh"
#include "util/stats.hh"

namespace pes {

/** Aggregated summary of one (device, app, scheduler) cell. */
struct CellSummary
{
    std::string device;
    std::string app;
    std::string scheduler;

    int sessions = 0;
    long events = 0;
    long violations = 0;
    /** Event-weighted QoS violation rate. */
    double violationRate = 0.0;

    double meanEnergyMj = 0.0;
    double stddevEnergyMj = 0.0;
    double minEnergyMj = 0.0;
    double maxEnergyMj = 0.0;
    double meanBusyEnergyMj = 0.0;
    double meanIdleEnergyMj = 0.0;
    double meanOverheadEnergyMj = 0.0;
    double meanWasteEnergyMj = 0.0;
    double meanDurationMs = 0.0;

    /** Event-weighted mean latency over the cell. */
    double meanLatencyMs = 0.0;
    /** Event-level latency percentiles over every event of the cell
     *  (merged per-session sketches; ~0.8% relative accuracy). */
    double p50LatencyMs = 0.0;
    double p95LatencyMs = 0.0;
    double p99LatencyMs = 0.0;
    /** Median of per-session mean latencies. */
    double p50SessionLatencyMs = 0.0;
    /** 95th percentile of per-session p95 latencies. */
    double p95SessionLatencyMs = 0.0;
    /** Worst event latency of any session. */
    double maxLatencyMs = 0.0;
    /** Mean of per-session average queue lengths. */
    double avgQueueLength = 0.0;

    /** Pooled prediction accuracy; 0 when no predictions. */
    double predictionAccuracy = 0.0;
    double mispredictsPerSession = 0.0;
    double mispredictWasteMsPerSession = 0.0;
    /** Fraction of sessions that hit the reactive fallback. */
    double fallbackRate = 0.0;
};

/**
 * Merges SessionStats into per-cell summaries.
 */
class MetricsAggregator
{
  public:
    /** Fold one session into cell (device, app, scheduler). */
    void add(const std::string &device, const std::string &app,
             const std::string &scheduler, const SessionStats &stats);

    /**
     * Merge one session's event-latency sketch into a cell, without
     * folding any of the session's scalars. Bin-wise sketch merges
     * commute, so callers that must fold scalars in canonical job
     * order (for bit-stable float sums) can still merge sketches the
     * moment a session completes — in any order — and stash only the
     * small scalar remainder (sketch cleared) for the ordered fold.
     */
    void addEventLatencySketch(const std::string &device,
                               const std::string &app,
                               const std::string &scheduler,
                               const PercentileSketch &sketch);

    /** Total sessions across all cells. */
    int sessions() const;

    /** Total events across all cells. */
    long events() const;

    /** All cell summaries, ordered by (device, app, scheduler) key. */
    std::vector<CellSummary> cells() const;

    /**
     * Summary of one cell; a zeroed summary when the cell is unknown
     * (sessions == 0 flags it).
     */
    CellSummary cell(const std::string &device, const std::string &app,
                     const std::string &scheduler) const;

  private:
    struct CellKey
    {
        std::string device;
        std::string app;
        std::string scheduler;

        bool operator<(const CellKey &o) const
        {
            if (device != o.device)
                return device < o.device;
            if (app != o.app)
                return app < o.app;
            return scheduler < o.scheduler;
        }
    };

    struct CellAccum
    {
        int sessions = 0;
        long events = 0;
        long violations = 0;
        RunningStats energy;
        RunningStats busyEnergy;
        RunningStats idleEnergy;
        RunningStats overheadEnergy;
        RunningStats wasteEnergy;
        RunningStats duration;
        RunningStats queueLength;
        double maxLatencyMs = 0.0;
        /** Session mean latencies weighted by events (pooled mean). */
        double latencyEventSum = 0.0;
        /** Distribution sketches: per-session mean, per-session p95,
         *  and every event latency (merged from the per-session
         *  sketches). Bin-wise merge keeps any shard/merge order
         *  byte-identical. */
        PercentileSketch sessionMeanLatency;
        PercentileSketch sessionP95Latency;
        PercentileSketch eventLatency;
        long predictionsMade = 0;
        long predictionsCorrect = 0;
        long mispredictions = 0;
        double mispredictWasteMs = 0.0;
        int fallbacks = 0;
    };

    CellSummary summarize(const CellKey &key, const CellAccum &acc) const;

    std::map<CellKey, CellAccum> cells_;
};

} // namespace pes

#endif // PES_RUNNER_METRICS_AGGREGATOR_HH
