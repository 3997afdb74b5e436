/**
 * @file
 * Aggregation of simulation results across traces, apps and schedulers.
 *
 * The paper reports per-application averages over three evaluation traces
 * (Sec. 6.1) and normalizes energy to the Interactive governor (Fig. 11).
 * ResultSet provides exactly those groupings.
 */

#ifndef PES_SIM_METRICS_HH
#define PES_SIM_METRICS_HH

#include <string>
#include <vector>

#include "sim/sim_types.hh"

namespace pes {

/** Summary of one (app, scheduler) group. */
struct GroupSummary
{
    std::string appName;
    std::string schedulerName;
    int traces = 0;
    int events = 0;
    /** Mean per-trace total energy (mJ). */
    EnergyMj meanEnergy = 0.0;
    /** Event-weighted QoS violation rate. */
    double violationRate = 0.0;
    /** Event-weighted mean latency (ms). */
    TimeMs meanLatency = 0.0;
    /** Prediction accuracy over all predictions of the group. */
    double predictionAccuracy = 0.0;
    /** Mean waste per misprediction (ms); 0 when no mispredictions. */
    TimeMs wastePerMispredictMs = 0.0;
    /** Mean waste energy per misprediction (mJ). */
    EnergyMj wastePerMispredictMj = 0.0;
    /** Amortized waste across all events (ms/event). */
    TimeMs wastePerEventMs = 0.0;
    /** Mean event-queue length. */
    double avgQueueLength = 0.0;
};

/**
 * Collection of SimResults with grouping helpers.
 */
class ResultSet
{
  public:
    /** Add one run. */
    void add(SimResult result);

    /** All results. */
    const std::vector<SimResult> &results() const { return results_; }

    /** Distinct app names, in insertion order. */
    std::vector<std::string> apps() const;

    /** Distinct scheduler names, in insertion order. */
    std::vector<std::string> schedulers() const;

    /** Summary over all runs of (app, scheduler). */
    GroupSummary summarize(const std::string &app,
                           const std::string &scheduler) const;

    /** Summary pooling every app for one scheduler. */
    GroupSummary summarizeScheduler(const std::string &scheduler) const;

    /**
     * Mean energy of (app, scheduler) normalized to
     * (app, baseline_scheduler); 1.0 when either group is empty.
     */
    double normalizedEnergy(const std::string &app,
                            const std::string &scheduler,
                            const std::string &baseline) const;

    /**
     * Average of per-app normalized energies for a scheduler (the
     * "avg" bars of Fig. 11), over the given apps.
     */
    double meanNormalizedEnergy(const std::vector<std::string> &apps,
                                const std::string &scheduler,
                                const std::string &baseline) const;

  private:
    GroupSummary
    summarizeMatching(const std::string &app,
                      const std::string &scheduler) const;

    std::vector<SimResult> results_;
};

} // namespace pes

#endif // PES_SIM_METRICS_HH
