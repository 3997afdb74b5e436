/**
 * @file
 * PES: the proactive event scheduler (paper Sec. 5).
 *
 * Glues the three modules of Fig. 6 behind the SchedulerDriver protocol:
 *
 *   Predictor    - recurrent logistic learner + DOM analysis (predictor.hh)
 *   Optimizer    - Eqn. 2-5 global schedule over outstanding + predicted
 *                  events (optimizer.hh)
 *   Control unit - event monitor + Pending Frame Buffer: commits matching
 *                  speculative frames, squashes on mismatch, reboots the
 *                  predictor, and falls back to the best reactive
 *                  scheduler (EBS) after >3 consecutive mispredictions.
 *
 * The driver additionally implements the event dispatcher's practical
 * rules: speculative network requests are suppressed until commit (the
 * simulator counts them), and dispatching stops on a squash.
 */

#ifndef PES_CORE_PES_SCHEDULER_HH
#define PES_CORE_PES_SCHEDULER_HH

#include <optional>
#include <vector>

#include "core/ebs_policy.hh"
#include "core/optimizer.hh"
#include "core/pfb.hh"
#include "core/predictor.hh"
#include "sim/scheduler_driver.hh"
#include "sim/simulator_api.hh"

namespace pes {

/**
 * The PES scheduler driver.
 */
class PesScheduler : public SchedulerDriver
{
  public:
    /**
     * Deadline model for predicted (not yet triggered) events. The paper
     * leaves the deadline of a predicted event implicit; we provide both
     * readings and ablate them (see DESIGN.md).
     */
    enum class DeadlineModel
    {
        /** Assume the event may trigger immediately (QoS chaining). */
        Conservative = 0,
        /**
         * Relax only predicted *navigations* with the online
         * inter-arrival estimate (scaled by kArrivalSafetyFactor):
         * loads carry most of the energy, and navigation gaps are long
         * and reliable, while tap/move gaps are bursty — relaxing those
         * trades QoS for little energy (see the sec65 ablation bench).
         */
        ExpectedGapLoads,
        /** Relax every predicted event (ablation: QoS degrades). */
        ExpectedGapAll,
    };

    /** Knobs (paper defaults). */
    struct Config
    {
        /** Predictor settings (70% confidence threshold etc.). */
        EventPredictor::Config predictor;
        /** Commit-match granularity (see MatchPolicy), also stamped on
         *  every speculative WorkItem for the simulator's ground truth. */
        MatchPolicy matchPolicy = MatchPolicy::TypeLevel;
        /** Master switch: off = reactive only (for ablations). */
        bool enablePrediction = true;
        /** Deadline model for predicted events. */
        DeadlineModel deadlineModel = DeadlineModel::ExpectedGapLoads;
        /** Report name override (for sweeps). */
        std::string nameOverride;
    };

    /** @param model Trained event-sequence model (predictor_training). */
    explicit PesScheduler(const LogisticModel &model);
    PesScheduler(const LogisticModel &model, Config config);

    std::string name() const override;

    bool resetFresh() override
    {
        // begin() re-creates everything except the warm state: the EBS
        // policy (Eqn.-1 measurements) and the inter-arrival EWMA model.
        ebs_.reset();
        ewmaGap_.fill(0.0);
        return true;
    }

    void begin(SimulatorApi &api) override;
    void onArrival(SimulatorApi &api, int trace_index) override;
    std::optional<WorkItem> nextWork(SimulatorApi &api) override;
    void onWorkFinished(SimulatorApi &api,
                        const CompletedWork &work) override;

    /** Diagnostics. */
    const EbsPolicy *policy() const { return ebs_ ? &*ebs_ : nullptr; }
    int consecutiveMispredicts() const { return consecutiveMispredicts_; }
    bool inReactiveFallback() const { return fallback_; }

  private:
    struct PlanItem
    {
        int position = -1;
        /** True when the event had already arrived at plan time. */
        bool real = false;
        PredictedEvent predicted;
        int configIndex = 0;
        bool dispatched = false;
    };

    struct InFlight
    {
        int position = -1;
        PredictedEvent predicted;
        bool adopted = false;
        int adoptedIndex = -1;
        bool nodeExact = false;
        /** DVFS was raised mid-flight (taints the Eqn.-1 measurement). */
        bool boosted = false;
    };

    /** Estimator class key of a predicted event (loads key by
     *  destination page, mirroring the trace's per-URL classes). */
    uint64_t classKeyFor(SimulatorApi &api,
                         const PredictedEvent &predicted) const;

    /** Squash everything speculative and reboot prediction. */
    void squash(SimulatorApi &api);

    /** Build a fresh plan (outstanding + predicted). Returns false when
     *  there is nothing to schedule. */
    bool buildPlan(SimulatorApi &api);

    /** Record an estimator measurement for a completed execution. */
    void recordMeasurement(SimulatorApi &api, uint64_t class_key,
                           DomEventType type, const CompletedWork &work);

    LogisticModel model_;
    Config config_;

    std::optional<EventPredictor> predictor_;
    /** Bound to the session in begin(); its app's memo serves every
     *  plan and every session of that app on this thread. */
    std::optional<DomAnalyzer> analyzer_;
    std::optional<GlobalOptimizer> optimizer_;
    std::optional<EbsPolicy> ebs_;

    std::vector<PlanItem> plan_;
    size_t planNext_ = 0;
    PendingFrameBuffer pfb_;
    std::optional<InFlight> inflight_;
    FeatureWindow window_;

    int consecutiveMispredicts_ = 0;
    bool fallback_ = false;

    /** Online inter-arrival model: EWMA gap after each interaction. */
    std::array<TimeMs, kNumInteractions> ewmaGap_{};
    TimeMs lastArrivalTime_ = 0.0;
    std::optional<DomEventType> lastArrivalType_;
};

} // namespace pes

#endif // PES_CORE_PES_SCHEDULER_HH
