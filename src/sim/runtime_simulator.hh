/**
 * @file
 * Discrete-event replay of an interaction trace under a scheduler.
 *
 * The simulator owns all ground truth (true per-instance workloads, future
 * arrivals) and time/energy accounting; the plugged SchedulerDriver only
 * decides. Executed work progresses under the Eqn.-1 latency model at the
 * driver-chosen configurations, with DVFS-switch and migration costs, a
 * 60 Hz display, FIFO main-thread dispatch, and speculative execution with
 * commit/squash semantics (Sec. 5.4).
 *
 * Energy is integrated the way the paper measures it: the active cluster's
 * busy power plus the inactive cluster's idle power while executing, both
 * clusters idle otherwise; DVFS/migration transitions and scheduler
 * compute are tagged Overhead, squashed speculative work is re-tagged as
 * mispredict waste.
 *
 * Hot-path design: one engine instance is meant to replay many sessions.
 * reset() restores pristine state while keeping every allocation (session
 * DOMs, meter segments, the segment arena, event records), so a warmed
 * engine replays a session with near-zero allocator traffic. Per-exec
 * busy-segment lists live as (first, count) slices of a shared append-only
 * arena instead of per-item vectors. Every served event feeds one
 * SessionAccumulator — the same one SessionStats::reduce() uses — so
 * runStats() returns the session's SessionStats without recording
 * anything per event; run() additionally records the per-event detail
 * (event records, PFB samples, prediction degrees).
 */

#ifndef PES_SIM_RUNTIME_SIMULATOR_HH
#define PES_SIM_RUNTIME_SIMULATOR_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "hw/energy_meter.hh"
#include "hw/estimator.hh"
#include "sim/scheduler_driver.hh"
#include "sim/session_stats.hh"
#include "sim/simulator_api.hh"
#include "web/render_pipeline.hh"

namespace pes {

/** Replay options. */
struct SimConfig
{
    /** Display refresh rate. */
    double vsyncRateHz = 60.0;
    /** Record the PFB occupancy trace (Fig. 9). */
    bool recordPfb = true;
    /**
     * Matching rule deciding whether a speculative frame's ground-truth
     * workload is the actual event's (the paper's type-level accuracy
     * granularity) or a freshly sampled plausible workload.
     */
    MatchPolicy matchPolicy = MatchPolicy::TypeLevel;
    /** Render-scale of the app (for sampling mispredicted workloads). */
    double renderScale = 1.0;
    /** Seed for sampling mispredicted speculative workloads. */
    uint64_t specNoiseSeed = 0x5eed;
};

/**
 * The replay engine. One instance can run many traces (state is reset per
 * run).
 */
class RuntimeSimulator
{
  public:
    RuntimeSimulator(const AcmpPlatform &platform, const PowerModel &power,
                     const WebApp &app, SimConfig config = SimConfig{});

    /** Replay @p trace under @p driver and return the result. */
    SimResult run(const InteractionTrace &trace, SchedulerDriver &driver);

    /**
     * Replay @p trace under @p driver and return only the per-session
     * reduction — bit-identical to SessionStats::reduce(run(...)) but
     * without recording per-event records, PFB samples, or name
     * strings. The path for fleet runs that do not retain results.
     */
    SessionStats runStats(const InteractionTrace &trace,
                          SchedulerDriver &driver);

    /** Re-seed mispredicted-workload sampling (per-session fleet seed). */
    void setSpecNoiseSeed(uint64_t seed) { config_.specNoiseSeed = seed; }

  private:
    friend class SimulatorApi;

    struct ExecState
    {
        WorkItem item;
        uint64_t workId = 0;
        Workload truth;
        double remainingFrac = 1.0;
        TimeMs switchRemaining = 0.0;
        TimeMs startTime = 0.0;
        TimeMs execMs = 0.0;
        EnergyMj busyEnergy = 0.0;
        /** Busy meter segments: a slice of segmentArena_. */
        uint32_t segFirst = 0;
        uint32_t segCount = 0;
        bool adopted = false;
        int adoptedIndex = -1;
        bool truthMatched = false;
    };

    struct SpecFrame
    {
        WorkItem item;
        TimeMs ready = 0.0;
        TimeMs execMs = 0.0;
        EnergyMj busyEnergy = 0.0;
        /** Busy meter segments: a slice of segmentArena_. */
        uint32_t segFirst = 0;
        uint32_t segCount = 0;
        int configIndex = -1;
        bool truthMatched = false;
    };

    // ---- main loop pieces ----
    void replay(const InteractionTrace &trace, SchedulerDriver &driver,
                bool record_detail);
    void reset(const InteractionTrace &trace, SchedulerDriver &driver);
    void deliverArrival();
    void startExec(const WorkItem &item);
    void advanceBusy(TimeMs until);
    void advanceIdle(TimeMs until);
    void completeExec();
    void fireTick();
    TimeMs finishEstimate() const;
    TimeMs nextTickTime() const;
    double busyFraction(TimeMs window) const;
    void serveEvent(int trace_index, TimeMs frame_ready, int config_index,
                    EnergyMj busy_energy, TimeMs exec_ms, bool speculative);
    Workload resolveTruth(const WorkItem &item, bool &matched) const;
    int configIndexOfCurrent();
    void retagEndOfRunWaste();
    void finish();

    // ---- SimulatorApi backend (see simulator_api.hh) ----
    void apiServeFromSpeculation(int trace_index, uint64_t work_id);
    void apiAdoptInFlight(int trace_index);
    void apiAbortInFlight();
    AcmpConfig apiBoostInFlightToMeet(TimeMs deadline);
    void apiDiscardSpeculativeWork(uint64_t work_id);
    void apiChargeSchedulerOverhead(TimeMs duration);
    void apiRecordPfbSample(int pfb_size, bool after_squash);
    void apiNotePrediction(bool correct);
    void apiNotePredictionRound(int degree);
    void apiNoteFallback();

    // ---- fixed collaborators ----
    const AcmpPlatform *platform_;
    const PowerModel *power_;
    const WebApp *app_;
    SimConfig config_;
    DvfsLatencyModel latencyModel_;
    VsyncClock vsync_;

    // ---- per-run state ----
    const InteractionTrace *trace_ = nullptr;
    SchedulerDriver *driver_ = nullptr;
    std::optional<WebAppSession> session_;
    EventLoop queue_;
    EnergyMeter meter_;
    TimeMs now_ = 0.0;
    int arrivedCount_ = 0;
    int servedCount_ = 0;
    AcmpConfig currentConfig_;
    std::optional<ExecState> exec_;
    uint64_t nextWorkId_ = 1;
    /** Finished speculative frames in creation order (small: PFB-sized). */
    std::vector<std::pair<uint64_t, SpecFrame>> specFrames_;
    /** Arena of busy-segment ids referenced by ExecState/SpecFrame. */
    std::vector<uint64_t> segmentArena_;
    std::vector<std::pair<TimeMs, TimeMs>> busyIntervals_;
    /** Session-level totals; per-event detail only under run(). */
    SimResult result_;
    TimeMs lastDisplay_ = 0.0;
    /** Set by run(): record event records, PFB samples and degrees. */
    bool recordDetail_ = false;
    SessionAccumulator acc_;

    /** Memoized platform_->configIndex(currentConfig_). */
    int cachedConfigIndex_ = -1;
    AcmpConfig cachedConfig_;
};

} // namespace pes

#endif // PES_SIM_RUNTIME_SIMULATOR_HH
