/**
 * @file
 * QoS-agnostic OS CPU governors (paper baselines).
 *
 * Interactive: Android's default interactive governor (Sec. 6.1) — 20 ms
 * utilization sampling, jump to the hispeed (max big) configuration when
 * load exceeds 85%, hold for min_sample_time before scaling down, then
 * scale capacity proportionally to load.
 *
 * Ondemand: the classic ondemand governor — 100 ms sampling, jump to max
 * above the up-threshold (80%), otherwise scale down proportionally. Its
 * slow ramp is why it trades QoS for energy (Fig. 13).
 *
 * Both select across clusters with a capacity-based HMP-style mapping and
 * are completely unaware of event QoS targets.
 */

#ifndef PES_CORE_GOVERNORS_HH
#define PES_CORE_GOVERNORS_HH

#include <utility>
#include <vector>

#include "sim/scheduler_driver.hh"
#include "sim/simulator_api.hh"

namespace pes {

/**
 * Base for sampling governors: dispatches FIFO work at the governor's
 * current configuration; subclasses implement the frequency policy.
 */
class SamplingGovernor : public SchedulerDriver
{
  public:
    std::optional<WorkItem> nextWork(SimulatorApi &api) override;

  protected:
    /**
     * Capacity index of a configuration: relative throughput (inverse of
     * the Eqn.-1 cycle coefficient).
     */
    static double capacityOf(SimulatorApi &api, const AcmpConfig &cfg);

    /**
     * Cheapest configuration with capacity >= @p desired (falls back to
     * the fastest configuration when none suffices). Capacities are fixed
     * per platform, so they are computed once and memoized rather than
     * re-derived from the latency model every sampling tick.
     */
    AcmpConfig configForCapacity(SimulatorApi &api, double desired);

  private:
    /** Platform the memoized capacity table belongs to. */
    const void *capacityPlatform_ = nullptr;
    /**
     * (capacity, config index) sorted ascending, so configForCapacity
     * binary-searches instead of scanning every tick. Ties sort by
     * index, making the first qualifying entry the same config the
     * min-capacity/min-index linear scan used to pick.
     */
    std::vector<std::pair<double, int>> sortedCapacities_;
};

/**
 * Android Interactive governor.
 */
class InteractiveGovernor : public SamplingGovernor
{
  public:
    /** Tunables (defaults follow the Android documentation). */
    struct Params
    {
        TimeMs timerRateMs = 20.0;
        double goHispeedLoad = 0.85;
        TimeMs minSampleTimeMs = 80.0;
        double targetLoad = 0.90;
    };

    InteractiveGovernor();
    explicit InteractiveGovernor(Params params);

    std::string name() const override { return "Interactive"; }

    bool resetFresh() override
    {
        lastHighLoad_ = -1e9;
        return true;
    }

    TimeMs sampleIntervalMs() const override { return params_.timerRateMs; }
    std::optional<AcmpConfig>
    onSampleTick(SimulatorApi &api, const ExecutionStatus &status) override;

    /** True once the hold has expired at configForCapacity(0). */
    bool idleTicksAreNoOps(SimulatorApi &api) override;

  private:
    Params params_;
    TimeMs lastHighLoad_ = -1e9;
};

/**
 * Linux/Android Ondemand governor.
 */
class OndemandGovernor : public SamplingGovernor
{
  public:
    /** Tunables. */
    struct Params
    {
        TimeMs samplingRateMs = 100.0;
        double upThreshold = 0.80;
    };

    OndemandGovernor();
    explicit OndemandGovernor(Params params);

    std::string name() const override { return "Ondemand"; }

    bool resetFresh() override { return true; }

    TimeMs sampleIntervalMs() const override
    {
        return params_.samplingRateMs;
    }
    std::optional<AcmpConfig>
    onSampleTick(SimulatorApi &api, const ExecutionStatus &status) override;

    /** True at configForCapacity(0). */
    bool idleTicksAreNoOps(SimulatorApi &api) override;

  private:
    Params params_;
};

} // namespace pes

#endif // PES_CORE_GOVERNORS_HH
