/**
 * @file
 * The scheduler <-> runtime protocol.
 *
 * A SchedulerDriver is the pluggable policy the RuntimeSimulator consults:
 * it receives arrival notifications, supplies the next work item when the
 * main thread goes idle, and (for governor-style policies) gets periodic
 * sampling ticks it can answer with configuration changes. Speculation is
 * expressed through the same protocol: drivers submit Speculative work
 * items for future arrival positions and, when a real event arrives,
 * direct the simulator to serve it from a finished frame
 * (serveFromSpeculation), adopt the in-flight item (adoptInFlight), or
 * squash (abortInFlight/discardSpeculativeWork).
 *
 * Ground-truth isolation: drivers never see not-yet-arrived trace events
 * or true workloads — they observe only arrivals, their own measurements, and
 * completion reports, exactly the information a real scheduler has. The
 * OracleScheduler deliberately breaks this rule through
 * SimulatorApi::fullTrace(), which exists only for the oracle baseline.
 */

#ifndef PES_SIM_SCHEDULER_DRIVER_HH
#define PES_SIM_SCHEDULER_DRIVER_HH

#include <optional>
#include <string>

#include "sim/sim_types.hh"

namespace pes {

class SimulatorApi;

/**
 * Abstract scheduling policy plugged into the RuntimeSimulator.
 */
class SchedulerDriver
{
  public:
    virtual ~SchedulerDriver() = default;

    /** Human-readable policy name (report key). */
    virtual std::string name() const = 0;

    /** Called once before the replay starts. */
    virtual void begin(SimulatorApi &api) { (void)api; }

    /**
     * A real input event arrived (it is already in the pending queue).
     * Speculative drivers use this hook to match the arrival against the
     * pending-frame buffer and either serve it or squash.
     */
    virtual void onArrival(SimulatorApi &api, int trace_index)
    {
        (void)api;
        (void)trace_index;
    }

    /**
     * The main thread is idle: return the next work item, or nullopt to
     * stay idle until the next arrival or sampling tick.
     */
    virtual std::optional<WorkItem> nextWork(SimulatorApi &api) = 0;

    /**
     * A work item finished executing and produced its frame.
     */
    virtual void onWorkFinished(SimulatorApi &api,
                                const CompletedWork &work)
    {
        (void)api;
        (void)work;
    }

    /**
     * Restore the driver to as-constructed state so a pooled instance can
     * be reused for the next session exactly as if freshly built. Return
     * true when the driver supports this; the default (false) makes the
     * runner construct a fresh driver instead. Drivers that deliberately
     * carry state across sessions (warm-driver mode) are reset by NOT
     * calling this between sessions of the same cell.
     */
    virtual bool resetFresh() { return false; }

    /**
     * Sampling period for onSampleTick; 0 disables ticks.
     */
    virtual TimeMs sampleIntervalMs() const { return 0.0; }

    /**
     * Periodic governor tick. Return a configuration to switch the
     * platform (mid-execution changes are honored), or nullopt.
     */
    virtual std::optional<AcmpConfig>
    onSampleTick(SimulatorApi &api, const ExecutionStatus &status)
    {
        (void)api;
        (void)status;
        return std::nullopt;
    }

    /**
     * Are the idle ticks until the next arrival no-ops? Asked on an idle
     * tick before the next arrival. Return true only if, from now until
     * the arrival, every nextWork() call would return nullopt and every
     * onSampleTick() seen idle at utilization 0 would return nullopt or
     * the current configuration, and none of those calls would change
     * driver state. When this tick's sampling window also holds no busy
     * time (so no later tick before the arrival sees any), the simulator
     * then skips those ticks: it jumps to the last one before the
     * arrival without calling nextWork() or onSampleTick(), and meters
     * the idle time exactly as per-tick replay would. The default
     * (false) fires every tick.
     */
    virtual bool idleTicksAreNoOps(SimulatorApi &api)
    {
        (void)api;
        return false;
    }
};

} // namespace pes

#endif // PES_SIM_SCHEDULER_DRIVER_HH
